//! The per-layer probe every workload's traced run shares.
//!
//! Each layer of the stack is timed from outside, around calls into the
//! public functions of its crate, on the workload's own network and
//! frames: the bit transpose, the arbiter, the SRAM (plain, SECDED-checked
//! and transposed writes), the neurons, every tile sequential and
//! bit-sliced, the whole walk, the checked walk, the golden model and the
//! tracer. The probe runs in windows; a workload interleaves them
//! round-robin with its own traced work, and every time reported is the
//! median over the windows.

use std::ops::Range;
use std::time::Instant;

use esam_arbiter::{EncoderStructure, MultiPortArbiter};
use esam_bits::{BitVec, FrameBlock};
use esam_core::{EsamSystem, InferenceResult, IntegrityMode, TraceScope, TrackTrace, ARRAY_DIM};
use esam_nn::SnnModel;
use esam_sram::{AccessStats, IntegrityTally, RowVerdict};

use crate::stats::{median, Checks, Outcome, Windows};
use crate::BenchResult;

/// Frames per window of the sequential walks.
pub const SEQ_WINDOW: usize = 80;
/// Frames per window of the bit-sliced paths (four 64-lane blocks).
pub const BLOCK_WINDOW: usize = 256;
/// Frames replayed per window of the arbiter / SRAM / neuron timings.
const LAYER_FRAMES: usize = 16;
/// Tile whose traffic the layer replays use (the input layer).
const REPLAY_TILE: usize = 0;
/// Events the tracer's ring holds; older ones are overwritten.
const TRACE_CAPACITY: usize = 1 << 12;

/// Window `k`'s chunk of `width` frames, rotating over `total` frames.
pub fn chunk(k: usize, width: usize, total: usize) -> Range<usize> {
    let start = (k % (total / width)) * width;
    start..start + width
}

/// Compares one path's results with the sequential reference, frame by
/// frame: prediction, logits, membranes, output spikes and cycles.
pub fn check_results(
    checks: &mut Checks,
    path: &str,
    got: &[InferenceResult],
    want: &[InferenceResult],
    offset: usize,
) {
    checks.check(got.len() == want.len(), || {
        format!("{path}: {} results for {} frames", got.len(), want.len())
    });
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        checks.check(g == w, || format!("{path}: frame {} differs", offset + i));
    }
}

/// Sequential walk with one timer per tile: `Tile::process_frame` layer by
/// layer, exactly the walk `EsamSystem::infer` does. Adds each tile's time
/// to `tile_s` and returns the per-tile cycle counts.
fn timed_walk(
    system: &mut EsamSystem,
    frame: &BitVec,
    tile_s: &mut [f64],
) -> BenchResult<Vec<u64>> {
    let mut cycles = Vec::with_capacity(tile_s.len());
    let mut current: Option<BitVec> = None;
    for (k, spent) in tile_s.iter_mut().enumerate() {
        let input = current.as_ref().unwrap_or(frame);
        let t = Instant::now();
        let (fired, tile_cycles) = system.tile_mut(k).process_frame(input)?;
        *spent += t.elapsed().as_secs_f64();
        cycles.push(tile_cycles);
        current = Some(fired);
    }
    Ok(cycles)
}

/// Frames of one sequential window through `timed_walk`, checking the
/// per-tile cycles against `want`. Returns each tile's microseconds per
/// frame.
pub fn timed_walk_window(
    system: &mut EsamSystem,
    frames: &[BitVec],
    want: &[InferenceResult],
    checks: &mut Checks,
) -> BenchResult<Vec<f64>> {
    let mut tile_s = vec![0.0; system.tiles().len()];
    for (frame, want) in frames.iter().zip(want) {
        let cycles = timed_walk(system, frame, &mut tile_s)?;
        checks.check(cycles == want.per_tile_cycles, || {
            "per-tile walk cycles differ from infer".into()
        });
    }
    let n = frames.len().max(1) as f64;
    Ok(tile_s.iter().map(|s| s / n * 1e6).collect())
}

/// One bit-sliced window through `Tile::step_block`, timed per tile, plus
/// the transpose in and out of a `FrameBlock`. Returns the number of
/// blocks.
fn timed_blocks(
    system: &mut EsamSystem,
    frames: &[BitVec],
    expected: &[InferenceResult],
    block_s: &mut [f64],
    transpose_s: &mut f64,
    checks: &mut Checks,
) -> BenchResult<usize> {
    let tiles = system.tiles().len();
    let classes = system.output_classes();
    let mut blocks = 0;
    for (chunk, want) in frames
        .chunks(FrameBlock::LANES)
        .zip(expected.chunks(FrameBlock::LANES))
    {
        let t = Instant::now();
        let mut block = FrameBlock::from_frames(chunk);
        let back = block.to_frames();
        *transpose_s += t.elapsed().as_secs_f64();
        checks.check(back == chunk, || "FrameBlock round trip lost bits".into());
        let lanes = chunk.len();
        let mut cycles = vec![0u64; lanes];
        let mut membranes = vec![0i32; lanes * classes];
        for (k, spent) in block_s.iter_mut().enumerate().take(tiles) {
            let tile = system.tile_mut(k);
            let mut fired = FrameBlock::new(tile.outputs(), lanes);
            let readout = (k + 1 == tiles).then_some(membranes.as_mut_slice());
            let t = Instant::now();
            tile.step_block(&block, &mut fired, &mut cycles, readout)?;
            *spent += t.elapsed().as_secs_f64();
            block = fired;
        }
        for (lane, w) in want.iter().enumerate() {
            checks.check(
                membranes[lane * classes..(lane + 1) * classes] == w.membranes[..],
                || "step_block membranes differ from infer".into(),
            );
        }
        blocks += 1;
    }
    Ok(blocks)
}

/// Tile-0 traffic of a few frames, recorded once so the arbiter, SRAM and
/// neuron layers can each be replayed on their own.
struct Replay {
    arbiter: MultiPortArbiter,
    /// Per frame, the request register of every row group.
    requests: Vec<Vec<BitVec>>,
    /// Per frame, per cycle, the `(row group, port, row)` grants.
    grants: Vec<Vec<Vec<(usize, usize, usize)>>>,
    /// Per frame, per cycle, the assembled port rows the neurons integrate.
    rows: Vec<Vec<Vec<BitVec>>>,
    /// Per frame, what the replayed tile must end with (from
    /// `SnnModel::forward`): its fired spikes, or the output membranes when
    /// the tile is the readout.
    want: Vec<NeuronOutcome>,
}

#[derive(Debug, Clone, PartialEq)]
enum NeuronOutcome {
    Fired(BitVec),
    Membranes(Vec<i32>),
}

/// One read buffer per column group, each as wide as its arrays.
fn row_buffers(system: &EsamSystem) -> Vec<BitVec> {
    let tile = &system.tiles()[REPLAY_TILE];
    (0..tile.col_groups())
        .map(|cg| BitVec::new(tile.arrays()[cg].config().cols()))
        .collect()
}

fn record_replay(system: &EsamSystem, model: &SnnModel, frames: &[BitVec]) -> BenchResult<Replay> {
    let config = system.config();
    let tile = &system.tiles()[REPLAY_TILE];
    let readout = REPLAY_TILE + 1 == system.tiles().len();
    let structure = match config.arbiter_structure() {
        EncoderStructure::Tree { base_width } if base_width < ARRAY_DIM => {
            EncoderStructure::Tree { base_width }
        }
        _ => EncoderStructure::Flat,
    };
    if !tile.inputs().is_multiple_of(ARRAY_DIM) {
        return Err(format!(
            "the replayed tile has {} inputs, not whole {ARRAY_DIM}-row groups",
            tile.inputs()
        )
        .into());
    }
    let arbiter = MultiPortArbiter::new(ARRAY_DIM, config.grants_per_arbiter(), structure)?;
    let row_groups = tile.row_groups();
    let col_groups = tile.col_groups();
    let mut replay = Replay {
        arbiter,
        requests: Vec::new(),
        grants: Vec::new(),
        rows: Vec::new(),
        want: Vec::new(),
    };
    let mut stats = AccessStats::default();
    let mut buffers = row_buffers(system);
    let mut granted = Vec::new();
    for frame in frames {
        let trace = model.forward(frame)?;
        let input = &trace.spikes[REPLAY_TILE];
        let requests: Vec<BitVec> = (0..row_groups)
            .map(|rg| {
                let mut r = BitVec::new(ARRAY_DIM);
                r.or_window_of(input, rg * ARRAY_DIM);
                r
            })
            .collect();
        let mut pending = requests.clone();
        let (mut frame_grants, mut frame_rows) = (Vec::new(), Vec::new());
        loop {
            let (mut cycle, mut rows) = (Vec::new(), Vec::new());
            for (rg, register) in pending.iter_mut().enumerate() {
                if !register.any() {
                    continue;
                }
                replay.arbiter.arbitrate_into(register, &mut granted);
                for (port, &row) in granted.iter().enumerate() {
                    cycle.push((rg, port, row));
                    let mut full = BitVec::new(tile.outputs());
                    for (cg, buffer) in buffers.iter_mut().enumerate() {
                        tile.arrays()[rg * col_groups + cg]
                            .read_row_counted_into(&mut stats, port, row, buffer)?;
                        full.copy_bits_from(buffer, cg * ARRAY_DIM);
                    }
                    rows.push(full);
                }
            }
            if cycle.is_empty() {
                break;
            }
            frame_grants.push(cycle);
            frame_rows.push(rows);
        }
        replay.requests.push(requests);
        replay.grants.push(frame_grants);
        replay.rows.push(frame_rows);
        replay.want.push(if readout {
            NeuronOutcome::Membranes(trace.membranes.clone())
        } else {
            NeuronOutcome::Fired(trace.spikes[REPLAY_TILE + 1].clone())
        });
    }
    Ok(replay)
}

/// The probe: the workload's network and frames, and every window's
/// per-layer samples.
pub struct LayerProbe {
    system: EsamSystem,
    checked: EsamSystem,
    model: SnnModel,
    frames: Vec<BitVec>,
    expected: Vec<InferenceResult>,
    replay: Replay,
    track: TrackTrace,
    /// Per tile, `(spikes in, active cycles)` summed over every frame.
    counts: Vec<(u64, u64)>,
    checked_reads: u64,
    window: usize,
    walk_us: Vec<f64>,
    scoped_us: Vec<f64>,
    tile_us: Vec<Vec<f64>>,
    block_us: Vec<Vec<f64>>,
    checked_us: Vec<f64>,
    forward_us: Vec<f64>,
    transpose_us: Vec<f64>,
    /// Per-call nanoseconds: arbiter grant, SRAM read, neuron integrate,
    /// checked SRAM read, transposed SRAM write.
    call_ns: [Vec<f64>; 5],
    walk: Windows,
}

impl LayerProbe {
    /// Prepares the probe on `system` (1RW+4R cells), the `model` it was
    /// built from, the workload's `frames` and their sequential results.
    /// Needs at least [`BLOCK_WINDOW`] frames.
    pub fn new(
        system: &EsamSystem,
        model: &SnnModel,
        frames: &[BitVec],
        expected: &[InferenceResult],
    ) -> BenchResult<Self> {
        if frames.len() < BLOCK_WINDOW || frames.len() != expected.len() {
            return Err(format!(
                "the layer probe needs at least {BLOCK_WINDOW} frames with results, got {} and {}",
                frames.len(),
                expected.len()
            )
            .into());
        }
        let mut system = system.clone();
        let mut checked = system.clone();
        checked.set_integrity_mode(IntegrityMode::Correct);
        system.reset_stats();
        for frame in frames {
            system.infer(frame)?;
        }
        let counts = system
            .tiles()
            .iter()
            .map(|t| (t.stats().spikes_in, t.stats().active_cycles))
            .collect();
        checked.reset_stats();
        for (i, frame) in frames.iter().enumerate() {
            checked.infer_checked(frame, i as u64)?;
        }
        let checked_reads = checked.integrity_tally().checked_reads;
        let replay = record_replay(&system, model, &frames[..LAYER_FRAMES])?;
        let tiles = system.tiles().len();
        Ok(Self {
            system,
            checked,
            model: model.clone(),
            frames: frames.to_vec(),
            expected: expected.to_vec(),
            replay,
            track: TrackTrace::new(0, 0, "perfbench", TRACE_CAPACITY),
            counts,
            checked_reads,
            window: 0,
            walk_us: Vec::new(),
            scoped_us: Vec::new(),
            tile_us: vec![Vec::new(); tiles],
            block_us: vec![Vec::new(); tiles],
            checked_us: Vec::new(),
            forward_us: Vec::new(),
            transpose_us: Vec::new(),
            call_ns: Default::default(),
            walk: Windows::default(),
        })
    }

    /// Runs one window of every layer timing, checking every output.
    pub fn window(&mut self, checks: &mut Checks) -> BenchResult<()> {
        let total = self.frames.len();
        let k = self.window;
        self.window += 1;
        let range = chunk(k, SEQ_WINDOW, total);
        let frames = &self.frames[range.clone()];
        let want = &self.expected[range.clone()];
        let n = frames.len() as f64;

        // The walk plain, with the tracer on, and per tile.
        let t = Instant::now();
        for frame in frames {
            self.system.infer(frame)?;
        }
        let seconds = t.elapsed().as_secs_f64();
        self.walk.push(frames.len(), seconds);
        self.walk_us.push(seconds / n * 1e6);
        let mut scoped = Vec::with_capacity(frames.len());
        let t = Instant::now();
        {
            let mut scope = TraceScope::On(&mut self.track);
            for frame in frames {
                scoped.push(self.system.infer_scoped(frame, &mut scope)?);
            }
        }
        self.scoped_us.push(t.elapsed().as_secs_f64() / n * 1e6);
        check_results(checks, "traced walk", &scoped, want, range.start);
        let per_tile = timed_walk_window(&mut self.system, frames, want, checks)?;
        for (acc, us) in self.tile_us.iter_mut().zip(per_tile) {
            acc.push(us);
        }

        // The checked walk and the golden model.
        let t = Instant::now();
        for i in range.clone() {
            self.checked.infer_checked(&self.frames[i], i as u64)?;
        }
        self.checked_us.push(t.elapsed().as_secs_f64() / n * 1e6);
        let t = Instant::now();
        let mut predictions = Vec::with_capacity(frames.len());
        for frame in frames {
            predictions.push(self.model.forward(frame)?.prediction());
        }
        self.forward_us.push(t.elapsed().as_secs_f64() / n * 1e6);
        for (p, w) in predictions.iter().zip(want) {
            checks.check(*p == w.prediction, || "forward prediction differs".into());
        }

        // Bit-sliced tiles on 64-lane blocks.
        let range = chunk(k, BLOCK_WINDOW, total);
        let mut block_s = vec![0.0; self.block_us.len()];
        let mut transpose_s = 0.0;
        let blocks = timed_blocks(
            &mut self.system,
            &self.frames[range.clone()],
            &self.expected[range],
            &mut block_s,
            &mut transpose_s,
            checks,
        )? as f64;
        for (acc, s) in self.block_us.iter_mut().zip(&block_s) {
            acc.push(s / blocks * 1e6);
        }
        self.transpose_us.push(transpose_s / blocks * 1e6);

        // Arbiter, SRAM and neuron layers replayed on tile-0 traffic.
        let per_call = self.replay_window(checks)?;
        for (acc, s) in self.call_ns.iter_mut().zip(per_call) {
            acc.push(s * 1e9);
        }
        Ok(())
    }

    /// Per-call seconds over one replay window: arbiter grant, SRAM read,
    /// neuron integrate, checked SRAM read, transposed SRAM write.
    fn replay_window(&self, checks: &mut Checks) -> BenchResult<[f64; 5]> {
        let replay = &self.replay;
        // Arbiter: drain every request register, one `arbitrate_into` per
        // grant cycle.
        let mut pending = replay.requests.clone();
        let mut granted = Vec::with_capacity(replay.arbiter.ports());
        let mut calls = 0usize;
        let t = Instant::now();
        for registers in &mut pending {
            for register in registers.iter_mut() {
                while register.any() {
                    replay.arbiter.arbitrate_into(register, &mut granted);
                    calls += 1;
                }
            }
        }
        let arbiter = t.elapsed().as_secs_f64() / calls.max(1) as f64;

        // SRAM: every granted row of every column group, unchecked and
        // checked (SECDED under Correct).
        let plain = &self.system.tiles()[REPLAY_TILE];
        let protected = &self.checked.tiles()[REPLAY_TILE];
        let col_groups = plain.col_groups();
        let mut stats = AccessStats::default();
        let mut tally = IntegrityTally::default();
        let mut buffers = row_buffers(&self.system);
        let mut reads = 0usize;
        let t = Instant::now();
        for (rg, port, row) in replay.grants.iter().flatten().flatten().copied() {
            for (cg, dst) in buffers.iter_mut().enumerate() {
                plain.arrays()[rg * col_groups + cg]
                    .read_row_counted_into(&mut stats, port, row, dst)?;
                reads += 1;
            }
        }
        let sram = t.elapsed().as_secs_f64() / reads.max(1) as f64;
        let mut clean = true;
        let t = Instant::now();
        for (rg, port, row) in replay.grants.iter().flatten().flatten().copied() {
            for (cg, dst) in buffers.iter_mut().enumerate() {
                let verdict = protected.arrays()[rg * col_groups + cg].read_row_checked_into(
                    &mut stats,
                    &mut tally,
                    IntegrityMode::Correct,
                    port,
                    row,
                    dst,
                )?;
                clean &= verdict == RowVerdict::Clean;
            }
        }
        let checked = t.elapsed().as_secs_f64() / reads.max(1) as f64;
        checks.check(clean && tally.checked_reads == reads as u64, || {
            "checked replay reads were not all syndrome-checked and clean".into()
        });

        // Neurons: integrate every cycle's port rows, then compare with
        // the golden model.
        let mut neurons = plain.neurons().clone();
        let valid = vec![true; plain.max_spikes_per_cycle()];
        let (mut spent, mut calls) = (0.0, 0usize);
        for (frame_rows, want) in replay.rows.iter().zip(&replay.want) {
            neurons.reset();
            let t = Instant::now();
            for rows in frame_rows {
                neurons.integrate(rows, &valid[..rows.len()]);
            }
            spent += t.elapsed().as_secs_f64();
            calls += frame_rows.len();
            let got = match want {
                NeuronOutcome::Membranes(_) => {
                    NeuronOutcome::Membranes(neurons.membranes().to_vec())
                }
                NeuronOutcome::Fired(_) => NeuronOutcome::Fired(neurons.end_timestep()),
            };
            checks.check(&got == want, || {
                "replayed neuron integration differs from SnnModel::forward".into()
            });
        }
        let neuron = spent / calls.max(1) as f64;

        // Transposed writes: every column of a copy of one tile-0 array,
        // written inverted and back.
        let mut array = plain.arrays()[0].clone();
        let mut columns = Vec::with_capacity(array.config().cols());
        for col in 0..array.config().cols() {
            let column = array.transposed_read(col)?;
            let mut inverted = column.clone();
            for row in 0..inverted.len() {
                inverted.set(row, !column.get(row));
            }
            columns.push((column, inverted));
        }
        let t = Instant::now();
        for (col, (column, inverted)) in columns.iter().enumerate() {
            array.transposed_write(col, inverted)?;
            array.transposed_write(col, column)?;
        }
        let write = t.elapsed().as_secs_f64() / (2 * columns.len()).max(1) as f64;
        for (col, (column, _)) in columns.iter().enumerate() {
            checks.check(&array.transposed_read(col)? == column, || {
                "transposed write did not store its column".into()
            });
        }
        Ok([arbiter, sram, neuron, checked, write])
    }

    /// Reports every per-layer metric (medians over the windows), and the
    /// per-tile figures beyond tile 0 as details.
    pub fn report(self, outcome: &mut Outcome) {
        let frames = self.frames.len() as f64;
        let [arbiter_ns, read_ns, integrate_ns, checked_read_ns, write_ns] = &self.call_ns;
        outcome.host(
            "bits.transpose_us_per_block",
            median(&self.transpose_us),
            "us",
        );
        outcome.host("arbiter.grant_ns", median(arbiter_ns), "ns");
        outcome.host("sram.read_ns", median(read_ns), "ns");
        outcome.host("sram.checked_read_ns", median(checked_read_ns), "ns");
        outcome.exact(
            "sram.checked_reads_per_frame",
            self.checked_reads as f64 / frames,
            "count",
        );
        outcome.host("sram.transposed_write_ns", median(write_ns), "ns");
        outcome.host("neuron.integrate_ns", median(integrate_ns), "ns");

        let tile_seq: Vec<f64> = self.tile_us.iter().map(|v| median(v)).collect();
        let tile_block: Vec<f64> = self.block_us.iter().map(|v| median(v)).collect();
        for (t, &(spikes, active)) in self.counts.iter().enumerate() {
            let figures = [
                ("seq_us", tile_seq[t], "us", false),
                ("block_us", tile_block[t], "us", false),
                ("spikes_in", spikes as f64 / frames, "count", true),
                ("active_cycles", active as f64 / frames, "count", true),
            ];
            for (name, value, unit, exact) in figures {
                let name = format!("core.tile{t}.{name}");
                match (t == 0, exact) {
                    (true, true) => outcome.exact(name, value, unit),
                    (true, false) => outcome.host(name, value, unit),
                    (false, _) => outcome.detail(name, value, unit, exact),
                }
            }
        }
        let spikes: u64 = self.counts.iter().map(|c| c.0).sum();
        let active: u64 = self.counts.iter().map(|c| c.1).sum();
        outcome.host("core.tiles.seq_us", tile_seq.iter().sum(), "us");
        outcome.host("core.tiles.block_us", tile_block.iter().sum(), "us");
        outcome.exact("core.tiles.spikes_in", spikes as f64 / frames, "count");
        outcome.exact("core.tiles.active_cycles", active as f64 / frames, "count");

        let walk_us = median(&self.walk_us);
        let closure = tile_seq.iter().sum::<f64>() / walk_us;
        outcome.host("core.walk_us", walk_us, "us");
        outcome.host("core.checked_us", median(&self.checked_us), "us");
        outcome.host("core.closure_share", closure, "1");
        if closure < 0.9 {
            outcome.notes.push(format!(
                "CLOSURE GAP: per-tile times explain only {:.1}% of the walk",
                closure * 100.0
            ));
        }
        outcome.host("nn.forward_us", median(&self.forward_us), "us");
        outcome.host(
            "trace.overhead_share",
            median(&self.scoped_us) / walk_us - 1.0,
            "1",
        );
        outcome.windows.push(("core.walk".into(), self.walk));
    }
}
