//! `paper-flow`: the paper's offline flow on the trained 768:256:256:256:10
//! network with 1RW+4R cells.
//!
//! Set-up generates the digit set, trains the BNN on the quick budget and
//! converts it, so `setup_s` is the flow's time to first simulated frame.
//! The timed section interleaves five paths window by window: one-epoch
//! training on a fixed slice, sequential `infer`, bit-sliced `infer_block`,
//! `infer_checked` under SECDED correction, and a `MeshSystem` with one core
//! per CPU. The same test frames also run on a 1RW system for the modeled
//! gains. The traced run adds the 1RW closure and the mesh to the shared
//! layer probe.

use std::time::{Duration, Instant};

use esam_bits::{BitVec, FrameBlock};
use esam_core::{EsamSystem, InferenceResult, IntegrityMode, SystemConfig, SystemMetrics};
use esam_mesh::{Execution, MeshConfig, MeshSystem};
use esam_nn::{BnnNetwork, Dataset, DigitsConfig, SnnModel, Split, TrainConfig, Trainer};
use esam_sram::BitcellKind;
use esam_tech::calibration::paper;

use crate::layers::{
    check_results, chunk, timed_walk_window, LayerProbe, BLOCK_WINDOW, SEQ_WINDOW,
};
use crate::stats::{median, Outcome, Windows};
use crate::{nproc, BenchResult, RunConfig};

/// Seed of the training set, the initial weights and the shuffling: the
/// trained network is the same in every run, and `--seed` picks the
/// held-out frames it is evaluated and simulated on.
const MODEL_SEED: u64 = 7;
/// Training samples of the quick budget.
const TRAIN_COUNT: usize = 1200;
/// Held-out test samples: the frames every simulation path runs.
const TEST_COUNT: usize = 1000;
/// Epochs of the quick budget.
const EPOCHS: usize = 5;
/// Samples of the fixed slice each training window trains one epoch on.
const TRAIN_SLICE: usize = 64;

/// Everything set-up builds.
struct Flow {
    seeded: BnnNetwork,
    model: SnnModel,
    train: Split,
    test: Split,
    frames: Vec<BitVec>,
    sys4: EsamSystem,
    sys1: EsamSystem,
    checked: EsamSystem,
    mesh: MeshSystem,
}

/// Wall time of each set-up stage, seconds.
#[derive(Debug, Clone, Copy)]
struct StageTimes {
    dataset: f64,
    train: f64,
    convert: f64,
    total: f64,
}

fn train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        seed: MODEL_SEED.wrapping_add(11),
        ..TrainConfig::default()
    }
}

fn prepare(seed: u64) -> BenchResult<(Flow, StageTimes)> {
    let start = Instant::now();
    let digits = |train_count, test_count, seed| {
        Dataset::generate(&DigitsConfig {
            train_count,
            test_count,
            seed,
            ..DigitsConfig::default()
        })
    };
    let train = digits(TRAIN_COUNT, 1, MODEL_SEED)?.train;
    let test = digits(1, TEST_COUNT, seed)?.test;
    let dataset_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let seeded = BnnNetwork::new(&paper::NETWORK_TOPOLOGY, MODEL_SEED.wrapping_add(42))?;
    let mut network = seeded.clone();
    Trainer::new(train_config(EPOCHS)).train(&mut network, &train)?;
    let train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = SnnModel::from_bnn(&network)?;
    let convert_s = t.elapsed().as_secs_f64();
    let frames: Vec<BitVec> = (0..test.len()).map(|i| test.spikes(i)).collect();
    let sys4 = EsamSystem::from_model(
        &model,
        &SystemConfig::paper_default(BitcellKind::multiport(4)?),
    )?;
    let sys1 = EsamSystem::from_model(&model, &SystemConfig::paper_default(BitcellKind::Std6T))?;
    let mut checked = sys4.clone();
    checked.set_integrity_mode(IntegrityMode::Correct);
    let mesh = MeshSystem::from_model(&model, sys4.config(), &mesh_config(Execution::Pipelined))?;
    let total = start.elapsed().as_secs_f64();
    let times = StageTimes {
        dataset: dataset_s,
        train: train_s,
        convert: convert_s,
        total,
    };
    Ok((
        Flow {
            seeded,
            model,
            train,
            test,
            frames,
            sys4,
            sys1,
            checked,
            mesh,
        },
        times,
    ))
}

fn mesh_config(execution: Execution) -> MeshConfig {
    MeshConfig::with_cores(nproc().clamp(1, 8)).execution(execution)
}

/// Runs `paper-flow`.
pub fn run(config: &RunConfig) -> BenchResult<Outcome> {
    let mut outcome = Outcome::default();
    let mut reps: Vec<StageTimes> = Vec::new();
    let mut flow: Option<Flow> = None;
    while config.another_setup(
        reps.len(),
        Duration::from_secs_f64(reps.iter().map(|r| r.total).sum()),
    ) {
        let (next, times) = prepare(config.seed)?;
        if let Some(first) = &flow {
            outcome.checks.check(next.model == first.model, || {
                "repeated set-up trained a different network".into()
            });
        }
        flow = Some(next);
        reps.push(times);
    }
    let mut flow = flow.expect("at least one set-up ran");
    let stage = |f: fn(&StageTimes) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let total = flow.frames.len();

    // Reference pass: every path against the sequential walk, and the
    // sequential walk against the golden `SnnModel::forward`.
    let expected: Vec<InferenceResult> = flow
        .frames
        .iter()
        .map(|f| flow.sys4.infer(f))
        .collect::<Result<_, _>>()?;
    for (i, (frame, want)) in flow.frames.iter().zip(&expected).enumerate() {
        let golden = flow.model.forward(frame)?;
        outcome.checks.check(
            golden.prediction() == want.prediction
                && golden.logits == want.logits
                && golden.membranes == want.membranes,
            || format!("sequential frame {i} differs from SnnModel::forward"),
        );
    }
    let block = flow.sys4.infer_block(&flow.frames)?;
    check_results(&mut outcome.checks, "block", &block, &expected, 0);
    let checked: Vec<InferenceResult> = (0..total)
        .map(|i| flow.checked.infer_checked(&flow.frames[i], i as u64))
        .collect::<Result<_, _>>()?;
    check_results(&mut outcome.checks, "checked", &checked, &expected, 0);
    let meshed = flow.mesh.run(&flow.frames)?;
    check_results(&mut outcome.checks, "mesh", &meshed, &expected, 0);
    for (i, (frame, want)) in flow.frames.iter().zip(&expected).enumerate() {
        let got = flow.sys1.infer(frame)?;
        outcome.checks.check(
            got.prediction == want.prediction
                && got.logits == want.logits
                && got.membranes == want.membranes,
            || format!("1RW frame {i} differs from 1RW+4R"),
        );
    }

    // Modeled silicon: deterministic for a seed.
    let m4 = flow.sys4.measure_batch(&flow.frames)?;
    let m4_sliced = flow.sys4.measure_batch_bitsliced(&flow.frames)?;
    outcome.checks.check(m4 == m4_sliced, || {
        "measure_batch and measure_batch_bitsliced disagree".into()
    });
    let m1 = flow.sys1.measure_batch(&flow.frames)?;
    let correct = expected
        .iter()
        .enumerate()
        .filter(|(i, r)| r.prediction == flow.test.label(*i) as usize)
        .count();
    let accuracy = correct as f64 / total as f64;

    if config.trace {
        traced(config, &mut flow, &expected, &mut outcome)?;
        outcome.detail("nn.dataset_s", stage(|s| s.dataset), "s", false);
        outcome.detail("nn.train_full_s", stage(|s| s.train), "s", false);
        outcome.detail("nn.convert_ms", stage(|s| s.convert) * 1e3, "ms", false);
    } else {
        outcome.host("setup_s", stage(|s| s.total), "s");
        untraced(config, &mut flow, &expected, &mut outcome)?;
        model_metrics(&mut outcome, &m4, &m1);
        outcome.detail("accuracy", accuracy, "fraction", true);
    }
    outcome.notes.insert(
        0,
        format!(
            "paper-flow: seed {}, {} test frames, quick budget ({TRAIN_COUNT} samples x {EPOCHS} epochs), mesh of {} cores, set-up repeated {} times",
            config.seed,
            total,
            flow.mesh.core_count(),
            reps.len()
        ),
    );
    Ok(outcome)
}

/// The modeled metrics (the gains of 1RW+4R over 1RW as details), and
/// beside them the paper's values with the
/// signed error.
fn model_metrics(outcome: &mut Outcome, m4: &SystemMetrics, m1: &SystemMetrics) {
    let minf = m4.throughput_minf_s();
    let pj = m4.energy_per_inf.pj();
    let mw = m4.total_power().mw();
    let speedup = m4.throughput_inf_s / m1.throughput_inf_s;
    let energy_gain = m1.energy_per_inf.pj() / pj;
    outcome.exact("model_minf_per_s", minf, "MInf/s");
    outcome.exact("model_pj_per_inf", pj, "pJ");
    outcome.detail("model_mw", mw, "mW", true);
    outcome.detail("model_speedup_x", speedup, "x", true);
    outcome.detail("model_energy_gain_x", energy_gain, "x", true);
    outcome.notes.push(
        "paper reference -- a calibration residual, not a validation: the energy constants of esam_tech::calibration::paper were fitted to 607/1335 pJ".into(),
    );
    for (name, ours, theirs) in [
        (
            "model_minf_per_s",
            minf,
            paper::SYSTEM_THROUGHPUT_INF_S / 1e6,
        ),
        ("model_pj_per_inf", pj, paper::SYSTEM_ENERGY_PER_INF_PJ),
        ("model_mw", mw, paper::SYSTEM_POWER_MW),
        ("model_speedup_x", speedup, paper::HEADLINE_SPEEDUP),
        (
            "model_energy_gain_x",
            energy_gain,
            paper::HEADLINE_ENERGY_GAIN,
        ),
    ] {
        outcome.notes.push(format!(
            "  {name:<22} ours {ours:>10.3}  paper {theirs:>8.1}  residual {:+.1}%",
            (ours / theirs - 1.0) * 100.0
        ));
    }
}

/// The end-to-end run: five paths, one window each per round, for the
/// whole measured time. `ops_per_s` is the rate of each round's frames
/// through the four simulation paths; `latency_ms` the time per frame of
/// the sequential walk and `batch_latency_ms` the time per full 64-frame
/// block of the bit-sliced path, both at the reported window rate.
fn untraced(
    config: &RunConfig,
    flow: &mut Flow,
    expected: &[InferenceResult],
    outcome: &mut Outcome,
) -> BenchResult<()> {
    let slice = Split::from_parts(
        (0..TRAIN_SLICE)
            .map(|i| flow.train.image(i).to_vec())
            .collect(),
        (0..TRAIN_SLICE).map(|i| flow.train.label(i)).collect(),
    );
    let trainer = Trainer::new(train_config(1));
    let mut reference_epoch = flow.seeded.clone();
    trainer.train(&mut reference_epoch, &slice)?;

    let total = flow.frames.len();
    let (mut train, mut seq, mut block) =
        (Windows::default(), Windows::default(), Windows::default());
    let (mut checked, mut mesh, mut round) =
        (Windows::default(), Windows::default(), Windows::default());
    let mut out: Vec<InferenceResult> = Vec::with_capacity(BLOCK_WINDOW);
    let deadline = Instant::now() + config.measure;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let checks = &mut outcome.checks;

        let mut net = flow.seeded.clone();
        let t = Instant::now();
        trainer.train(&mut net, &slice)?;
        train.push(TRAIN_SLICE, t.elapsed().as_secs_f64());
        checks.check(net == reference_epoch, || {
            format!("training window {k} trained a different network")
        });

        let (mut round_frames, mut round_s) = (0, 0.0);
        let range = chunk(k, SEQ_WINDOW, total);
        out.clear();
        let t = Instant::now();
        for frame in &flow.frames[range.clone()] {
            out.push(flow.sys4.infer(frame)?);
        }
        let seconds = t.elapsed().as_secs_f64();
        seq.push(range.len(), seconds);
        round_frames += range.len();
        round_s += seconds;
        check_results(checks, "seq", &out, &expected[range.clone()], range.start);

        let range = chunk(k, BLOCK_WINDOW, total);
        let t = Instant::now();
        let got = flow.sys4.infer_block(&flow.frames[range.clone()])?;
        let seconds = t.elapsed().as_secs_f64();
        block.push(range.len(), seconds);
        round_frames += range.len();
        round_s += seconds;
        check_results(checks, "block", &got, &expected[range.clone()], range.start);

        let range = chunk(k, SEQ_WINDOW, total);
        out.clear();
        let t = Instant::now();
        for i in range.clone() {
            out.push(flow.checked.infer_checked(&flow.frames[i], i as u64)?);
        }
        let seconds = t.elapsed().as_secs_f64();
        checked.push(range.len(), seconds);
        round_frames += range.len();
        round_s += seconds;
        check_results(
            checks,
            "checked",
            &out,
            &expected[range.clone()],
            range.start,
        );

        let range = chunk(k, BLOCK_WINDOW, total);
        let t = Instant::now();
        let got = flow.mesh.run(&flow.frames[range.clone()])?;
        let seconds = t.elapsed().as_secs_f64();
        mesh.push(range.len(), seconds);
        round.push(round_frames + range.len(), round_s + seconds);
        check_results(checks, "mesh", &got, &expected[range.clone()], range.start);

        k += 1;
    }
    outcome.rate("ops_per_s", round, "1/s");
    outcome.host("latency_ms", 1e3 / seq.rate(), "ms");
    outcome.host(
        "batch_latency_ms",
        FrameBlock::LANES as f64 * 1e3 / block.rate(),
        "ms",
    );
    outcome.rate_detail("train_sps", train, "samples/s");
    outcome.rate_detail("seq_fps", seq, "frames/s");
    outcome.rate_detail("block_fps", block, "frames/s");
    outcome.rate_detail("checked_fps", checked, "frames/s");
    outcome.rate_detail("mesh_fps", mesh, "frames/s");
    Ok(())
}

/// The per-layer run: the shared layer probe, and beside it, window by
/// window, the 1RW walk per tile and the mesh pipelined and sequential.
fn traced(
    config: &RunConfig,
    flow: &mut Flow,
    expected: &[InferenceResult],
    outcome: &mut Outcome,
) -> BenchResult<()> {
    let total = flow.frames.len();
    let mut probe = LayerProbe::new(&flow.sys4, &flow.model, &flow.frames, expected)?;
    let mesh_metrics = flow.mesh.measure(&flow.frames)?;
    let link_cycles: u64 = mesh_metrics
        .links
        .iter()
        .map(|l| l.hop_cycles + l.serialize_cycles + l.crc_cycles)
        .sum();
    let expected_1rw: Vec<InferenceResult> = flow
        .frames
        .iter()
        .map(|f| flow.sys1.infer(f))
        .collect::<Result<_, _>>()?;
    let mut mesh_seq = MeshSystem::from_model(
        &flow.model,
        flow.sys4.config(),
        &mesh_config(Execution::Sequential),
    )?;

    let (mut walk_1rw_us, mut tile_1rw_us) = (Vec::new(), Vec::new());
    let (mut pipelined_us, mut sequential_us) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + config.measure;
    let mut k = 0usize;
    while Instant::now() < deadline {
        probe.window(&mut outcome.checks)?;
        let checks = &mut outcome.checks;

        let range = chunk(k, SEQ_WINDOW, total);
        let frames = &flow.frames[range.clone()];
        let t = Instant::now();
        for frame in frames {
            flow.sys1.infer(frame)?;
        }
        walk_1rw_us.push(t.elapsed().as_secs_f64() / frames.len() as f64 * 1e6);
        let per_tile = timed_walk_window(&mut flow.sys1, frames, &expected_1rw[range], checks)?;
        tile_1rw_us.push(per_tile.iter().sum::<f64>());

        let range = chunk(k, BLOCK_WINDOW, total);
        let frames = &flow.frames[range.clone()];
        for (mesh, acc) in [
            (&mut flow.mesh, &mut pipelined_us),
            (&mut mesh_seq, &mut sequential_us),
        ] {
            let t = Instant::now();
            let got = mesh.run(frames)?;
            acc.push(t.elapsed().as_secs_f64() / frames.len() as f64 * 1e6);
            check_results(checks, "mesh", &got, &expected[range.clone()], range.start);
        }
        k += 1;
    }
    probe.report(outcome);

    let closure_1rw = median(&tile_1rw_us) / median(&walk_1rw_us);
    outcome.detail("core.1rw.closure_share", closure_1rw, "1", false);
    if closure_1rw < 0.9 {
        outcome.notes.push(format!(
            "CLOSURE GAP on 1RW: per-tile times explain only {:.1}% of the walk",
            closure_1rw * 100.0
        ));
    }
    let frames = total as f64;
    outcome.detail("mesh.pipelined_us", median(&pipelined_us), "us", false);
    outcome.detail("mesh.sequential_us", median(&sequential_us), "us", false);
    outcome.detail(
        "mesh.link_cycles_per_frame",
        link_cycles as f64 / frames,
        "cycles",
        true,
    );
    outcome.detail(
        "mesh.bottleneck_cycles",
        mesh_metrics.mesh_bottleneck_cycles,
        "cycles",
        true,
    );
    Ok(())
}
