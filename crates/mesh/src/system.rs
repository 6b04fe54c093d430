//! The mesh engine: sharded cores, inter-core spike traffic, pipelined
//! execution and mesh-level measurement.
//!
//! # Dataflow
//!
//! A [`MeshSystem`] instantiates one [`MeshCore`] per shard of its
//! [`MeshPlan`] and wires consecutive stages with a complete bipartite set
//! of directed edges: every shard of stage *s* sends its output slice to
//! every shard of stage *s+1* (a consumer needs the *whole* previous layer
//! as input even when producers are column-split). A synthetic feeder edge
//! delivers network input to stage 0 and a sink edge collects the readout
//! stage — neither models interconnect cost.
//!
//! # Cycle accounting
//!
//! Packets carry two accumulators in the same cycle domain as
//! [`PipelineTiming`]:
//!
//! * `noc_latency` — interconnect cycles on the critical path so far: at
//!   each consumer, `max` over in-edges of (packet's `noc_latency` + that
//!   edge's hop + serialization cycles).
//! * `pipe_max` — the slowest pipeline *station* seen so far: running
//!   `max` over every traversed core's occupancy (the sum of its tiles'
//!   serve cycles for this frame) and every traversed link's cycles.
//!
//! Because stage boundaries are complete bipartite, every core and link
//! value reaches the sink, where the per-frame mesh bottleneck
//! (`max` over readout shards' `pipe_max`) and NoC latency fold into a
//! [`MeshTally`] as plain `u64` sums — the same exact merge law the
//! single-core batch engine uses.
//!
//! # Equivalence contract
//!
//! [`Execution::Pipelined`] and [`Execution::Sequential`] run the *same*
//! per-core handler over the same packets — only the scheduling differs —
//! so they are bit-identical in results, tallies and every counter.
//! Against the plain single-core [`EsamSystem`](esam_core::EsamSystem),
//! outputs (predictions, logits, membranes, output spikes, per-tile
//! cycles) are always identical; tile counters additionally match
//! tile-for-tile whenever the plan is layer-granular (column-split shards
//! own private arbiters, so arbiter-side counters physically duplicate
//! per shard while per-array access counters partition exactly). The
//! `mesh_equivalence` battery pins all of this.
//!
//! # Resilience
//!
//! A [`FaultPlan`] installed via [`MeshConfig::faults`] injects
//! deterministic link faults (packet drops and delays, keyed on
//! `(hand-off, src, dst)`), core stalls (extra occupancy cycles) and —
//! under [`Execution::Pipelined`] only — core panics that kill a pipeline
//! thread mid-batch. Every hazard degrades gracefully instead of failing
//! the run: a dropped packet turns the frame into a `Packet::Lost`
//! marker that traverses the mesh in lockstep and sinks as a gap; a
//! panicking core is contained by `catch_unwind` so every thread still
//! joins; and after the pipeline winds down, all missing frames are re-run
//! on a fault-exempt sequential recovery pass — so [`MeshSystem::run`]
//! always returns exact results for the full batch. The injected-fault
//! counters land in [`MeshTally`] under the same exact u64 merge law as
//! everything else.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

use esam_bits::{BitVec, FrameBlock};
use esam_core::cascade::{block_eligible, walk_block, walk_frame};
use esam_core::{CoreError, InferenceResult, PipelineTiming, SystemConfig, SystemMetrics, Tile};
use esam_fault::FaultPlan;
use esam_nn::SnnModel;
use esam_obs::{Trace, TrackTrace, NO_ARGS};

use crate::config::{Execution, LinkConfig, MeshConfig, PayloadMode};
use crate::core::MeshCore;
use crate::crc::crc32_words;
use crate::metrics::{MeshMetrics, MeshTally};
use crate::noc::LinkStats;
use crate::plan::MeshPlan;
use crate::spsc::{channel, Receiver, RecvTimeout, Sender};

/// Locks a mutex, recovering the guard when a panicking thread poisoned
/// it (the guarded values here — error lists, counters — are valid at
/// every instant they could have been abandoned).
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One spike hand-off between pipeline stations.
#[derive(Debug, Clone)]
enum Packet {
    /// A single spike frame.
    Frame(FramePacket),
    /// A batch-major block of up to 64 frames.
    Block(BlockPacket),
    /// The frame was lost to an injected link fault somewhere upstream.
    /// The marker still traverses every edge so the pipeline stays in
    /// lockstep; it charges no link or tile cycles and sinks as a gap for
    /// the recovery pass to fill.
    Lost,
}

#[derive(Debug, Clone)]
struct FramePacket {
    /// The producing core's output slice.
    slice: BitVec,
    /// Per-layer serve cycles accumulated from the cascade start.
    cycles: Vec<u64>,
    /// Readout membranes (output-stage producers only).
    membranes: Vec<i32>,
    /// Critical-path interconnect cycles so far.
    noc_latency: u64,
    /// Slowest pipeline station (core occupancy or link) so far.
    pipe_max: u64,
    /// CRC-32 of `slice`'s packed words, computed by the producer when
    /// the checksum protocol is armed ([`FaultPlan::corrupt_active`]);
    /// zero otherwise, so the clean path never pays for it.
    crc: u32,
}

/// Retransmissions a consumer may NACK per hand-off and edge before it
/// declares the frame lost (it then sinks as a gap for the fault-exempt
/// recovery pass, like a dropped packet).
pub const MAX_RETRANSMITS: u64 = 3;

/// Pure mirror of the consumer's CRC verify + NACK/retransmit attempt
/// loop: replays the [`FaultPlan::packet_corrupt`] verdicts for the
/// `t`-th hand-off on edge `src → dst` and returns `(extra link cycles,
/// corrupted attempts, retransmissions issued, frame lost)`. The traced
/// walk uses it to reproduce the handler's charge arithmetic without
/// touching link state.
fn mirror_corrupt(
    faults: &FaultPlan,
    t: u64,
    src: u64,
    dst: u64,
    hop: u64,
    serialize: u64,
) -> (u64, u64, u64, bool) {
    if !faults.corrupt_active() {
        return (0, 0, 0, false);
    }
    let (mut cost, mut corrupted, mut retransmits) = (0u64, 0u64, 0u64);
    let mut attempt = 0u64;
    loop {
        cost += LinkStats::CRC_CHECK_CYCLES;
        if faults.packet_corrupt(t, src, dst, attempt).is_none() {
            return (cost, corrupted, retransmits, false);
        }
        corrupted += 1;
        if attempt == MAX_RETRANSMITS {
            return (cost, corrupted, retransmits, true);
        }
        cost += 2 * hop + serialize;
        retransmits += 1;
        attempt += 1;
    }
}

#[derive(Debug, Clone)]
struct BlockPacket {
    /// The producing core's output slice, batch-major.
    slice: FrameBlock,
    /// `cycles[layer][lane]`: per-layer serve cycles from cascade start.
    cycles: Vec<Vec<u64>>,
    /// Readout membranes, `[lane * slice_width + neuron]` (output stage
    /// only).
    membranes: Vec<i32>,
    /// Per-lane critical-path interconnect cycles.
    noc_latency: Vec<u64>,
    /// Per-lane slowest pipeline station.
    pipe_max: Vec<u64>,
}

/// A consumer-side input port: where the producer's slice lands in this
/// core's input frame, and the link it travels (None across the synthetic
/// feeder boundary).
#[derive(Debug, Clone)]
struct InPort {
    offset: usize,
    link: Option<LinkStats>,
}

/// A core plus its consumer-side interconnect state. `handle` is the
/// single handler both execution modes invoke — bit-identity between them
/// holds by construction: fault decisions are keyed on the slot's own
/// hand-off counter, which advances identically under either scheduling.
#[derive(Debug, Clone)]
struct CoreSlot {
    core: MeshCore,
    ports: Vec<InPort>,
    link: LinkConfig,
    faults: FaultPlan,
    /// Hand-offs consumed since the last stats reset — the `t` coordinate
    /// of every fault decision at this core. Lost frames count too (the
    /// hand-off happened), fault-exempt recovery walks do not.
    hand_offs: u64,
    /// Per-run injected-fault scratch counters, drained into the run's
    /// [`MeshTally`] when it completes.
    dropped: u64,
    delayed: u64,
    stalls: u64,
    corrupted: u64,
    retransmits: u64,
}

impl CoreSlot {
    /// Serves one hand-off. `exempt` marks the recovery path: no fault
    /// decisions are made and the hand-off counter does not advance, so a
    /// recovered frame is the exact unfaulted computation.
    fn handle(&mut self, inputs: &[Packet], exempt: bool) -> Result<Packet, CoreError> {
        debug_assert_eq!(inputs.len(), self.ports.len());
        let t = self.hand_offs;
        if !exempt {
            self.hand_offs += 1;
        }
        if inputs.iter().any(|packet| matches!(packet, Packet::Lost)) {
            // An upstream loss already doomed this frame: consume the
            // hand-off and propagate the marker (lockstep) without any
            // tile work or link charges.
            return Ok(Packet::Lost);
        }
        match inputs.first() {
            Some(Packet::Frame(_)) => self.handle_frame(inputs, exempt, t),
            Some(Packet::Block(_)) | Some(Packet::Lost) => self.handle_block(inputs),
            None => Err(CoreError::InvalidConfig(
                "a mesh core received an empty hand-off".into(),
            )),
        }
    }

    fn handle_frame(
        &mut self,
        inputs: &[Packet],
        exempt: bool,
        t: u64,
    ) -> Result<Packet, CoreError> {
        let faults = self.faults;
        let mut packets = Vec::with_capacity(inputs.len());
        for packet in inputs {
            let Packet::Frame(packet) = packet else {
                return Err(CoreError::InvalidConfig(
                    "mixed payload kinds in one mesh run".into(),
                ));
            };
            packets.push(packet);
        }
        debug_assert!(
            packets.windows(2).all(|w| w[0].cycles == w[1].cycles),
            "upstream cycle chains diverged across shards"
        );
        // Consumer-side drop verdicts, one per real in-edge (the synthetic
        // feeder edge never faults). Any hit dooms the whole frame at this
        // core: the transaction aborts, so nothing is charged.
        if !exempt && faults.mesh_active() {
            let mut lost = false;
            for port in &self.ports {
                if let Some(stats) = &port.link {
                    if faults.packet_drop(t, stats.src as u64, stats.dst as u64) {
                        self.dropped += 1;
                        lost = true;
                    }
                }
            }
            if lost {
                return Ok(Packet::Lost);
            }
        }
        let link = self.link;
        let armed = !exempt && faults.corrupt_active();
        let mut noc_in = 0u64;
        let mut pipe_in = 0u64;
        let (mut corrupted, mut retransmits) = (0u64, 0u64);
        let mut lost = false;
        for (port, packet) in self.ports.iter_mut().zip(&packets) {
            let events = packet.slice.count_ones() as u64;
            let mut cost = match port.link.as_mut() {
                Some(stats) => stats.charge(&link, events),
                None => 0,
            };
            if armed {
                if let Some(stats) = port.link.as_mut() {
                    // CRC verify + NACK/retransmit protocol: every
                    // received transmission attempt is checked by the
                    // *real* CRC comparison — an injected upset strikes a
                    // local copy of the in-flight payload and detection is
                    // computed, never assumed. A mismatch NACKs the
                    // attempt and re-charges the edge; exhausting the
                    // retry budget loses the frame like a drop.
                    let (src, dst) = (stats.src as u64, stats.dst as u64);
                    let mut attempt = 0u64;
                    loop {
                        cost += stats.charge_crc();
                        let received_crc = match faults.packet_corrupt(t, src, dst, attempt) {
                            None => crc32_words(packet.slice.words()),
                            Some(selector) => {
                                let mut words = packet.slice.words().to_vec();
                                let bit = (selector % packet.slice.len().max(1) as u64) as usize;
                                words[bit / 64] ^= 1u64 << (bit % 64);
                                let got = crc32_words(&words);
                                // CRC-32 catches every single-bit error;
                                // a miss here would mean the consumer is
                                // about to eat wrong data — abort loudly
                                // instead of masking it.
                                assert_ne!(
                                    got, packet.crc,
                                    "CRC-32 must flag a single-bit in-flight upset"
                                );
                                got
                            }
                        };
                        if received_crc == packet.crc {
                            // Verified clean — consume.
                            break;
                        }
                        corrupted += 1;
                        if attempt == MAX_RETRANSMITS {
                            lost = true;
                            break;
                        }
                        cost += stats.charge_retransmit(&link, events);
                        retransmits += 1;
                        attempt += 1;
                    }
                }
            }
            if !exempt {
                if let Some(stats) = &port.link {
                    if faults.packet_delay(t, stats.src as u64, stats.dst as u64) {
                        // Congestion model: the delayed packet still
                        // delivers, but its edge costs extra cycles on
                        // both the latency and bottleneck accumulators.
                        self.delayed += 1;
                        cost += faults.config().delay_cycles();
                    }
                }
            }
            noc_in = noc_in.max(packet.noc_latency + cost);
            pipe_in = pipe_in.max(packet.pipe_max.max(cost));
        }
        self.corrupted += corrupted;
        self.retransmits += retransmits;
        if lost {
            // The retry budget ran dry on some in-edge: the transmissions
            // (and their retransmission traffic) were genuinely charged,
            // but the frame never arrived intact — it sinks as a gap for
            // the recovery pass, exactly like a dropped packet.
            return Ok(Packet::Lost);
        }
        let width = self.core.input_width();
        let assembled;
        let input = if packets.len() == 1 && self.ports[0].offset == 0 {
            &packets[0].slice
        } else {
            let mut frame = BitVec::new(width);
            for (port, packet) in self.ports.iter().zip(&packets) {
                frame.copy_bits_from(&packet.slice, port.offset);
            }
            assembled = frame;
            &assembled
        };
        let is_output = self.core.is_output();
        let out = walk_frame(self.core.tiles_mut(), input, is_output, None)?;
        let mut occupancy: u64 = out.tile_cycles.iter().sum();
        if !exempt && faults.core_stall(t, self.core.id() as u64) {
            // A stalled core occupies its pipeline station longer; the
            // per-tile latency chain (real compute) is untouched.
            self.stalls += 1;
            occupancy += faults.config().core_stall_cycles();
        }
        let mut cycles = packets[0].cycles.clone();
        cycles.extend_from_slice(&out.tile_cycles);
        let crc = if faults.corrupt_active() {
            crc32_words(out.fired.words())
        } else {
            0
        };
        Ok(Packet::Frame(FramePacket {
            slice: out.fired,
            cycles,
            membranes: out.membranes,
            noc_latency: noc_in,
            pipe_max: pipe_in.max(occupancy),
            crc,
        }))
    }

    fn handle_block(&mut self, inputs: &[Packet]) -> Result<Packet, CoreError> {
        let mut packets = Vec::with_capacity(inputs.len());
        for packet in inputs {
            let Packet::Block(packet) = packet else {
                return Err(CoreError::InvalidConfig(
                    "mixed payload kinds in one mesh run".into(),
                ));
            };
            packets.push(packet);
        }
        debug_assert!(
            packets.windows(2).all(|w| w[0].cycles == w[1].cycles),
            "upstream cycle chains diverged across shards"
        );
        let lanes = packets[0].slice.lanes();
        let mut noc_in = vec![0u64; lanes];
        let mut pipe_in = vec![0u64; lanes];
        for (port, packet) in self.ports.iter_mut().zip(&packets) {
            let counts = packet.slice.lane_counts();
            for lane in 0..lanes {
                let cost = match port.link.as_mut() {
                    Some(stats) => stats.charge(&self.link, u64::from(counts[lane])),
                    None => 0,
                };
                noc_in[lane] = noc_in[lane].max(packet.noc_latency[lane] + cost);
                pipe_in[lane] = pipe_in[lane].max(packet.pipe_max[lane].max(cost));
            }
        }
        let width = self.core.input_width();
        let assembled;
        let input = if packets.len() == 1 && self.ports[0].offset == 0 {
            &packets[0].slice
        } else {
            let mut block = FrameBlock::new(width, lanes);
            for (port, packet) in self.ports.iter().zip(&packets) {
                block.copy_rows_from(&packet.slice, port.offset);
            }
            assembled = block;
            &assembled
        };
        let is_output = self.core.is_output();
        let out = walk_block(self.core.tiles_mut(), input, is_output)?;
        let mut pipe_out = pipe_in;
        for (lane, pipe) in pipe_out.iter_mut().enumerate() {
            let occupancy: u64 = out.tile_cycles.iter().map(|tile| tile[lane]).sum();
            *pipe = (*pipe).max(occupancy);
        }
        let mut cycles = packets[0].cycles.clone();
        cycles.extend(out.tile_cycles);
        Ok(Packet::Block(BlockPacket {
            slice: out.fired,
            cycles,
            membranes: out.membranes,
            noc_latency: noc_in,
            pipe_max: pipe_out,
        }))
    }
}

/// `armed` mirrors [`FaultPlan::corrupt_active`]: when the checksum
/// protocol is in use, even the feeder stamps its packets so every real
/// edge downstream can verify them.
fn feeder_frame(frame: &BitVec, armed: bool) -> Packet {
    Packet::Frame(FramePacket {
        slice: frame.clone(),
        cycles: Vec::new(),
        membranes: Vec::new(),
        noc_latency: 0,
        pipe_max: 0,
        crc: if armed { crc32_words(frame.words()) } else { 0 },
    })
}

fn feeder_block(chunk: &[BitVec]) -> Packet {
    Packet::Block(BlockPacket {
        slice: FrameBlock::from_frames(chunk),
        cycles: Vec::new(),
        membranes: Vec::new(),
        noc_latency: vec![0; chunk.len()],
        pipe_max: vec![0; chunk.len()],
    })
}

/// Collects one frame's readout packets (shards in column order) into an
/// [`InferenceResult`] and folds its cycle accumulators into the tally. A
/// frame lost to an injected link fault sinks as `None` — a gap the
/// recovery pass fills after the run.
fn record_frame_sink(
    packets: &[Packet],
    offsets: &[usize],
    output_width: usize,
    output_bias: &[f32],
    results: &mut Vec<Option<InferenceResult>>,
    tally: &mut MeshTally,
) -> Result<(), CoreError> {
    if packets.iter().any(|packet| matches!(packet, Packet::Lost)) {
        results.push(None);
        return Ok(());
    }
    let mut shards = Vec::with_capacity(packets.len());
    for packet in packets {
        let Packet::Frame(packet) = packet else {
            return Err(CoreError::InvalidConfig(
                "mixed payload kinds in one mesh run".into(),
            ));
        };
        shards.push(packet);
    }
    debug_assert!(
        shards.windows(2).all(|w| w[0].cycles == w[1].cycles),
        "readout shards disagree on the cascade cycle chain"
    );
    let per_tile_cycles = shards[0].cycles.clone();
    let mut membranes = Vec::with_capacity(output_width);
    for shard in &shards {
        membranes.extend_from_slice(&shard.membranes);
    }
    let output_spikes = if shards.len() == 1 {
        shards[0].slice.clone()
    } else {
        let mut spikes = BitVec::new(output_width);
        for (shard, &offset) in shards.iter().zip(offsets) {
            spikes.copy_bits_from(&shard.slice, offset);
        }
        spikes
    };
    let result =
        InferenceResult::from_readout(membranes, output_bias, output_spikes, per_tile_cycles);
    tally.tiles.record(&result);
    tally.mesh_bottleneck_cycles += shards.iter().map(|s| s.pipe_max).max().unwrap_or(0);
    tally.noc_latency_cycles += shards.iter().map(|s| s.noc_latency).max().unwrap_or(0);
    results.push(Some(result));
    Ok(())
}

/// Block-payload counterpart of [`record_frame_sink`]: unpacks every lane
/// of the readout block into its own [`InferenceResult`], in lane order.
fn record_block_sink(
    packets: &[Packet],
    offsets: &[usize],
    output_width: usize,
    output_bias: &[f32],
    results: &mut Vec<Option<InferenceResult>>,
    tally: &mut MeshTally,
) -> Result<(), CoreError> {
    let mut shards = Vec::with_capacity(packets.len());
    for packet in packets {
        let Packet::Block(packet) = packet else {
            return Err(CoreError::InvalidConfig(
                "mixed payload kinds in one mesh run".into(),
            ));
        };
        shards.push(packet);
    }
    debug_assert!(
        shards.windows(2).all(|w| w[0].cycles == w[1].cycles),
        "readout shards disagree on the cascade cycle chain"
    );
    let lanes = shards[0].slice.lanes();
    let full = if shards.len() == 1 {
        shards[0].slice.clone()
    } else {
        let mut block = FrameBlock::new(output_width, lanes);
        for (shard, &offset) in shards.iter().zip(offsets) {
            block.copy_rows_from(&shard.slice, offset);
        }
        block
    };
    for lane in 0..lanes {
        let per_tile_cycles: Vec<u64> = shards[0].cycles.iter().map(|layer| layer[lane]).collect();
        let mut membranes = Vec::with_capacity(output_width);
        for shard in &shards {
            let width = shard.slice.width();
            membranes.extend_from_slice(&shard.membranes[lane * width..(lane + 1) * width]);
        }
        let result = InferenceResult::from_readout(
            membranes,
            output_bias,
            full.lane_frame(lane),
            per_tile_cycles,
        );
        tally.tiles.record(&result);
        tally.mesh_bottleneck_cycles += shards.iter().map(|s| s.pipe_max[lane]).max().unwrap_or(0);
        tally.noc_latency_cycles += shards
            .iter()
            .map(|s| s.noc_latency[lane])
            .max()
            .unwrap_or(0);
        results.push(Some(result));
    }
    Ok(())
}

/// Chrome-trace process id of mesh tracks in merged traces (the serving
/// layer uses pid 1; see `esam_serve::SERVE_TRACE_PID`).
pub const MESH_TRACE_PID: u32 = 2;

/// A multi-core ESAM mesh executing one network sharded across cores.
#[derive(Debug, Clone)]
pub struct MeshSystem {
    config: SystemConfig,
    mesh: MeshConfig,
    plan: MeshPlan,
    slots: Vec<CoreSlot>,
    stage_ranges: Vec<std::ops::Range<usize>>,
    sink_offsets: Vec<usize>,
    pipeline: PipelineTiming,
    output_bias: Vec<f32>,
    tally: MeshTally,
}

impl MeshSystem {
    /// Shards `model` across cores per `mesh` (see
    /// [`MeshPlan::partition`]) and builds the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TopologyMismatch`] when the model does not
    /// match the system configuration, and propagates tile construction
    /// and partitioning errors.
    pub fn from_model(
        model: &SnnModel,
        config: &SystemConfig,
        mesh: &MeshConfig,
    ) -> Result<Self, CoreError> {
        if model.topology() != config.topology() {
            return Err(CoreError::TopologyMismatch {
                expected: config.topology().to_vec(),
                got: model.topology(),
            });
        }
        let plan = MeshPlan::partition(config.topology(), mesh.cores())?;
        let pipeline = PipelineTiming::analyze(config)?;
        let stage_count = plan.stages().len();
        let mut slots: Vec<CoreSlot> = Vec::with_capacity(plan.cores());
        let mut stage_ranges = Vec::with_capacity(stage_count);
        // (core id, column offset) of the previous stage's shards.
        let mut prev: Vec<(usize, usize)> = Vec::new();
        for (stage_index, stage) in plan.stages().iter().enumerate() {
            let start = slots.len();
            let is_output = stage_index + 1 == stage_count;
            let mut current = Vec::with_capacity(stage.shards());
            for cols in &stage.splits {
                let id = slots.len();
                let core = MeshCore::build(
                    id,
                    stage_index,
                    model,
                    config,
                    stage.layers.clone(),
                    cols.clone(),
                    is_output,
                )?;
                let ports = if stage_index == 0 {
                    vec![InPort {
                        offset: 0,
                        link: None,
                    }]
                } else {
                    prev.iter()
                        .map(|&(src, offset)| InPort {
                            offset,
                            link: Some(LinkStats::new(src, id, (id - src) as u64)),
                        })
                        .collect()
                };
                slots.push(CoreSlot {
                    core,
                    ports,
                    link: *mesh.link_config(),
                    faults: *mesh.fault_plan(),
                    hand_offs: 0,
                    dropped: 0,
                    delayed: 0,
                    stalls: 0,
                    corrupted: 0,
                    retransmits: 0,
                });
                current.push((id, cols.start));
            }
            stage_ranges.push(start..slots.len());
            prev = current;
        }
        let sink_offsets = plan
            .stages()
            .last()
            .expect("a plan has at least one stage")
            .splits
            .iter()
            .map(|r| r.start)
            .collect();
        Ok(Self {
            config: config.clone(),
            mesh: *mesh,
            plan,
            slots,
            stage_ranges,
            sink_offsets,
            pipeline,
            output_bias: model.output_bias().to_vec(),
            tally: MeshTally::default(),
        })
    }

    /// The partitioning in effect.
    pub fn plan(&self) -> &MeshPlan {
        &self.plan
    }

    /// The per-core system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The mesh configuration.
    pub fn mesh_config(&self) -> &MeshConfig {
        &self.mesh
    }

    /// Cycle tallies accumulated since the last [`reset_stats`](Self::reset_stats).
    pub fn tally(&self) -> &MeshTally {
        &self.tally
    }

    /// Number of cores actually instantiated (the plan may clamp the
    /// request).
    pub fn core_count(&self) -> usize {
        self.slots.len()
    }

    /// The cores, in id order (their tiles hold the activity counters).
    pub fn cores(&self) -> impl Iterator<Item = &MeshCore> {
        self.slots.iter().map(|slot| &slot.core)
    }

    /// Resets every activity counter: tile stats, link stats, the mesh
    /// tally, and the per-core hand-off counters that key fault decisions
    /// (so fault sites are a function of the frame's index within the
    /// measured batch).
    pub fn reset_stats(&mut self) {
        for slot in &mut self.slots {
            slot.core.reset_stats();
            for port in &mut slot.ports {
                if let Some(stats) = port.link.as_mut() {
                    *stats = LinkStats::new(stats.src, stats.dst, stats.distance);
                }
            }
            slot.hand_offs = 0;
            slot.dropped = 0;
            slot.delayed = 0;
            slot.stalls = 0;
            slot.corrupted = 0;
            slot.retransmits = 0;
        }
        self.tally = MeshTally::default();
    }

    /// Swaps the installed fault plan (also updates
    /// [`mesh_config`](Self::mesh_config)). Handy for sweeping fault rates
    /// over one built mesh; pass [`FaultPlan::none`] to return to the
    /// exact unfaulted baseline.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.mesh = self.mesh.faults(plan);
        for slot in &mut self.slots {
            slot.faults = plan;
        }
    }

    /// Runs one frame through the mesh.
    ///
    /// # Errors
    ///
    /// Propagates [`run`](Self::run) errors.
    pub fn infer(&mut self, frame: &BitVec) -> Result<InferenceResult, CoreError> {
        let mut results = self.run(std::slice::from_ref(frame))?;
        Ok(results.pop().expect("one frame in, one result out"))
    }

    /// Runs a batch through the mesh, returning per-frame results in batch
    /// order. Activity accumulates in the tiles, links and
    /// [`tally`](Self::tally).
    ///
    /// The payload format follows [`PayloadMode`]; `Blocks` (and `Auto` on
    /// multi-frame batches) streams [`FrameBlock`] packets when the
    /// bit-sliced path's eligibility guard admits the whole mesh, falling
    /// back to frames otherwise, so results are always exact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for wrong-width frames
    /// and propagates per-core inference errors.
    pub fn run(&mut self, frames: &[BitVec]) -> Result<Vec<InferenceResult>, CoreError> {
        let expected = self.plan.topology()[0];
        for frame in frames {
            if frame.len() != expected {
                return Err(CoreError::InputWidthMismatch {
                    expected,
                    got: frame.len(),
                });
            }
        }
        if frames.is_empty() {
            return Ok(Vec::new());
        }
        // Mesh faults act on per-frame hand-offs, so they force the frame
        // payload; with the plan disabled the payload choice (and every
        // result and counter) is bit-identical to the unfaulted build.
        let blocks = !self.mesh.fault_plan().mesh_active()
            && match self.mesh.payload_mode() {
                PayloadMode::Frames => false,
                PayloadMode::Blocks => self.block_eligible(),
                PayloadMode::Auto => frames.len() > 1 && self.block_eligible(),
            };
        match self.mesh.execution_mode() {
            Execution::Sequential => self.run_sequential(frames, blocks),
            Execution::Pipelined => self.run_pipelined(frames, blocks),
        }
    }

    /// Measures a batch: reset, run, finalize — the mesh counterpart of
    /// `EsamSystem::measure_batch`.
    ///
    /// # Errors
    ///
    /// Propagates inference errors; returns [`CoreError::InvalidConfig`]
    /// for an empty batch.
    pub fn measure(&mut self, frames: &[BitVec]) -> Result<MeshMetrics, CoreError> {
        if frames.is_empty() {
            return Err(CoreError::InvalidConfig(
                "metrics need at least one frame".into(),
            ));
        }
        self.reset_stats();
        self.run(frames)?;
        self.finalize_metrics()
    }

    /// Finalizes the accumulated tally and counters into [`MeshMetrics`]
    /// — a pure function of the merged integers, mirroring
    /// `EsamSystem::finalize_metrics` for the tile half.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when no frames have been run;
    /// propagates SRAM energy-model errors.
    pub fn finalize_metrics(&self) -> Result<MeshMetrics, CoreError> {
        let tally = &self.tally;
        let system = SystemMetrics::finalize(&self.pipeline, &tally.tiles, self.tiles())?;
        let n = tally.tiles.frames as f64;
        let mesh_bottleneck_cycles = tally.mesh_bottleneck_cycles as f64 / n;
        let mut links: Vec<LinkStats> = self
            .slots
            .iter()
            .flat_map(|slot| slot.ports.iter().filter_map(|port| port.link))
            .collect();
        links.sort_by_key(|link| (link.src, link.dst));
        Ok(MeshMetrics {
            system,
            cores: self.slots.len(),
            mesh_bottleneck_cycles,
            mesh_throughput_inf_s: self.pipeline.throughput_for_cycles(mesh_bottleneck_cycles),
            noc_latency_cycles: tally.noc_latency_cycles as f64 / n,
            mesh_latency: self.pipeline.seconds_for_cycles(
                (tally.tiles.latency_cycles + tally.noc_latency_cycles) as f64 / n,
            ),
            links,
        })
    }

    fn tiles(&self) -> impl Iterator<Item = &Tile> + Clone {
        self.slots.iter().flat_map(|slot| slot.core.tiles())
    }

    /// Whether the block payload is exact for the current mesh state: the
    /// walker's per-tile guard holds on every core.
    fn block_eligible(&self) -> bool {
        self.slots
            .iter()
            .all(|slot| block_eligible(slot.core.tiles()))
    }

    /// Runs a batch on the sequential reference path while reconstructing
    /// the pipeline's steady-state timeline in the modeled cycle domain:
    /// per-core `frame` occupancy spans with fill/imbalance `bubble`
    /// spans, per-link `hop` + `serialize` transfer spans, and injected
    /// faults (`packet-drop`, `packet-delay`, `core-stall`, `frame-lost`)
    /// as instants.
    ///
    /// Results, tallies and every activity counter are exactly those of
    /// [`run`](Self::run) under [`Execution::Sequential`] with frame
    /// payloads — the walk invokes the same per-core handlers in the same
    /// order. The timeline itself is pure cycle arithmetic over the
    /// packets' accumulators and is therefore independent of execution
    /// mode, thread scheduling and wall time: the cycle-domain Chrome
    /// export of the returned [`Trace`] is byte-identical across runs.
    ///
    /// The queueing model: the feeder saturates stage 0 (a frame is
    /// available the moment its core is free), a link delivers at its
    /// producer's finish plus hop + serialization cycles, and each core
    /// starts a frame at `max(own busy-until, latest in-port delivery)` —
    /// any gap is pipeline dead time, emitted as a `bubble` span.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InputWidthMismatch`] for wrong-width frames
    /// and propagates per-core inference errors.
    pub fn run_traced(
        &mut self,
        frames: &[BitVec],
        trace_capacity: usize,
    ) -> Result<(Vec<InferenceResult>, Trace), CoreError> {
        let expected = self.plan.topology()[0];
        for frame in frames {
            if frame.len() != expected {
                return Err(CoreError::InputWidthMismatch {
                    expected,
                    got: frame.len(),
                });
            }
        }
        let epoch = std::time::Instant::now();
        let mut core_tracks: Vec<TrackTrace> = self
            .slots
            .iter()
            .map(|slot| {
                TrackTrace::with_epoch(
                    MESH_TRACE_PID,
                    slot.core.id() as u32,
                    format!("core {} (stage {})", slot.core.id(), slot.core.stage()),
                    trace_capacity,
                    epoch,
                )
            })
            .collect();
        // One track per directed link, tids offset past the core ids.
        let mut link_tracks: Vec<TrackTrace> = Vec::new();
        let mut link_index: std::collections::BTreeMap<(usize, usize), usize> =
            std::collections::BTreeMap::new();
        for slot in &self.slots {
            for port in &slot.ports {
                if let Some(stats) = &port.link {
                    let next = link_tracks.len();
                    link_index.entry((stats.src, stats.dst)).or_insert_with(|| {
                        link_tracks.push(TrackTrace::with_epoch(
                            MESH_TRACE_PID,
                            (self.slots.len() + next) as u32,
                            format!("link {} -> {}", stats.src, stats.dst),
                            trace_capacity,
                            epoch,
                        ));
                        next
                    });
                }
            }
        }
        let output_width = *self.plan.topology().last().expect("topology len >= 2");
        let mut results: Vec<Option<InferenceResult>> = Vec::with_capacity(frames.len());
        let mut tally = MeshTally::default();
        // This frame's finish time per core (valid once the core's stage
        // has run; stage order guarantees producers precede consumers).
        let mut finish = vec![0u64; self.slots.len()];
        let armed = self.mesh.fault_plan().corrupt_active();
        for (frame_index, frame) in frames.iter().enumerate() {
            let frame_arg = ("frame", frame_index as u64);
            let mut prev = vec![feeder_frame(frame, armed)];
            for stage in 0..self.stage_ranges.len() {
                let range = self.stage_ranges[stage].clone();
                let mut next = Vec::with_capacity(range.len());
                for index in range {
                    // Snapshot everything the timeline needs before the
                    // handler mutates the slot. Fault decisions are pure
                    // functions of (plan, hand-off, edge), so mirroring
                    // them here reproduces the handler's verdicts exactly.
                    let t_coord = self.slots[index].hand_offs;
                    let slot_faults = self.slots[index].faults;
                    let mesh_faulty = slot_faults.mesh_active();
                    let link_cfg = self.slots[index].link;
                    let core_id = self.slots[index].core.id() as u64;
                    let port_meta: Vec<Option<(usize, usize, u64)>> = self.slots[index]
                        .ports
                        .iter()
                        .map(|p| p.link.as_ref().map(|s| (s.src, s.dst, s.distance)))
                        .collect();
                    let input_lost = prev.iter().any(|p| matches!(p, Packet::Lost));
                    let chain_len = prev
                        .iter()
                        .find_map(|p| match p {
                            Packet::Frame(p) => Some(p.cycles.len()),
                            _ => None,
                        })
                        .unwrap_or(0);

                    let out = self.slots[index].handle(&prev, false)?;
                    match &out {
                        Packet::Lost => {
                            if mesh_faulty && !input_lost {
                                // This slot's own drop verdicts doomed the
                                // frame (a propagated loss makes none).
                                let mut dropped_here = false;
                                for &(src, dst, _) in port_meta.iter().flatten() {
                                    if slot_faults.packet_drop(t_coord, src as u64, dst as u64) {
                                        dropped_here = true;
                                        link_tracks[link_index[&(src, dst)]]
                                            .instant("packet-drop", [Some(frame_arg), None]);
                                    }
                                }
                                if !dropped_here {
                                    // No drop fired, so the loss was a CRC
                                    // retransmit budget running dry on
                                    // some in-edge — replay the verdicts
                                    // to find which.
                                    for &(src, dst, _) in port_meta.iter().flatten() {
                                        let (_, corrupted, retransmits, lost) = mirror_corrupt(
                                            &slot_faults,
                                            t_coord,
                                            src as u64,
                                            dst as u64,
                                            0,
                                            0,
                                        );
                                        if corrupted > 0 {
                                            link_tracks[link_index[&(src, dst)]].instant(
                                                "packet-corrupt",
                                                [
                                                    Some(frame_arg),
                                                    Some(("retransmits", retransmits)),
                                                ],
                                            );
                                        }
                                        debug_assert!(
                                            lost || corrupted == retransmits,
                                            "a surviving edge retransmits once per upset"
                                        );
                                    }
                                }
                            }
                            core_tracks[index].instant("frame-lost", [Some(frame_arg), None]);
                            finish[index] = core_tracks[index].cursor();
                        }
                        Packet::Frame(out_packet) => {
                            let mut avail = 0u64;
                            for (port_pos, meta) in port_meta.iter().enumerate() {
                                let Some(&(src, dst, distance)) = meta.as_ref() else {
                                    continue; // feeder port: available at 0
                                };
                                let Packet::Frame(in_packet) = &prev[port_pos] else {
                                    continue;
                                };
                                let events = in_packet.slice.count_ones() as u64;
                                let hop = link_cfg.hop_latency * distance;
                                let serialize = link_cfg.cycles(events, 0);
                                let departed = finish[src];
                                let track = &mut link_tracks[link_index[&(src, dst)]];
                                track.span_at("hop", departed, hop, [Some(frame_arg), None]);
                                track.span_at(
                                    "serialize",
                                    departed + hop,
                                    serialize,
                                    [Some(("events", events)), None],
                                );
                                let mut cost = hop + serialize;
                                // Mirror the CRC verify + retransmit loop
                                // the handler just ran on this edge (the
                                // output is a Frame, so the retry budget
                                // held).
                                let (extra, corrupted, retransmits, lost) = mirror_corrupt(
                                    &slot_faults,
                                    t_coord,
                                    src as u64,
                                    dst as u64,
                                    hop,
                                    serialize,
                                );
                                debug_assert!(!lost, "a delivered frame exhausted no retry budget");
                                if corrupted > 0 {
                                    track.instant(
                                        "packet-corrupt",
                                        [Some(frame_arg), Some(("retransmits", retransmits))],
                                    );
                                }
                                cost += extra;
                                if mesh_faulty
                                    && slot_faults.packet_delay(t_coord, src as u64, dst as u64)
                                {
                                    let extra = slot_faults.config().delay_cycles();
                                    track.instant(
                                        "packet-delay",
                                        [Some(frame_arg), Some(("cycles", extra))],
                                    );
                                    cost += extra;
                                }
                                avail = avail.max(departed + cost);
                            }
                            let mut occupancy: u64 = out_packet.cycles[chain_len..].iter().sum();
                            if mesh_faulty && slot_faults.core_stall(t_coord, core_id) {
                                let extra = slot_faults.config().core_stall_cycles();
                                core_tracks[index].instant(
                                    "core-stall",
                                    [Some(frame_arg), Some(("cycles", extra))],
                                );
                                occupancy += extra;
                            }
                            let track = &mut core_tracks[index];
                            let busy_until = track.cursor();
                            if avail > busy_until {
                                track.span_at("bubble", busy_until, avail - busy_until, NO_ARGS);
                                track.set_cursor(avail);
                            }
                            track.span("frame", occupancy, [Some(frame_arg), None]);
                            finish[index] = track.cursor();
                        }
                        Packet::Block(_) => {
                            return Err(CoreError::InvalidConfig(
                                "block packets cannot appear on the traced frame walk".into(),
                            ));
                        }
                    }
                    next.push(out);
                }
                prev = next;
            }
            record_frame_sink(
                &prev,
                &self.sink_offsets,
                output_width,
                &self.output_bias,
                &mut results,
                &mut tally,
            )?;
        }
        let results = self.finish_run(frames, results, tally)?;
        let mut trace = Trace::new();
        trace.name_process(MESH_TRACE_PID, "esam-mesh");
        for track in core_tracks {
            trace.push(track);
        }
        for track in link_tracks {
            trace.push(track);
        }
        Ok((results, trace))
    }

    /// The retained single-threaded reference: stage order, frame by
    /// frame, through the same handlers the pipelined mode runs.
    fn run_sequential(
        &mut self,
        frames: &[BitVec],
        blocks: bool,
    ) -> Result<Vec<InferenceResult>, CoreError> {
        let output_width = *self.plan.topology().last().expect("topology len >= 2");
        let mut results: Vec<Option<InferenceResult>> = Vec::with_capacity(frames.len());
        let mut tally = MeshTally::default();
        if blocks {
            for chunk in frames.chunks(FrameBlock::LANES) {
                let packets = self.walk_stages(feeder_block(chunk), false)?;
                record_block_sink(
                    &packets,
                    &self.sink_offsets,
                    output_width,
                    &self.output_bias,
                    &mut results,
                    &mut tally,
                )?;
            }
        } else {
            let armed = self.mesh.fault_plan().corrupt_active();
            for frame in frames {
                let packets = self.walk_stages(feeder_frame(frame, armed), false)?;
                record_frame_sink(
                    &packets,
                    &self.sink_offsets,
                    output_width,
                    &self.output_bias,
                    &mut results,
                    &mut tally,
                )?;
            }
        }
        self.finish_run(frames, results, tally)
    }

    /// Pushes one feeder packet through every stage in order, returning
    /// the readout stage's packets in shard (column) order. `exempt` runs
    /// the fault-exempt recovery variant of every handler.
    fn walk_stages(&mut self, feed: Packet, exempt: bool) -> Result<Vec<Packet>, CoreError> {
        let mut prev = vec![feed];
        for stage in 0..self.stage_ranges.len() {
            let range = self.stage_ranges[stage].clone();
            let mut next = Vec::with_capacity(range.len());
            for index in range {
                next.push(self.slots[index].handle(&prev, exempt)?);
            }
            prev = next;
        }
        Ok(prev)
    }

    /// The common run epilogue: recover every missing frame on the
    /// fault-exempt sequential path (modeled retransmission from the
    /// source — links and tiles are re-charged for the re-run), drain the
    /// per-core fault counters, fold the run's tally in, and unwrap the
    /// now-complete results.
    fn finish_run(
        &mut self,
        frames: &[BitVec],
        mut results: Vec<Option<InferenceResult>>,
        mut tally: MeshTally,
    ) -> Result<Vec<InferenceResult>, CoreError> {
        let output_width = *self.plan.topology().last().expect("topology len >= 2");
        let armed = self.mesh.fault_plan().corrupt_active();
        // Frames past the sink's progress never completed (a dead
        // pipeline); they are gaps like any dropped frame.
        while results.len() < frames.len() {
            results.push(None);
        }
        for (index, slot) in results.iter_mut().enumerate() {
            if slot.is_some() {
                continue;
            }
            let packets = self.walk_stages(feeder_frame(&frames[index], armed), true)?;
            let mut recovered = Vec::with_capacity(1);
            record_frame_sink(
                &packets,
                &self.sink_offsets,
                output_width,
                &self.output_bias,
                &mut recovered,
                &mut tally,
            )?;
            tally.frames_recovered += 1;
            *slot = recovered.pop().expect("one frame in, one result out");
            debug_assert!(
                slot.is_some(),
                "the exempt recovery path cannot lose frames"
            );
        }
        for slot in &mut self.slots {
            tally.packets_dropped += std::mem::take(&mut slot.dropped);
            tally.packets_delayed += std::mem::take(&mut slot.delayed);
            tally.core_stalls += std::mem::take(&mut slot.stalls);
            tally.packets_corrupted += std::mem::take(&mut slot.corrupted);
            tally.retransmits += std::mem::take(&mut slot.retransmits);
        }
        self.tally.merge(&tally);
        Ok(results
            .into_iter()
            .map(|result| result.expect("every gap was just recovered"))
            .collect())
    }

    /// Pipeline-parallel execution: one thread per core plus a feeder
    /// thread, the sink on the calling thread. Core *k* serves hand-off
    /// *t* while core *k+1* serves *t−1*; bounded SPSC channels apply
    /// back-pressure, and endpoint drops propagate shutdown (see
    /// [`crate::spsc`]).
    ///
    /// Panics inside a core — injected by the fault plan or genuine — are
    /// contained by `catch_unwind` on the worker thread: the thread drops
    /// its endpoints (shutting the pipeline down cleanly in both
    /// directions), every spawned thread is explicitly joined, and the
    /// frames that never reached the sink are recovered sequentially. A
    /// mid-batch core death therefore degrades throughput, never
    /// correctness, and cannot deadlock or tear down the calling thread.
    fn run_pipelined(
        &mut self,
        frames: &[BitVec],
        blocks: bool,
    ) -> Result<Vec<InferenceResult>, CoreError> {
        let capacity = self.mesh.channel_depth();
        let stage_count = self.stage_ranges.len();
        let slot_count = self.slots.len();
        let mut in_rx: Vec<Vec<Receiver<Packet>>> = (0..slot_count).map(|_| Vec::new()).collect();
        let mut out_tx: Vec<Vec<Sender<Packet>>> = (0..slot_count).map(|_| Vec::new()).collect();
        let mut feed_tx = Vec::new();
        for consumer in self.stage_ranges[0].clone() {
            let (tx, rx) = channel(capacity);
            feed_tx.push(tx);
            in_rx[consumer].push(rx);
        }
        // Producers enumerate their senders in consumer order and
        // consumers their receivers in producer order; with this fixed
        // ordering on an acyclic stage graph, bounded channels cannot
        // deadlock — every blocked endpoint waits on a strictly
        // downstream or strictly upstream peer.
        for boundary in 1..stage_count {
            for producer in self.stage_ranges[boundary - 1].clone() {
                for consumer in self.stage_ranges[boundary].clone() {
                    let (tx, rx) = channel(capacity);
                    out_tx[producer].push(tx);
                    in_rx[consumer].push(rx);
                }
            }
        }
        let mut sink_rx = Vec::new();
        for producer in self.stage_ranges[stage_count - 1].clone() {
            let (tx, rx) = channel(capacity);
            out_tx[producer].push(tx);
            sink_rx.push(rx);
        }

        let errors: Mutex<Vec<CoreError>> = Mutex::new(Vec::new());
        let panics: Mutex<u64> = Mutex::new(0);
        let mut results: Vec<Option<InferenceResult>> = Vec::with_capacity(frames.len());
        let mut tally = MeshTally::default();
        let hand_offs = if blocks {
            frames.len().div_ceil(FrameBlock::LANES)
        } else {
            frames.len()
        };
        let output_width = *self.plan.topology().last().expect("topology len >= 2");
        let link_timeout = self.mesh.link_timeout_budget();
        let armed = self.mesh.fault_plan().corrupt_active();
        let slots = &mut self.slots;
        let sink_offsets = &self.sink_offsets;
        let output_bias = &self.output_bias;

        thread::scope(|scope| {
            let feeder = scope.spawn(move || {
                let send_all = |packet: Packet| -> bool {
                    let last = feed_tx.len() - 1;
                    for tx in &feed_tx[..last] {
                        if tx.send(packet.clone()).is_err() {
                            return false;
                        }
                    }
                    feed_tx[last].send(packet).is_ok()
                };
                if blocks {
                    for chunk in frames.chunks(FrameBlock::LANES) {
                        if !send_all(feeder_block(chunk)) {
                            return;
                        }
                    }
                } else {
                    for frame in frames {
                        if !send_all(feeder_frame(frame, armed)) {
                            return;
                        }
                    }
                }
            });
            let mut workers = Vec::with_capacity(slots.len());
            for ((slot, rxs), txs) in slots.iter_mut().zip(in_rx).zip(out_tx) {
                let errors = &errors;
                let panics = &panics;
                workers.push(scope.spawn(move || {
                    'hand_offs: loop {
                        let mut inputs = Vec::with_capacity(rxs.len());
                        for rx in &rxs {
                            match rx.recv() {
                                Some(packet) => inputs.push(packet),
                                // A producer is gone: end of stream (or an
                                // upstream failure) — drop our endpoints so
                                // the shutdown propagates both ways.
                                None => break 'hand_offs,
                            }
                        }
                        // Injected core death fires at the hand-off
                        // boundary, before any tile work, so the core's
                        // state stays clean for the recovery pass. The
                        // catch_unwind also contains *genuine* handler
                        // panics: either way the thread breaks out, drops
                        // its endpoints, and the run degrades instead of
                        // unwinding through the scope.
                        let core_id = slot.core.id();
                        let doomed = slot.faults.core_panic(slot.hand_offs, core_id as u64);
                        let handled = catch_unwind(AssertUnwindSafe(|| {
                            if doomed {
                                panic!("injected core fault (core {core_id})");
                            }
                            slot.handle(&inputs, false)
                        }));
                        match handled {
                            Ok(Ok(packet)) => {
                                let last = txs.len() - 1;
                                for tx in &txs[..last] {
                                    if tx.send(packet.clone()).is_err() {
                                        break 'hand_offs;
                                    }
                                }
                                if txs[last].send(packet).is_err() {
                                    break 'hand_offs;
                                }
                            }
                            Ok(Err(error)) => {
                                lock_recover(errors).push(error);
                                break 'hand_offs;
                            }
                            Err(_) => {
                                *lock_recover(panics) += 1;
                                break 'hand_offs;
                            }
                        }
                    }
                }));
            }
            'sink: for _ in 0..hand_offs {
                let mut packets = Vec::with_capacity(sink_rx.len());
                for rx in &sink_rx {
                    let received = match link_timeout {
                        None => rx.recv(),
                        Some(budget) => match rx.recv_timeout(budget) {
                            RecvTimeout::Value(packet) => Some(packet),
                            RecvTimeout::Closed => None,
                            RecvTimeout::TimedOut => {
                                // The liveness backstop: a hung (not dead)
                                // producer — abandon the pipeline and let
                                // the recovery pass finish the batch.
                                tally.link_timeouts += 1;
                                None
                            }
                        },
                    };
                    match received {
                        Some(packet) => packets.push(packet),
                        None => break 'sink,
                    }
                }
                let outcome = if blocks {
                    record_block_sink(
                        &packets,
                        sink_offsets,
                        output_width,
                        output_bias,
                        &mut results,
                        &mut tally,
                    )
                } else {
                    record_frame_sink(
                        &packets,
                        sink_offsets,
                        output_width,
                        output_bias,
                        &mut results,
                        &mut tally,
                    )
                };
                if let Err(error) = outcome {
                    lock_recover(&errors).push(error);
                    break 'sink;
                }
            }
            // Release the sink's receivers so upstream cores unwind if the
            // loop broke early, then join every spawned thread explicitly.
            // Panics were contained on the worker side, so these joins
            // cannot re-raise; a mid-batch core death still ends with the
            // full complement of threads reaped.
            drop(sink_rx);
            let _ = feeder.join();
            for worker in workers {
                let _ = worker.join();
            }
        });

        if let Some(error) = errors
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
        {
            return Err(error);
        }
        tally.core_panics += panics.into_inner().unwrap_or_else(PoisonError::into_inner);
        self.finish_run(frames, results, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esam_core::EsamSystem;
    use esam_nn::BnnNetwork;
    use esam_sram::BitcellKind;

    fn build(topology: &[usize], seed: u64) -> (SnnModel, SystemConfig) {
        let net = BnnNetwork::new(topology, seed).unwrap();
        let model = SnnModel::from_bnn(&net).unwrap();
        let config = SystemConfig::builder(BitcellKind::multiport(2).unwrap(), topology)
            .build()
            .unwrap();
        (model, config)
    }

    fn frames(width: usize, count: usize) -> Vec<BitVec> {
        (0..count)
            .map(|f| {
                BitVec::from_indices(
                    width,
                    &[(f * 13) % width, (f * 29 + 7) % width, (f * 53 + 1) % width],
                )
            })
            .collect()
    }

    #[test]
    fn single_core_mesh_matches_the_plain_system() {
        let (model, config) = build(&[128, 64, 10], 3);
        let mut plain = EsamSystem::from_model(&model, &config).unwrap();
        let mesh_config = MeshConfig::with_cores(1).execution(Execution::Sequential);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
        assert_eq!(mesh.core_count(), 1);
        for frame in frames(128, 6) {
            assert_eq!(mesh.infer(&frame).unwrap(), plain.infer(&frame).unwrap());
        }
        // A single stage has no links, so the mesh bottleneck is the whole
        // cascade and NoC latency is zero.
        assert_eq!(mesh.tally().noc_latency_cycles, 0);
        assert_eq!(
            mesh.tally().mesh_bottleneck_cycles,
            mesh.tally().tiles.latency_cycles
        );
    }

    #[test]
    fn pipelined_matches_sequential_and_plain_outputs() {
        let (model, config) = build(&[128, 64, 32, 10], 9);
        let batch = frames(128, 17);
        let mut plain = EsamSystem::from_model(&model, &config).unwrap();
        let expected: Vec<_> = batch.iter().map(|f| plain.infer(f).unwrap()).collect();
        for cores in [2usize, 3] {
            let sequential_config = MeshConfig::with_cores(cores).execution(Execution::Sequential);
            let mut sequential =
                MeshSystem::from_model(&model, &config, &sequential_config).unwrap();
            let sequential_results = sequential.run(&batch).unwrap();
            let pipelined_config = MeshConfig::with_cores(cores);
            let mut pipelined = MeshSystem::from_model(&model, &config, &pipelined_config).unwrap();
            let pipelined_results = pipelined.run(&batch).unwrap();
            assert_eq!(sequential_results, expected, "{cores} cores vs plain");
            assert_eq!(pipelined_results, expected, "{cores} cores pipelined");
            assert_eq!(
                sequential.tally(),
                pipelined.tally(),
                "{cores} cores tallies"
            );
        }
    }

    #[test]
    fn measure_reports_mesh_figures() {
        let (model, config) = build(&[128, 64, 32, 10], 5);
        let mesh_config = MeshConfig::with_cores(3);
        let mut mesh = MeshSystem::from_model(&model, &config, &mesh_config).unwrap();
        let metrics = mesh.measure(&frames(128, 32)).unwrap();
        assert_eq!(metrics.cores, 3);
        assert!(metrics.mesh_bottleneck_cycles > 0.0);
        assert!(metrics.mesh_throughput_inf_s > metrics.system.throughput_inf_s / 100.0);
        assert_eq!(metrics.links.len(), 2, "two boundaries, one link each");
        assert!(metrics.links.iter().all(|l| l.frames == 32));
        let text = metrics.to_string();
        assert!(text.contains("mesh throughput"));
        assert!(mesh.measure(&[]).is_err());
    }

    #[test]
    fn wrong_width_frames_are_rejected() {
        let (model, config) = build(&[128, 64, 10], 1);
        let mut mesh = MeshSystem::from_model(&model, &config, &MeshConfig::with_cores(2)).unwrap();
        let err = mesh.run(&[BitVec::new(64)]).unwrap_err();
        assert!(matches!(err, CoreError::InputWidthMismatch { .. }));
    }
}
