//! The observability contract of the inference hot path:
//!
//! 1. [`EsamSystem::infer_scoped`] with [`TraceScope::Off`] is *exactly*
//!    [`EsamSystem::infer`] — bit-identical results and not one extra heap
//!    allocation (the disabled tracer is a single branch).
//! 2. With tracing **on**, the results are still bit-identical and the
//!    recording itself is allocation-free: events are `Copy` into the
//!    track's preallocated ring.
//! 3. The per-layer spans tile the frame's cycle interval exactly
//!    (`sum(layer spans) == total_cycles`), and the cycle-domain Chrome
//!    export is byte-identical across repeated runs.
//!
//! Like `step_no_alloc.rs`, the allocation counter is thread-local and
//! this file holds only tests that depend on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use esam_bits::BitVec;
use esam_core::{EsamSystem, IntegrityMode, SystemConfig, TraceScope, TrackTrace};
use esam_nn::{BnnNetwork, SnnModel};
use esam_obs::{EventKind, TimeDomain, Trace};
use esam_sram::BitcellKind;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator with a thread-local allocation counter.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to the system allocator; the
// only addition is a thread-local counter bump, which cannot allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn system(seed: u64) -> EsamSystem {
    let net = BnnNetwork::new(&[128, 64, 10], seed).unwrap();
    let model = SnnModel::from_bnn(&net).unwrap();
    let config = SystemConfig::builder(BitcellKind::multiport(4).unwrap(), &[128, 64, 10])
        .build()
        .unwrap();
    EsamSystem::from_model(&model, &config).unwrap()
}

fn frames(count: usize) -> Vec<BitVec> {
    (0..count)
        .map(|i| (0..128).map(|b| (b * 7 + i * 13) % 5 == 0).collect())
        .collect()
}

#[test]
fn scoped_off_is_bit_identical_and_allocates_exactly_like_infer() {
    let mut plain = system(11);
    let mut scoped = system(11);
    for frame in frames(8) {
        // Warm both paths once so lazy one-time allocations (none are
        // expected, but the contract is steady-state) cannot skew the
        // comparison.
        plain.infer(&frame).unwrap();
        scoped.infer_scoped(&frame, &mut TraceScope::Off).unwrap();

        let before = allocations();
        let baseline = plain.infer(&frame).unwrap();
        let baseline_allocs = allocations() - before;

        let before = allocations();
        let traced = scoped.infer_scoped(&frame, &mut TraceScope::Off).unwrap();
        let scoped_allocs = allocations() - before;

        assert_eq!(baseline, traced, "Off-scope result must be bit-identical");
        assert_eq!(
            scoped_allocs, baseline_allocs,
            "a disabled scope must add zero allocations"
        );
    }
}

#[test]
fn scoped_on_is_bit_identical_and_recording_is_allocation_free() {
    let mut plain = system(23);
    let mut scoped = system(23);
    let mut track = TrackTrace::new(0, 0, "core".to_string(), 4096);
    for frame in frames(8) {
        plain.infer(&frame).unwrap();
        scoped
            .infer_scoped(&frame, &mut TraceScope::On(&mut track))
            .unwrap();

        let before = allocations();
        let baseline = plain.infer(&frame).unwrap();
        let baseline_allocs = allocations() - before;

        let before = allocations();
        let traced = scoped
            .infer_scoped(&frame, &mut TraceScope::On(&mut track))
            .unwrap();
        let scoped_allocs = allocations() - before;

        assert_eq!(baseline, traced, "On-scope result must be bit-identical");
        assert_eq!(
            scoped_allocs, baseline_allocs,
            "recording into the preallocated ring must add zero allocations"
        );
    }
    assert!(!track.is_empty(), "spans were recorded");
    assert_eq!(track.dropped(), 0, "the ring never filled");
}

#[test]
fn layer_spans_tile_the_frame_interval_exactly() {
    let mut sys = system(7);
    let mut track = TrackTrace::new(0, 0, "core".to_string(), 1024);
    let frame = &frames(1)[0];
    let result = sys
        .infer_scoped(frame, &mut TraceScope::On(&mut track))
        .unwrap();

    let spans: Vec<_> = track
        .events()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    assert_eq!(spans.len(), result.per_tile_cycles.len());
    let mut cursor = 0u64;
    for (layer, span) in spans.iter().enumerate() {
        assert_eq!(
            span.cycles,
            cursor,
            "layer {layer} starts where {0} ended",
            layer.max(1) - 1
        );
        assert_eq!(span.cycle_dur, result.per_tile_cycles[layer]);
        assert_eq!(span.args[0], Some(("layer", layer as u64)));
        cursor += span.cycle_dur;
    }
    assert_eq!(
        cursor,
        result.total_cycles(),
        "the layer spans must tile the frame's full latency"
    );
    assert_eq!(track.cursor(), result.total_cycles());
}

#[test]
fn block_scoped_matches_infer_block_bit_for_bit() {
    let mut plain = system(31);
    let mut scoped = system(31);
    // 70 frames straddles the 64-lane block width: one full block plus a
    // ragged 6-lane tail, each contributing its own layer-block spans.
    let batch = frames(70);
    let mut track = TrackTrace::new(0, 0, "block".to_string(), 1024);
    let baseline = plain.infer_block(&batch).unwrap();
    let traced = scoped
        .infer_block_scoped(&batch, &mut TraceScope::On(&mut track))
        .unwrap();
    assert_eq!(baseline, traced);

    // Two blocks × two tiles of spans, lane counts attached.
    let spans: Vec<_> = track
        .events()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].args[1], Some(("lanes", 64)));
    assert_eq!(spans[3].args[1], Some(("lanes", 6)));
    // Each block's layer span is the max over its lanes.
    let expect: u64 = baseline[..64]
        .iter()
        .map(|r| r.per_tile_cycles[0])
        .max()
        .unwrap();
    assert_eq!(spans[0].cycle_dur, expect);

    // Off scope: same results, no events anywhere.
    let mut off = system(31);
    assert_eq!(
        off.infer_block_scoped(&batch, &mut TraceScope::Off)
            .unwrap(),
        baseline
    );
}

#[test]
fn block_scoped_fallback_records_the_per_frame_layer_spans() {
    // A self-checking system rules the block path out, so the frames run
    // one by one. The track must then carry exactly the per-frame `layer`
    // spans `infer_scoped` records, and its cursor must advance by the
    // frames' full latency — not by a per-block lane maximum.
    let mut sequential = system(31);
    sequential.set_integrity_mode(IntegrityMode::Correct);
    let mut blocked = system(31);
    blocked.set_integrity_mode(IntegrityMode::Correct);
    let batch = frames(70);

    let mut expected_track = TrackTrace::new(0, 0, "sequential".to_string(), 1024);
    let expected: Vec<_> = batch
        .iter()
        .map(|frame| {
            sequential
                .infer_scoped(frame, &mut TraceScope::On(&mut expected_track))
                .unwrap()
        })
        .collect();
    let mut track = TrackTrace::new(0, 0, "block".to_string(), 1024);
    let got = blocked
        .infer_block_scoped(&batch, &mut TraceScope::On(&mut track))
        .unwrap();
    assert_eq!(got, expected);

    let cycle_events = |track: &TrackTrace| {
        track
            .events()
            .map(|e| (e.name, e.kind, e.cycles, e.cycle_dur, e.args))
            .collect::<Vec<_>>()
    };
    assert_eq!(cycle_events(&track), cycle_events(&expected_track));
    let latency: u64 = expected.iter().map(|r| r.total_cycles()).sum();
    assert_eq!(track.cursor(), latency);
}

#[test]
fn cycle_domain_export_is_byte_identical_across_runs() {
    let export = |seed: u64| {
        let mut sys = system(seed);
        let mut track = TrackTrace::new(0, 0, "core".to_string(), 1024);
        for frame in frames(5) {
            sys.infer_scoped(&frame, &mut TraceScope::On(&mut track))
                .unwrap();
        }
        let mut trace = Trace::new();
        trace.name_process(0, "esam-core");
        trace.push(track);
        trace.chrome_json(TimeDomain::Cycles)
    };
    assert_eq!(export(3), export(3), "same seed → byte-identical trace");
    assert_ne!(export(3), export(4), "different weights → different cycles");
}
