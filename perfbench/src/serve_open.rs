//! `serve-open`: open-loop Poisson arrivals to an `EsamService` with one
//! worker, on a seeded untrained network of the paper's topology and
//! ~20 %-density synthetic frames.
//!
//! Two fixed rates alternate in half-second slices for the whole run, so
//! host speed phases hit both. At `lo` the micro-batches stay small and
//! take the sequential walk; at `hi` the queue fills batches toward 64 and
//! the bit-sliced block path engages. Each request is timed from the
//! moment it was due: the generator's lateness plus the service's
//! `Response::wall_latency`. A refused or failed request counts as missing
//! every latency limit. An end-to-end latency is the median over a rate's
//! slices of each slice's percentile: `latency_ms` is the p50 at `lo`,
//! `batch_latency_ms` the p50 at `hi`. `ops_per_s` is the worker's service
//! capacity at `hi`: requests served per second of batch execution, the
//! median over slices. The traced run interleaves the shared layer probe,
//! on the served network and frames, with the same traffic, and its
//! serving figures pool all requests of a rate.

use std::time::{Duration, Instant};

use esam_bits::BitVec;
use esam_core::{EsamSystem, InferenceResult, SystemConfig};
use esam_nn::{BnnNetwork, SnnModel};
use esam_serve::{AdmissionPolicy, BatchPolicy, EsamService, LoadGenerator, ServeConfig};
use esam_sram::BitcellKind;
use esam_tech::calibration::paper;

use crate::layers::LayerProbe;
use crate::stats::{median, quantile, Checks, Outcome};
use crate::{BenchResult, RunConfig};

/// Seed of the untrained network: the served model is the same in every
/// run, and `--seed` picks the frames and the arrival times.
const NETWORK_SEED: u64 = 0xE5A;
/// Distinct frames the generator cycles through.
const POOL: usize = 512;
/// Length of one slice of traffic at one rate.
const SLICE: Duration = Duration::from_millis(500);
/// Largest micro-batch; 64 is the bit-sliced lane width.
const MAX_BATCH: usize = 64;
/// Queue slots: deep enough that no request is refused at either rate.
const QUEUE: usize = 1 << 16;

/// One of the two fixed offered rates.
#[derive(Debug, Clone, Copy)]
struct Rate {
    name: &'static str,
    rps: f64,
    /// Latency limit from the due time, for `within_limit_share`.
    limit_ms: f64,
    /// The tail percentile reported end to end, and its name. At `lo` the
    /// 99th percentile is set by rare multi-millisecond host stalls and
    /// swung 0.8-2.4 ms between runs of identical code, so `lo` reports the
    /// 95th.
    tail: (f64, &'static str),
}

const RATES: [Rate; 2] = [
    Rate {
        name: "lo",
        rps: 2000.0,
        limit_ms: 5.0,
        tail: (0.95, "p95"),
    },
    Rate {
        name: "hi",
        rps: 10000.0,
        limit_ms: 25.0,
        tail: (0.99, "p99"),
    },
];

/// What every request of one rate saw, pooled over its slices.
#[derive(Debug, Default)]
struct RateLog {
    /// Latency from the due time, ms; infinite for refused or failed ones.
    latency_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Σ 1/batch size over served requests: the number of batches.
    batches: f64,
    /// Requests served in full 64-lane batches.
    in_blocks: u64,
    completed: u64,
    failed: u64,
    /// Per slice, the median latency, the rate's tail percentile and the
    /// requests served per second of batch execution.
    slice_p50: Vec<f64>,
    slice_tail: Vec<f64>,
    slice_capacity: Vec<f64>,
    /// Wall time of the slices, submission of the first request to the
    /// last response.
    busy_s: f64,
}

struct Setup {
    model: SnnModel,
    system: EsamSystem,
    frames: Vec<BitVec>,
    expected: Vec<InferenceResult>,
}

fn prepare(seed: u64) -> BenchResult<Setup> {
    let net = BnnNetwork::new(&paper::NETWORK_TOPOLOGY, NETWORK_SEED)?;
    let model = SnnModel::from_bnn(&net)?;
    let mut system = EsamSystem::from_model(
        &model,
        &SystemConfig::paper_default(BitcellKind::multiport(4)?),
    )?;
    let frames = LoadGenerator::synthetic(paper::NETWORK_TOPOLOGY[0], POOL, seed)
        .frames()
        .to_vec();
    let expected = frames
        .iter()
        .map(|f| system.infer(f))
        .collect::<Result<Vec<_>, _>>()?;
    system.reset_stats();
    Ok(Setup {
        model,
        system,
        frames,
        expected,
    })
}

fn serve_config() -> ServeConfig {
    ServeConfig::with_workers(1)
        .queue_capacity(QUEUE)
        .admission(AdmissionPolicy::Reject)
        .batch(BatchPolicy::greedy(MAX_BATCH))
}

/// SplitMix64: the arrival process needs only a seeded uniform stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Due offsets of `count` Poisson arrivals at `rps`, from `seed`.
fn schedule(seed: u64, rps: f64, count: usize) -> Vec<Duration> {
    let mut state = seed;
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            at += -(1.0 - u).ln() / rps;
            Duration::from_secs_f64(at)
        })
        .collect()
}

/// Sleeps until `due`. The generator never spins: a spinning generator
/// holds one of the host's cores and stalls the worker for milliseconds at a
/// time. Oversleeping shows as generator lateness, which every request's
/// latency includes.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Offers one slice of traffic at `rate`, then collects and checks every
/// response. Returns the number of requests offered.
fn run_slice(
    service: &EsamService,
    setup: &Setup,
    rate: Rate,
    slice_seed: u64,
    log: &mut RateLog,
    checks: &mut Checks,
) -> u64 {
    let count = (rate.rps * SLICE.as_secs_f64()).round() as usize;
    let due = schedule(slice_seed, rate.rps, count);
    let first_frame = (slice_seed as usize).wrapping_mul(7919) % POOL;
    let mut pending = Vec::with_capacity(count);
    let (mut served, mut batch_s) = (0u64, 0.0);
    let start = Instant::now();
    for (i, offset) in due.iter().enumerate() {
        let due_at = start + *offset;
        wait_until(due_at);
        let late = Instant::now().saturating_duration_since(due_at);
        let index = (first_frame + i) % POOL;
        pending.push((index, late, service.submit(setup.frames[index].clone())));
    }
    for (index, late, submitted) in pending {
        let late_ms = late.as_secs_f64() * 1e3;
        log.late_ms.push(late_ms);
        match submitted.and_then(|ticket| ticket.wait()) {
            Ok(response) => {
                let want = &setup.expected[index];
                checks.check(
                    response.prediction == want.prediction
                        && response.logits == want.logits
                        && response.membranes == want.membranes,
                    || format!("served frame {index} differs from offline infer"),
                );
                let wall_ms = response.wall_latency.as_secs_f64() * 1e3;
                let queue_ms = response.queue_wait.as_secs_f64() * 1e3;
                log.latency_ms.push(late_ms + wall_ms);
                log.queue_ms.push(queue_ms);
                log.service_ms.push(wall_ms - queue_ms);
                let share = 1.0 / response.batch_size.max(1) as f64;
                log.batches += share;
                batch_s += (wall_ms - queue_ms) / 1e3 * share;
                served += 1;
                log.in_blocks += u64::from(response.batch_size >= MAX_BATCH);
                log.completed += 1;
            }
            Err(e) => {
                checks.check(false, || format!("request for frame {index} failed: {e}"));
                log.latency_ms.push(f64::INFINITY);
                log.failed += 1;
            }
        }
    }
    log.busy_s += start.elapsed().as_secs_f64();
    let slice = &log.latency_ms[log.latency_ms.len() - count..];
    log.slice_p50.push(quantile(slice, 0.5));
    log.slice_tail.push(quantile(slice, rate.tail.0));
    log.slice_capacity.push(served as f64 / batch_s.max(1e-9));
    count as u64
}

/// Serves every pool frame once, one request at a time, and returns the
/// service's modeled figures over that traffic: deterministic for a seed.
fn modeled(setup: &Setup, checks: &mut Checks) -> BenchResult<(f64, f64)> {
    let service = EsamService::start(&setup.system, serve_config());
    for (index, frame) in setup.frames.iter().enumerate() {
        let response = service.infer(frame.clone())?;
        checks.check(
            response.prediction == setup.expected[index].prediction,
            || format!("closed-loop frame {index} differs from offline infer"),
        );
    }
    let report = service.shutdown();
    let metrics = report.modeled.ok_or_else(|| {
        report
            .modeling_error
            .unwrap_or_else(|| "no modeled metrics".into())
    })?;
    Ok((metrics.throughput_minf_s(), metrics.energy_per_inf.pj()))
}

/// Runs `serve-open`.
pub fn run(config: &RunConfig) -> BenchResult<Outcome> {
    let mut outcome = Outcome::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut ready: Option<(Setup, EsamService)> = None;
    while config.another_setup(setup_s.len(), Duration::from_secs_f64(setup_s.iter().sum())) {
        let t = Instant::now();
        let setup = prepare(config.seed)?;
        let service = EsamService::start(&setup.system, serve_config());
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, previous)) = ready.replace((setup, service)) {
            previous.shutdown();
        }
    }
    let (setup, service) = ready.expect("at least one set-up ran");
    let mut probe = if config.trace {
        Some(LayerProbe::new(
            &setup.system,
            &setup.model,
            &setup.frames,
            &setup.expected,
        )?)
    } else {
        None
    };

    // Warm-up: one untimed slice per rate, so lazy allocations and cold
    // caches stay out of the timed slices.
    let mut offered = 0u64;
    for rate in RATES {
        let mut discard = RateLog::default();
        offered += run_slice(
            &service,
            &setup,
            rate,
            config.seed,
            &mut discard,
            &mut outcome.checks,
        );
    }
    let mut logs = [RateLog::default(), RateLog::default()];
    let deadline = Instant::now() + config.measure;
    let mut slice = 0u64;
    while Instant::now() < deadline {
        for (rate, log) in RATES.iter().zip(logs.iter_mut()) {
            let seed = config.seed.wrapping_mul(1_000_003).wrapping_add(slice);
            offered += run_slice(&service, &setup, *rate, seed, log, &mut outcome.checks);
            slice += 1;
        }
        if let Some(probe) = &mut probe {
            probe.window(&mut outcome.checks)?;
        }
    }
    let report = service.shutdown();
    let resolved = report.completed + report.rejected + report.dropped + report.failed;
    outcome.checks.check(offered == resolved, || {
        format!("offered {offered} != completed + rejected + dropped + failed = {resolved}")
    });

    if let Some(probe) = probe {
        probe.report(&mut outcome);
        for (rate, log) in RATES.iter().zip(&logs) {
            let name = |metric: &str| format!("serve.{}.{metric}", rate.name);
            let served = log.completed.max(1) as f64;
            let within = log
                .latency_ms
                .iter()
                .filter(|&&ms| ms <= rate.limit_ms)
                .count();
            for (metric, value, unit) in [
                ("queue_wait_p50_ms", median(&log.queue_ms), "ms"),
                ("queue_wait_p99_ms", quantile(&log.queue_ms, 0.99), "ms"),
                ("service_p50_ms", median(&log.service_ms), "ms"),
                ("batch_mean", served / log.batches.max(1e-9), "requests"),
                ("block_share", log.in_blocks as f64 / served, "1"),
                ("gen_late_p99_ms", quantile(&log.late_ms, 0.99), "ms"),
                ("achieved_rps", log.completed as f64 / log.busy_s, "1/s"),
                ("failed", log.failed as f64, "count"),
                (
                    "within_limit_share",
                    within as f64 / log.latency_ms.len().max(1) as f64,
                    "1",
                ),
            ] {
                outcome.detail(name(metric), value, unit, false);
            }
        }
    } else {
        outcome.host("setup_s", median(&setup_s), "s");
        let [lo, hi] = &logs;
        outcome.host("ops_per_s", median(&hi.slice_capacity), "1/s");
        outcome.host("latency_ms", median(&lo.slice_p50), "ms");
        outcome.host("batch_latency_ms", median(&hi.slice_p50), "ms");
        let (minf, pj) = modeled(&setup, &mut outcome.checks)?;
        outcome.exact("model_minf_per_s", minf, "MInf/s");
        outcome.exact("model_pj_per_inf", pj, "pJ");
        for (rate, log) in RATES.iter().zip(&logs) {
            let name = format!("{}.{}_ms", rate.name, rate.tail.1);
            outcome.detail(name, median(&log.slice_tail), "ms", false);
        }
        outcome.detail("lo.capacity_rps", median(&lo.slice_capacity), "1/s", false);
    }
    let [lo, hi] = &logs;
    outcome.notes.push(format!(
        "serve-open: seed {}, {POOL} frames, 1 worker, greedy batches <= {MAX_BATCH}, {} slices of {} ms; lo {} rps ({} requests), hi {} rps ({} requests)",
        config.seed,
        slice,
        SLICE.as_millis(),
        RATES[0].rps,
        lo.latency_ms.len(),
        RATES[1].rps,
        hi.latency_ms.len()
    ));
    Ok(outcome)
}
