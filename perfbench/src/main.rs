//! End-to-end and per-layer benchmark of the ESAM workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-flow --seed 1 --seconds 20 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Three workloads run from this one process (see `BENCHMARK.json` for why
//! each exists): `paper-flow` (trained network, four simulation paths and
//! the modeled gains), `serve-open` (open-loop Poisson traffic at two fixed
//! rates) and `learn-stream` (online STDP on an untrained readout). Every
//! output is checked; a wrong one counts as a failed operation and the
//! command exits nonzero.
//!
//! Every workload reports the same metrics, each defined on the workload's
//! own traffic (see `README.md`). With `--trace 0` the run reports the
//! end-to-end metrics ([`END_TO_END`]). Every host rate is the 95th
//! percentile of many short per-window rates (see `stats::RATE_QUANTILE`),
//! with the windows of a workload's paths interleaved round-robin for the
//! whole run, so host speed phases hit every path alike. With `--trace 1`
//! a separate run times the layers from outside, around calls into the
//! public functions of each crate, and reports the per-layer metrics
//! ([`PER_LAYER`]). The last stdout line is the result object; the line
//! before it records the machine fingerprint, the window statistics of
//! every host rate and the workload's own figures beyond the shared list.

mod layers;
mod learn_stream;
mod paper_flow;
mod serve_open;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use stats::{json_number, json_string, Outcome};

/// Error type of the benchmark: any library error, boxed.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every input is made from.
    pub seed: u64,
    /// Length of the timed section.
    pub measure: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Least number of set-ups per run (their median is reported).
    pub setup_reps: usize,
    /// Set-up is repeated, beyond `setup_reps`, until this much time has
    /// gone into it, so that a quick set-up's median rests on many
    /// repetitions.
    pub setup_budget: Duration,
}

/// Most set-ups in one run, however quick.
const MAX_SETUPS: usize = 25;

impl RunConfig {
    /// Whether to run another set-up after `done` of them took `spent`.
    pub fn another_setup(&self, done: usize, spent: Duration) -> bool {
        done < self.setup_reps.max(1) || (spent < self.setup_budget && done < MAX_SETUPS)
    }
}

const WORKLOADS: [&str; 3] = ["paper-flow", "serve-open", "learn-stream"];

/// The end-to-end metrics every workload reports with `--trace 0`, in the
/// order of `BENCHMARK.json`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "latency_ms",
    "batch_latency_ms",
    "model_minf_per_s",
    "model_pj_per_inf",
];

/// The per-layer metrics every workload reports with `--trace 1`, in the
/// order of `BENCHMARK.json`.
const PER_LAYER: [&str; 20] = [
    "bits.transpose_us_per_block",
    "arbiter.grant_ns",
    "sram.read_ns",
    "sram.checked_read_ns",
    "sram.checked_reads_per_frame",
    "sram.transposed_write_ns",
    "neuron.integrate_ns",
    "core.tile0.seq_us",
    "core.tile0.block_us",
    "core.tile0.spikes_in",
    "core.tile0.active_cycles",
    "core.tiles.seq_us",
    "core.tiles.block_us",
    "core.tiles.spikes_in",
    "core.tiles.active_cycles",
    "core.walk_us",
    "core.checked_us",
    "core.closure_share",
    "nn.forward_us",
    "trace.overhead_share",
];

/// Puts the outcome's metrics in manifest order, and fails unless they are
/// exactly the manifest's list for the run's mode, each a finite number.
fn conform(workload: &str, trace: bool, outcome: &mut Outcome) -> BenchResult<()> {
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ordered = Vec::with_capacity(names.len());
    for name in names {
        let found: Vec<usize> = (0..outcome.metrics.len())
            .filter(|&i| outcome.metrics[i].name == *name)
            .collect();
        match found[..] {
            [i] if outcome.metrics[i].value.is_finite() => {
                ordered.push(outcome.metrics[i].clone());
            }
            [i] => {
                return Err(
                    format!("{workload}: metric {name} is {}", outcome.metrics[i].value).into(),
                )
            }
            _ => {
                return Err(
                    format!("{workload}: metric {name} reported {} times", found.len()).into(),
                )
            }
        }
    }
    if let Some(extra) = outcome
        .metrics
        .iter()
        .find(|m| !names.contains(&m.name.as_str()))
    {
        return Err(format!("{workload}: metric {} is not in the manifest", extra.name).into());
    }
    outcome.metrics = ordered;
    Ok(())
}

/// Names in `BENCHMARK.json` (workloads, end-to-end and per-layer
/// metrics), read without a JSON parser: every string after a `"name"` key.
fn manifest_names() -> BenchResult<Vec<String>> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect())
}

fn run_workload(name: &str, config: &RunConfig) -> BenchResult<Outcome> {
    let mut outcome = match name {
        "paper-flow" => paper_flow::run(config),
        "serve-open" => serve_open::run(config),
        "learn-stream" => learn_stream::run(config),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}").into()),
    }?;
    conform(name, config.trace, &mut outcome)?;
    Ok(outcome)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// First line of `rustc --version`, or "unknown".
fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// CPU model name from `/proc/cpuinfo`, or "unknown".
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The steadiness record: machine fingerprint plus, per host rate, the
/// window count, the reported quantile and the window IQR share.
fn record_line(workload: &str, args: &Args, outcome: &Outcome) -> String {
    let windows: Vec<String> = outcome
        .windows
        .iter()
        .map(|(name, w)| {
            format!(
                "{}:{{\"windows\":{},\"quantile\":{},\"iqr_share\":{}}}",
                json_string(name),
                w.count(),
                json_number(stats::RATE_QUANTILE),
                json_number(w.iqr_share())
            )
        })
        .collect();
    format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"rustc\":{},\"cpu\":{},\"host_rates\":{{{}}},\"details\":{}}}}}",
        json_string(workload),
        args.seed,
        json_number(args.seconds),
        args.trace,
        nproc(),
        json_string(&rustc_version()),
        json_string(&cpu_model()),
        windows.join(","),
        metrics_object(&outcome.details)
    )
}

/// `{"name": {"value": v, "unit": u}, ...}` of a metric list.
fn metrics_object(metrics: &[stats::Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.checks.failed == 0,
        outcome.checks.attempted,
        outcome.checks.failed,
        metrics_object(&outcome.metrics)
    )
}

/// Requires `BENCHMARK.json` to name exactly the workloads and metrics this
/// binary reports, then runs every workload twice (short, single set-up)
/// and requires every deterministic figure — modeled metrics, accuracy,
/// exact counts — to repeat bit for bit, and every check to pass.
fn self_test(seed: u64) -> BenchResult<()> {
    let mut listed = manifest_names()?;
    let mut known: Vec<String> = WORKLOADS
        .iter()
        .chain(&END_TO_END)
        .chain(&PER_LAYER)
        .map(|s| s.to_string())
        .collect();
    listed.sort();
    known.sort();
    if listed != known {
        return Err(format!(
            "BENCHMARK.json names differ from the binary's:\n{listed:?}\n{known:?}"
        )
        .into());
    }
    println!("self-test BENCHMARK.json: {} names match", known.len());
    for workload in WORKLOADS {
        for trace in [false, true] {
            let config = RunConfig {
                seed,
                measure: Duration::from_millis(500),
                trace,
                setup_reps: 1,
                setup_budget: Duration::ZERO,
            };
            let first = run_workload(workload, &config)?;
            let second = run_workload(workload, &config)?;
            for outcome in [&first, &second] {
                if let Some(failure) = &outcome.checks.first_failure {
                    return Err(format!("{workload}: check failed: {failure}").into());
                }
            }
            let exact = |o: &Outcome| -> Vec<(String, u64)> {
                o.metrics
                    .iter()
                    .chain(&o.details)
                    .filter(|m| m.exact)
                    .map(|m| (m.name.clone(), m.value.to_bits()))
                    .collect()
            };
            let (a, b) = (exact(&first), exact(&second));
            if a != b || (!trace && a.is_empty()) {
                return Err(format!(
                    "{workload} (trace {trace}): deterministic metrics differ between two runs:\n{a:?}\n{b:?}"
                )
                .into());
            }
            println!(
                "self-test {workload} trace={}: {} deterministic metrics repeat exactly",
                u8::from(trace),
                a.len()
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return match self_test(args.seed) {
            Ok(()) => {
                println!("self-test ok");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench self-test: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload.clone() else {
        eprintln!("perfbench: --workload is required (one of {WORKLOADS:?})");
        return ExitCode::from(2);
    };
    let config = RunConfig {
        seed: args.seed,
        measure: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        setup_reps: 3,
        setup_budget: Duration::from_secs(2),
    };
    let outcome = match run_workload(&workload, &config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in outcome.metrics.iter().chain(&outcome.details) {
        println!("# {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", record_line(&workload, &args, &outcome));
    println!("{}", result_line(&outcome));
    if let Some(failure) = &outcome.checks.first_failure {
        eprintln!(
            "perfbench: {workload}: {} of {} checked operations failed; first: {failure}",
            outcome.checks.failed, outcome.checks.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
