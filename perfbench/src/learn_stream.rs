//! `learn-stream`: an `OnlineSession` streaming labelled digits into an
//! untrained 768:10 readout with 1RW+4R cells.
//!
//! Each window clones the untrained system and replays the same stream
//! prefix, so every window does identical work: inference reads beside
//! transposed-port weight writes on copy-on-write `Arc` weights. A change
//! that makes writes or clones dearer shows here and nowhere else.
//! `ops_per_s` is the rate of labelled samples through the session. Beside
//! each learning window, the readout taught on the whole stream answers
//! held-out digits one by one (`latency_ms`) and in 64-frame blocks
//! (`batch_latency_ms`). The modeled metrics are the mean over the
//! reference session and more sessions on streams drawn from the seed,
//! their weight writes included. The traced run adds the shared layer probe
//! on the untrained readout.

use std::time::{Duration, Instant};

use esam_bits::{BitVec, FrameBlock};
use esam_core::{
    EsamSystem, InferenceResult, OnlineLearningEngine, OnlineSession, SampleOutcome, SystemConfig,
    SystemMetrics,
};
use esam_nn::{
    derive_teacher_signals, BnnNetwork, Dataset, DigitsConfig, SnnModel, StdpRule, CLASSES,
    CROPPED_PIXELS,
};
use esam_sram::BitcellKind;

use crate::layers::{check_results, chunk, LayerProbe, BLOCK_WINDOW};
use crate::stats::{median, Checks, Outcome, Windows};
use crate::{BenchResult, RunConfig};

/// Seed of the untrained readout: the same in every run, while `--seed`
/// picks the digits, the stream order and the STDP random stream.
const READOUT_SEED: u64 = 7;
/// Labelled samples of the stream the reference session learns.
const TRAIN_COUNT: usize = 4096;
/// Held-out samples for the accuracy after the stream.
const TEST_COUNT: usize = 1000;
/// Samples each timed window replays from the start of the stream.
const PREFIX: usize = 512;
/// Streams the modeled metrics average over: the seed's own and more drawn
/// from it. One stream's modeled energy moves ~5 % with the seed, because
/// its weight writes, the larger part of it, follow the number of updates.
const MODEL_STREAMS: u64 = 8;

const TOPOLOGY: [usize; 2] = [CROPPED_PIXELS, CLASSES];

/// The teacher-driven stochastic rule every session applies. Gentler
/// than the learning-curve experiment's (0.4, 0.02): over ten seeds its
/// held-out accuracy after the stream spread 6 % of the median, against
/// 37 % for the steeper rule on a shorter stream.
fn rule() -> StdpRule {
    StdpRule::new(0.1, 0.01)
}

struct Setup {
    model: SnnModel,
    dataset: Dataset,
    sys4: EsamSystem,
    sys1: EsamSystem,
    stream: Vec<(BitVec, usize)>,
    test_frames: Vec<BitVec>,
}

fn digits(seed: u64, test_count: usize) -> BenchResult<Dataset> {
    Ok(Dataset::generate(&DigitsConfig {
        train_count: TRAIN_COUNT,
        test_count,
        seed,
        ..DigitsConfig::default()
    })?)
}

fn labelled_stream(dataset: &Dataset, seed: u64) -> Vec<(BitVec, usize)> {
    dataset
        .train
        .stream(seed)
        .map(|(frame, label)| (frame, label as usize))
        .collect()
}

fn prepare(seed: u64) -> BenchResult<Setup> {
    let dataset = digits(seed, TEST_COUNT)?;
    let model = SnnModel::from_bnn(&BnnNetwork::new(&TOPOLOGY, READOUT_SEED)?)?;
    let test_frames = (0..dataset.test.len())
        .map(|i| dataset.test.spikes(i))
        .collect();
    let system = |cell| -> BenchResult<EsamSystem> {
        Ok(EsamSystem::from_model(
            &model,
            &SystemConfig::builder(cell, &TOPOLOGY).build()?,
        )?)
    };
    let sys4 = system(BitcellKind::multiport(4)?)?;
    let sys1 = system(BitcellKind::Std6T)?;
    let stream = labelled_stream(&dataset, seed);
    Ok(Setup {
        model,
        test_frames,
        dataset,
        sys4,
        sys1,
        stream,
    })
}

/// Streams `samples` through a fresh session on a clone of `untrained`.
/// Returns the per-sample outcomes, the taught system, the session's
/// modeled metrics and the modeled learning energy per update in pJ.
fn session(
    untrained: &EsamSystem,
    samples: &[(BitVec, usize)],
    seed: u64,
) -> BenchResult<(Vec<SampleOutcome>, EsamSystem, SystemMetrics, f64)> {
    let mut system = untrained.clone();
    let mut session = OnlineSession::new(&mut system, rule(), seed);
    let outcomes = samples
        .iter()
        .map(|(frame, label)| session.learn_sample(frame, *label))
        .collect::<Result<Vec<_>, _>>()?;
    let metrics = session.finalize_metrics()?;
    let learning = metrics
        .learning
        .as_ref()
        .ok_or("an online session reports its learning cost")?;
    let pj_per_update = learning.cost.energy.pj() / learning.updates.max(1) as f64;
    Ok((outcomes, system, metrics, pj_per_update))
}

/// Modeled MInf/s and pJ per inference, each the mean over
/// [`MODEL_STREAMS`] sessions: `first` (the seed's own) and sessions on
/// fresh digits and orders drawn from `seed`.
fn modeled(setup: &Setup, seed: u64, first: &SystemMetrics) -> BenchResult<(f64, f64)> {
    let (mut minf, mut pj) = (first.throughput_minf_s(), first.energy_per_inf.pj());
    for k in 1..MODEL_STREAMS {
        let stream_seed = seed.wrapping_mul(MODEL_STREAMS).wrapping_add(k);
        let stream = labelled_stream(&digits(stream_seed, 1)?, stream_seed);
        let (_, _, metrics, _) = session(&setup.sys4, &stream, stream_seed)?;
        minf += metrics.throughput_minf_s();
        pj += metrics.energy_per_inf.pj();
    }
    let n = MODEL_STREAMS as f64;
    Ok((minf / n, pj / n))
}

/// One untimed-set-up, timed replay of the stream prefix through
/// `infer_traced` + `teach_system`, the two halves of `learn_sample`, each
/// timed on its own. Returns (window seconds, infer seconds, teach seconds,
/// teach calls).
fn traced_window(
    setup: &Setup,
    seed: u64,
    want: &[SampleOutcome],
    checks: &mut Checks,
) -> BenchResult<(f64, f64, f64, usize)> {
    let start = Instant::now();
    let mut system = setup.sys4.clone();
    let mut engine = OnlineLearningEngine::new(rule(), seed);
    let layer = system.tiles().len() - 1;
    let (mut infer_s, mut teach_s, mut teaches) = (0.0, 0.0, 0usize);
    for ((frame, label), want) in setup.stream[..PREFIX].iter().zip(want) {
        let t = Instant::now();
        let traced = system.infer_traced(frame)?;
        infer_s += t.elapsed().as_secs_f64();
        let mut observed = traced.result.output_spikes.clone();
        observed.set(traced.result.prediction, true);
        let pre = &traced.layer_inputs[layer];
        for (neuron, signal) in derive_teacher_signals(&observed, *label) {
            let t = Instant::now();
            engine.teach_system(&mut system, layer, pre, neuron, signal)?;
            teach_s += t.elapsed().as_secs_f64();
            teaches += 1;
        }
        checks.check(traced.result.prediction == want.prediction, || {
            "traced learning replay predicted differently".into()
        });
    }
    Ok((start.elapsed().as_secs_f64(), infer_s, teach_s, teaches))
}

/// Runs `learn-stream`.
pub fn run(config: &RunConfig) -> BenchResult<Outcome> {
    let mut outcome = Outcome::default();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup = None;
    while config.another_setup(setup_s.len(), Duration::from_secs_f64(setup_s.iter().sum())) {
        let t = Instant::now();
        setup = Some(prepare(config.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up ran");

    // Reference sessions over the whole stream: 1RW+4R and 1RW must
    // predict identically sample by sample.
    let (want, mut taught, metrics, pj4) = session(&setup.sys4, &setup.stream, config.seed)?;
    let (want_1rw, _, _, pj1) = session(&setup.sys1, &setup.stream, config.seed)?;
    for (i, (a, b)) in want.iter().zip(&want_1rw).enumerate() {
        outcome.checks.check(a.prediction == b.prediction, || {
            format!("sample {i}: 1RW+4R and 1RW sessions predict differently")
        });
    }
    let test = &setup.dataset.test;
    let answers: Vec<InferenceResult> = setup
        .test_frames
        .iter()
        .map(|f| taught.infer(f))
        .collect::<Result<_, _>>()?;
    let correct = answers
        .iter()
        .enumerate()
        .filter(|(i, r)| r.prediction == test.label(*i) as usize)
        .count();
    let accuracy = correct as f64 / test.len() as f64;
    let updates: usize = want.iter().map(|o| o.updates).sum();
    // The layer probe runs on the untrained readout: the system has no
    // way back to an `SnnModel` once taught, and the probe checks every
    // layer against the model's forward pass.
    let mut probe = if config.trace {
        let mut untrained = setup.sys4.clone();
        let untrained_answers: Vec<InferenceResult> = setup
            .test_frames
            .iter()
            .map(|f| untrained.infer(f))
            .collect::<Result<_, _>>()?;
        Some(LayerProbe::new(
            &setup.sys4,
            &setup.model,
            &setup.test_frames,
            &untrained_answers,
        )?)
    } else {
        None
    };

    let prefix = &setup.stream[..PREFIX];
    let total = setup.test_frames.len();
    let (mut learn, mut seq, mut block) =
        (Windows::default(), Windows::default(), Windows::default());
    let (mut infer_us, mut teach_us) = (Vec::new(), Vec::new());
    let mut predictions = Vec::with_capacity(PREFIX);
    let mut out = Vec::with_capacity(BLOCK_WINDOW);
    let deadline = Instant::now() + config.measure;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let checks = &mut outcome.checks;
        predictions.clear();
        let t = Instant::now();
        let mut system = setup.sys4.clone();
        let mut session = OnlineSession::new(&mut system, rule(), config.seed);
        for (frame, label) in prefix {
            predictions.push(session.learn_sample(frame, *label)?.prediction);
        }
        learn.push(PREFIX, t.elapsed().as_secs_f64());
        for (i, (got, want)) in predictions.iter().zip(&want).enumerate() {
            checks.check(*got == want.prediction, || {
                format!("window replay of sample {i} predicted differently")
            });
        }

        let range = chunk(k, BLOCK_WINDOW, total);
        let frames = &setup.test_frames[range.clone()];
        out.clear();
        let t = Instant::now();
        for frame in frames {
            out.push(taught.infer(frame)?);
        }
        seq.push(frames.len(), t.elapsed().as_secs_f64());
        check_results(
            checks,
            "taught seq",
            &out,
            &answers[range.clone()],
            range.start,
        );
        let t = Instant::now();
        let got = taught.infer_block(frames)?;
        block.push(frames.len(), t.elapsed().as_secs_f64());
        check_results(
            checks,
            "taught block",
            &got,
            &answers[range.clone()],
            range.start,
        );

        if let Some(probe) = &mut probe {
            let (_, infer_s, teach_s, teaches) = traced_window(&setup, config.seed, &want, checks)?;
            infer_us.push(infer_s / PREFIX as f64 * 1e6);
            teach_us.push(teach_s / teaches.max(1) as f64 * 1e6);
            probe.window(checks)?;
        }
        k += 1;
    }

    if let Some(probe) = probe {
        probe.report(&mut outcome);
        outcome.detail("learn.infer_us", median(&infer_us), "us", false);
        outcome.detail("learn.teach_us", median(&teach_us), "us", false);
        outcome.detail(
            "learn.updates_per_sample",
            updates as f64 / want.len() as f64,
            "count",
            true,
        );
        outcome.detail("learn.model_pj_per_update", pj4, "pJ", true);
        outcome.detail("learn.1rw.model_pj_per_update", pj1, "pJ", true);
    } else {
        outcome.host("setup_s", median(&setup_s), "s");
        outcome.rate("ops_per_s", learn, "1/s");
        outcome.host("latency_ms", 1e3 / seq.rate(), "ms");
        outcome.host(
            "batch_latency_ms",
            FrameBlock::LANES as f64 * 1e3 / block.rate(),
            "ms",
        );
        let (minf, pj) = modeled(&setup, config.seed, &metrics)?;
        outcome.exact("model_minf_per_s", minf, "MInf/s");
        outcome.exact("model_pj_per_inf", pj, "pJ");
        outcome.detail("accuracy", accuracy, "fraction", true);
        outcome.rate_detail("taught.seq_fps", seq, "frames/s");
        outcome.rate_detail("taught.block_fps", block, "frames/s");
    }
    outcome.notes.push(format!(
        "learn-stream: seed {}, {}-sample stream ({updates} updates), {PREFIX}-sample windows, held-out accuracy {accuracy:.4} on {} digits",
        config.seed,
        setup.stream.len(),
        test.len()
    ));
    Ok(outcome)
}
