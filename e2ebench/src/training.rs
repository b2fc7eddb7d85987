//! The two training workloads.
//!
//! * `zk-digits` — ZK-GanDef (Algorithm 1) trains LeNet on SynthDigits on
//!   the harness schedule; the trained model is then scored on clean and
//!   σ = 1 Gaussian-perturbed test inputs. Never calls the attack layer.
//! * `pgd-cifar` — PGD-Adv trains AllCNN on SynthCifar; `eval::evaluate`
//!   then runs the Table III/IV evaluation of the trained model with FGSM,
//!   BIM, PGD, DeepFool and CW.
//!
//! A round trains a fresh model from the same initial weights on the same
//! data with the same random stream, so every round does identical work.
//! Rates are taken over all of a run's rounds; latency percentiles are the
//! median over its prediction blocks.

use std::sync::Arc;
use std::time::Instant;

use gandef_attack::{Attack, AttackBudget};
use gandef_data::{generate, preprocess, Dataset, DatasetKind, GenSpec};
use gandef_nn::{Classifier, Net};
use gandef_tensor::pool;
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;
use zk_gandef::defense::{AdvTraining, Defense, GanDef, TrainReport};
use zk_gandef::{eval, TrainConfig};

use crate::instr::{AllocCount, Observed};
use crate::{checks, probes, stats, Ctx, Outcome, Workload};

/// Sizes of one training workload.
struct Spec {
    kind: DatasetKind,
    /// Training-set examples.
    train: usize,
    /// Training epochs per round (the harness schedule).
    epochs: usize,
    /// Test images generated; the scored or attacked examples and the
    /// single-image predictions are drawn from them.
    test: usize,
    /// Test examples scored (zk-digits) or attacked (pgd-cifar) per round.
    eval: usize,
    /// Blocks of `LATENCY_BLOCK` single-image predictions timed per round
    /// for `predict_p50_ms`.
    latency_blocks: usize,
}

/// Single-image predictions per timed block: ten lie beyond its 99th
/// percentile. Each block gives one p50 and one p99; the run reports the
/// median over its blocks.
const LATENCY_BLOCK: usize = 1000;

/// 36 epochs, as the harness: γ warms up over the first quarter, and a
/// shorter schedule leaves LeNet near chance after divergence rollbacks.
const ZK: Spec = Spec {
    kind: DatasetKind::SynthDigits,
    train: 300,
    epochs: 36,
    test: 1000,
    eval: 1000,
    latency_blocks: 1,
};

/// The harness schedule for the 32×32 dataset (6 epochs, 5 training PGD
/// steps). 64 attacked examples, as the Table III/IV harnesses: two
/// evaluation chunks, so `perturb_chunked` fans out over the pool. A round
/// takes most of a run, so it times three prediction blocks.
const PGD: Spec = Spec {
    kind: DatasetKind::SynthCifar,
    train: 128,
    epochs: 6,
    test: 1024,
    eval: 64,
    latency_blocks: 3,
};

/// Of the 64 attacked examples, how many the trained model classifies
/// correctly; the rest it misclassifies. DeepFool only works on examples
/// still classified correctly, so a fixed make-up keeps the evaluation's
/// work from following the model's clean accuracy, which swings between
/// 0.25 and 0.41 across seeds. A quarter keeps DeepFool's share of the
/// evaluation near what the harness's clean accuracy gives.
const PGD_CORRECT: usize = 16;

/// Times each run sets its inputs up; `setup_s` is the median of their
/// process CPU seconds.
pub const SETUP_REPS: usize = 9;

/// σ of the zero-knowledge Gaussian perturbation (§IV-B).
const SIGMA: f32 = 1.0;

/// Accuracy floors of the zk-digits checks. Chance is 0.1 on ten
/// balanced classes.
const ZK_CLEAN_FLOOR: f32 = 0.5;
const ZK_NOISY_FLOOR: f32 = 0.2;

/// Times each zk-digits round scores the test images, with fresh noise
/// each time: one pass takes well under a CPU second, too short to time
/// steadily.
const ZK_EVAL_PASSES: usize = 3;

/// Test images per scoring call on zk-digits. At 1000 images a call,
/// LeNet's activations (37 MB for the first layer) leave the cache, and
/// the scoring rate per CPU second read 1550 in some processes and 2000
/// in others.
const ZK_SCORE_BATCH: usize = 100;

/// Share of the attacked examples by which an attack's accuracy may
/// exceed clean accuracy (a single-step attack can flip a misclassified
/// example to the right class), and PGD's accuracy FGSM's.
const ATTACK_TOL: f32 = 0.05;

/// Times `LATENCY_BLOCK` single-image predictions of `net`, one tape-free
/// forward pass each, cycling through the rows of `images`; returns their
/// p50 and p99 in ms.
pub fn prediction_block(net: &Net, images: &Tensor) -> (f64, f64) {
    let rows: Vec<Tensor> = (0..LATENCY_BLOCK)
        .map(|i| images.row(i % images.dim(0)))
        .collect();
    let mut latencies_ms = Vec::with_capacity(rows.len());
    for row in &rows {
        let t = Instant::now();
        std::hint::black_box(net.logits(row));
        latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (
        stats::percentile(&latencies_ms, 0.5),
        stats::percentile(&latencies_ms, 0.99),
    )
}

fn spec(w: Workload) -> &'static Spec {
    match w {
        Workload::ZkDigits => &ZK,
        _ => &PGD,
    }
}

fn config(spec: &Spec) -> TrainConfig {
    let mut cfg = TrainConfig::quick(spec.kind);
    cfg.epochs = spec.epochs;
    cfg.train_pgd_iters = 5;
    cfg
}

fn defense(w: Workload) -> Box<dyn Defense> {
    match w {
        Workload::ZkDigits => Box::new(GanDef::zero_knowledge()),
        _ => Box::new(AdvTraining::pgd()),
    }
}

/// FGSM, BIM, PGD, DeepFool and CW.
const TABLE_ATTACKS: usize = 5;

/// What one evaluation of the Table III/IV attacks found.
pub struct AttackEval {
    /// `eval::evaluate`'s accuracies, starting with "Original".
    pub reported: Vec<(String, f32)>,
    /// The chunks each attack produced.
    pub seen: Vec<Arc<Observed>>,
}

/// The five attacks of Table III/IV at the dataset's §IV-C budget.
pub fn table_attacks(budget: &AttackBudget) -> Vec<Box<dyn Attack>> {
    let mut attacks = eval::standard_attacks(budget);
    attacks.extend(eval::extended_attacks(budget));
    attacks
}

/// Runs `eval::evaluate` with the Table III/IV attacks, each wrapped so
/// its examples can be checked.
pub fn evaluate_attacks(
    net: &Net,
    budget: &AttackBudget,
    x: &Tensor,
    y: &[usize],
    rng: &mut Prng,
) -> AttackEval {
    let (wrapped, seen): (Vec<Box<dyn Attack>>, Vec<Arc<Observed>>) = table_attacks(budget)
        .into_iter()
        .map(Observed::wrap)
        .unzip();
    let reported = eval::evaluate(net, &wrapped, x, y, rng);
    AttackEval { reported, seen }
}

/// Checks an evaluation against the benchmark's own computations. Every
/// adversarial example is an operation; one outside its ℓ∞ ball or the
/// pixel range fails. Then: every attack produced every example, the
/// accuracies `eval::evaluate` reports agree with the benchmark's argmax,
/// no attack beats clean accuracy, and PGD is at least as strong as FGSM.
pub fn check_attacks(
    net: &Net,
    found: &AttackEval,
    x: &Tensor,
    y: &[usize],
    eps: f32,
    out: &mut Outcome,
) {
    let clean = checks::accuracy(&net.logits(x), y);
    let mut mine = vec![("Original".to_string(), clean)];
    if found.seen.len() != TABLE_ATTACKS {
        out.problems.push(format!(
            "{} attacks ran, not {TABLE_ATTACKS}",
            found.seen.len()
        ));
    }
    for seen in &found.seen {
        let (mut rows, mut hits, mut outside) = (0, 0.0f32, 0);
        for c in seen.take_chunks() {
            rows += c.labels.len();
            outside += checks::rows_outside_budget(&c.adv, &c.x, eps);
            hits += checks::accuracy(&net.logits(&c.adv), &c.labels) * c.labels.len() as f32;
        }
        out.attempted += rows as u64;
        out.failed += outside as u64;
        if rows != y.len() {
            out.problems.push(format!(
                "{} produced {rows} of {} adversarial examples",
                seen.name(),
                y.len()
            ));
        }
        mine.push((seen.name().to_string(), hits / rows.max(1) as f32));
    }
    let accs: Vec<String> = mine.iter().map(|(n, a)| format!("{n} {a:.3}")).collect();
    eprintln!("e2ebench: accuracy {}", accs.join(", "));
    out.check(checks::same_accuracies(&found.reported, &mine, y.len()));
    for (name, acc) in &mine[1..] {
        out.check(checks::attack_not_above_clean(
            name, *acc, clean, ATTACK_TOL,
        ));
    }
    let acc_of = |n: &str| mine.iter().find(|r| r.0 == n).map(|r| r.1);
    match (acc_of("PGD"), acc_of("FGSM")) {
        (Some(pgd), Some(fgsm)) => out.check(checks::pgd_at_least_fgsm(pgd, fgsm, ATTACK_TOL)),
        _ => out
            .problems
            .push("PGD or FGSM missing from the attack set".into()),
    }
}

struct Inputs {
    ds: Dataset,
    init: Prng,
}

/// Generates the dataset and initializes the classifier, `SETUP_REPS`
/// times; returns the last inputs and the median set-up CPU seconds.
fn setup(ctx: &Ctx, spec: &Spec) -> (Inputs, f64) {
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let c = stats::cpu_s();
        let built = ctx.tracer.span("setup", || {
            let ds = ctx.tracer.span("data.generate", || {
                generate(
                    spec.kind,
                    &GenSpec {
                        train: spec.train,
                        test: spec.test,
                        seed: ctx.seed,
                    },
                )
            });
            let init = Prng::new(ctx.seed ^ 0x1A17);
            let net = ctx.tracer.span("nn.init", || {
                zk_gandef::classifier_for(spec.kind, &mut init.clone())
            });
            std::hint::black_box(&net);
            Inputs { ds, init }
        });
        times.push(stats::cpu_s() - c);
        inputs = Some(built);
    }
    (
        inputs.expect("SETUP_REPS is positive"),
        stats::median(&times),
    )
}

/// What a run measured over its rounds.
#[derive(Default)]
struct Rounds {
    train: stats::Phase,
    eval: stats::Phase,
    /// Per prediction block; the run reports their medians.
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
}

/// Per-layer figures of the first traced round.
struct Traced {
    train_alloc: AllocCount,
    train_jobs: u64,
    train_items: f64,
    report: TrainReport,
    /// The pgd-cifar evaluation set, which the attack probe reuses.
    attacked: Option<(Tensor, Vec<usize>)>,
    net: Net,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let spec = spec(ctx.workload);
    let mut out = Outcome::default();
    ctx.instruments(ctx.traced);
    let (inputs, setup_s) = setup(ctx, spec);
    let mut rounds = Rounds::default();
    let mut first_traced: Option<Traced> = None;
    let (mut done, mut longest) = (0, 0.0f64);
    while ctx.another_round(done, longest) {
        let t = Instant::now();
        let layer = ctx.tracer.span("round", || {
            one_round(ctx, spec, &inputs, &mut rounds, &mut out)
        });
        longest = longest.max(t.elapsed().as_secs_f64());
        if first_traced.is_none() {
            first_traced = layer;
        }
        done += 1;
    }
    ctx.instruments(false);
    eprintln!("e2ebench: {done} rounds");

    if !ctx.traced {
        out.metric("setup_s", setup_s);
        eprintln!(
            "e2ebench: wall-clock rates: train {:.2}/s, eval {:.2}/s; prediction p99 {:.3} ms",
            rounds.train.per_s(),
            rounds.eval.per_s(),
            stats::median(&rounds.p99_ms)
        );
        out.metric("throughput_per_cpu_s", rounds.train.per_cpu_s());
        out.metric("eval_per_cpu_s", rounds.eval.per_cpu_s());
        out.metric("predict_p50_ms", stats::median(&rounds.p50_ms));
        return out;
    }

    let layer = first_traced.expect("the traced run has a traced round");
    let per = |v: f64| v / layer.train_items;
    out.metric(
        "tensor.alloc_mb_per_sample",
        per(layer.train_alloc.bytes as f64) / probes::MB,
    );
    out.metric(
        "tensor.allocs_per_sample",
        per(layer.train_alloc.allocs as f64),
    );
    out.metric("tensor.pool_jobs_per_sample", per(layer.train_jobs as f64));
    out.metric(
        "data.generate_s",
        stats::median(&ctx.tracer.durations("data.generate")),
    );
    out.metric(
        "core.epoch_s_p50",
        stats::median(&layer.report.epoch_seconds),
    );
    out.metric("core.rollbacks", checks::rollbacks(&layer.report) as f64);

    let ds = &inputs.ds;
    let batch = config(spec).batch;
    let (xb, yb) = (ds.train_x.slice_rows(0, batch), &ds.train_y[..batch]);
    probes::layer_probes(ctx, spec.kind, &layer.net, &xb, yb, &mut out);
    probes::training_overhead(ctx, spec.kind, &layer.net, &xb, yb, &mut out);
    let (x, y) = layer
        .attacked
        .unwrap_or_else(|| ds.test_subset(probes::ATTACK_PROBE_ROWS));
    let attacks = probes::attack_probe(ctx, &layer.net, &x, &y, &config(spec).budget, &mut out);
    probes::attack_metrics(&attacks, &mut out);
    probes::serve_probe(ctx, spec.kind, &layer.net, &ds.test_x, &mut out);
    out
}

/// Pool indices of the pgd-cifar evaluation set: the first `PGD_CORRECT`
/// test images `net` classifies correctly and the first `eval −
/// PGD_CORRECT` it misclassifies, in the generator's (seeded) order.
fn eval_set(net: &Net, ds: &Dataset, eval: usize) -> Result<Vec<usize>, String> {
    let pred = checks::argmax_rows(&net.logits(&ds.test_x));
    let (mut right, mut wrong) = (Vec::new(), Vec::new());
    for (i, (p, y)) in pred.iter().zip(&ds.test_y).enumerate() {
        let side = if p == y { &mut right } else { &mut wrong };
        side.push(i);
    }
    if right.len() < PGD_CORRECT || wrong.len() < eval - PGD_CORRECT {
        return Err(format!(
            "the trained model classifies {} of {} test images correctly; the evaluation set needs {PGD_CORRECT} right and {} wrong",
            right.len(),
            pred.len(),
            eval - PGD_CORRECT
        ));
    }
    right.truncate(PGD_CORRECT);
    right.extend_from_slice(&wrong[..eval - PGD_CORRECT]);
    Ok(right)
}

/// One round: train, evaluate, time single-image predictions, check.
/// Returns the per-layer figures in the traced run.
fn one_round(
    ctx: &Ctx,
    spec: &Spec,
    inputs: &Inputs,
    rounds: &mut Rounds,
    out: &mut Outcome,
) -> Option<Traced> {
    let ds = &inputs.ds;
    let cfg = config(spec);
    let mut net = zk_gandef::classifier_for(spec.kind, &mut inputs.init.clone());
    let mut rng = Prng::new(ctx.seed).fork(0x7EA1);
    let defense = defense(ctx.workload);

    let (a0, j0) = (AllocCount::now(), pool::stats().jobs_completed);
    let report = rounds.train.time(spec.train * cfg.epochs, || {
        ctx.tracer
            .span("core.train", || defense.train(&mut net, ds, &cfg, &mut rng))
    });
    let (train_alloc, train_jobs) = (
        AllocCount::now().since(a0),
        pool::stats().jobs_completed - j0,
    );
    let train_items = (spec.train * cfg.epochs) as f64;
    out.check(checks::training_sound(&report));
    out.attempted += cfg.epochs as u64;
    out.failed += checks::epochs_failed(&report, cfg.epochs);

    let mut attacked = None;
    match ctx.workload {
        Workload::ZkDigits => {
            let (x, y) = ds.test_subset(spec.eval);
            let mut noise_rng = rng.fork(0x5EED);
            for _ in 0..ZK_EVAL_PASSES {
                let (clean, noisy) = rounds.eval.time(2 * spec.eval, || {
                    let (mut clean, mut noisy) = (Vec::new(), Vec::new());
                    for start in (0..spec.eval).step_by(ZK_SCORE_BATCH) {
                        let xb = x.slice_rows(start, (start + ZK_SCORE_BATCH).min(spec.eval));
                        clean.push(ctx.tracer.span("nn.logits", || net.logits(&xb)));
                        let noisy_x = ctx.tracer.span("data.noise", || {
                            preprocess::gaussian_perturb(&xb, SIGMA, &mut noise_rng)
                        });
                        noisy.push(ctx.tracer.span("nn.logits", || net.logits(&noisy_x)));
                    }
                    let rows = |v: &[Tensor]| Tensor::concat_rows(&v.iter().collect::<Vec<_>>());
                    (rows(&clean), rows(&noisy))
                });
                let (clean_acc, noisy_acc) =
                    (checks::accuracy(&clean, &y), checks::accuracy(&noisy, &y));
                eprintln!("e2ebench: accuracy clean {clean_acc:.3}, σ=1 Gaussian {noisy_acc:.3}");
                out.check(checks::accuracy_at_least(
                    "clean",
                    clean_acc,
                    ZK_CLEAN_FLOOR,
                ));
                out.check(checks::accuracy_at_least(
                    "σ=1 Gaussian",
                    noisy_acc,
                    ZK_NOISY_FLOOR,
                ));
            }
        }
        _ => {
            let picked = eval_set(&net, ds, spec.eval).unwrap_or_else(|e| {
                out.problems.push(e);
                (0..spec.eval).collect()
            });
            let x = ds.test_x.select_rows(&picked);
            let y: Vec<usize> = picked.iter().map(|&i| ds.test_y[i]).collect();
            let mut eval_rng = rng.fork(0xE7A1);
            let found = rounds.eval.time(TABLE_ATTACKS * spec.eval, || {
                ctx.tracer.span("core.evaluate", || {
                    evaluate_attacks(&net, &cfg.budget, &x, &y, &mut eval_rng)
                })
            });
            check_attacks(&net, &found, &x, &y, cfg.budget.eps, out);
            attacked = Some((x, y));
        }
    }

    for _ in 0..spec.latency_blocks {
        let (p50, p99) = prediction_block(&net, &ds.test_x);
        rounds.p50_ms.push(p50);
        rounds.p99_ms.push(p99);
    }
    ctx.traced.then(|| Traced {
        train_alloc,
        train_jobs,
        train_items,
        report,
        attacked,
        net,
    })
}
