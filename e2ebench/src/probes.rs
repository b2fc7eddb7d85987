//! Per-layer probes of the traced run. Each probe calls the layer's
//! public functions at the workload's own model, shapes and batch, and
//! times them from outside. Where a workload's end-to-end path does not
//! call a layer (the attack layer on `zk-digits`, training on
//! `serve-lenet`), its probe still runs, so every per-layer figure exists
//! on every workload; the README says which end-to-end metric each one
//! should move, and where it should move none.

use std::time::Instant;

use gandef_attack::{perturb_chunked, AttackBudget};
use gandef_data::{generate, preprocess, DatasetKind, GenSpec};
use gandef_nn::optim::{Adam, Optimizer};
use gandef_nn::serialize::{checkpoint_fingerprint, load_params_meta, save_params};
use gandef_nn::{one_hot, Classifier, Mode, Net, Params, Session};
use gandef_tensor::conv::{conv2d, conv2d_backward, ConvSpec};
use gandef_tensor::linalg::matmul;
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;
use zk_gandef::defense::{Defense, GanDef};
use zk_gandef::TrainConfig;

use crate::instr::{set_counting, AllocCount, TimedModel};
use crate::{checks, serving, stats, training, Ctx, Outcome};

/// Bytes per MB in every memory figure (2^20, as `/proc` reports kB).
pub const MB: f64 = 1024.0 * 1024.0;

/// Test examples the attack probe perturbs on workloads whose own path
/// does not attack.
pub const ATTACK_PROBE_ROWS: usize = 32;

/// Each timed probe repeats until this many seconds (and at least
/// `PROBE_REPS` calls) have passed, and reports the median call.
const PROBE_SECONDS: f64 = 0.25;
const PROBE_REPS: usize = 5;

/// The overhead probe alternates at least this many instrumented and
/// plain calls, for at least this many seconds.
const OVERHEAD_PAIRS: usize = 20;
const OVERHEAD_SECONDS: f64 = 1.0;

/// Rows attacked per chunk, as `eval::evaluate` does.
const EVAL_CHUNK: usize = 32;

/// What one attack cost, measured through the timing wrapper.
#[derive(Clone, Copy, Debug)]
pub struct AttackCost {
    pub s: f64,
    pub model_s: f64,
    pub grad_calls: u64,
    pub alloc_bytes: u64,
}

/// Each Table III/IV attack on `(x, y)` through `perturb_chunked`, in
/// evaluation-sized chunks, with the model wrapped in [`TimedModel`] and
/// the allocations of each call counted. Every example is an operation;
/// one outside its ℓ∞ ball or the pixel range fails.
pub fn attack_probe(
    ctx: &Ctx,
    net: &Net,
    x: &Tensor,
    y: &[usize],
    budget: &AttackBudget,
    out: &mut Outcome,
) -> Vec<(String, AttackCost)> {
    let mut rng = Prng::new(ctx.seed).fork(0xA77C);
    set_counting(true);
    let costs = training::table_attacks(budget)
        .iter()
        .map(|attack| {
            let model = TimedModel::new(net);
            let a0 = AllocCount::now();
            let t = Instant::now();
            let adv = ctx.tracer.span("attack.perturb", || {
                perturb_chunked(attack.as_ref(), &model, x, y, EVAL_CHUNK, &mut rng)
            });
            let cost = AttackCost {
                s: t.elapsed().as_secs_f64(),
                model_s: model.model_time().as_secs_f64(),
                grad_calls: model.grad_calls(),
                alloc_bytes: AllocCount::now().since(a0).bytes,
            };
            out.attempted += y.len() as u64;
            out.failed += checks::rows_outside_budget(&adv, x, budget.eps) as u64;
            (attack.name().to_string(), cost)
        })
        .collect();
    set_counting(false);
    costs
}

pub fn attack_metrics(costs: &[(String, AttackCost)], out: &mut Outcome) {
    for (name, cost) in costs {
        let [s, model_s, grad_calls, alloc_mb] = match name.as_str() {
            "FGSM" => [
                "attack.fgsm.s",
                "attack.fgsm.model_s",
                "attack.fgsm.grad_calls",
                "attack.fgsm.alloc_mb",
            ],
            "BIM" => [
                "attack.bim.s",
                "attack.bim.model_s",
                "attack.bim.grad_calls",
                "attack.bim.alloc_mb",
            ],
            "PGD" => [
                "attack.pgd.s",
                "attack.pgd.model_s",
                "attack.pgd.grad_calls",
                "attack.pgd.alloc_mb",
            ],
            "DeepFool" => [
                "attack.deepfool.s",
                "attack.deepfool.model_s",
                "attack.deepfool.grad_calls",
                "attack.deepfool.alloc_mb",
            ],
            "CW" => [
                "attack.cw.s",
                "attack.cw.model_s",
                "attack.cw.grad_calls",
                "attack.cw.alloc_mb",
            ],
            other => {
                out.problems.push(format!("unexpected attack {other}"));
                continue;
            }
        };
        out.metric(s, cost.s);
        out.metric(model_s, cost.model_s);
        out.metric(grad_calls, cost.grad_calls as f64);
        out.metric(alloc_mb, cost.alloc_bytes as f64 / MB);
    }
}

/// A convolution of the zoo models: input side, stride and padding (the
/// filter bank's shape comes from the trained parameters).
struct ConvLayer {
    name: &'static str,
    side: usize,
    spec: ConvSpec,
}

const fn conv(name: &'static str, side: usize, stride: usize, pad: usize) -> ConvLayer {
    ConvLayer {
        name,
        side,
        spec: ConvSpec { stride, pad },
    }
}

/// The convolutions and dense layers of `zoo::lenet` / `zoo::allcnn`.
fn layers(kind: DatasetKind) -> (&'static [ConvLayer], &'static [&'static str]) {
    const LENET: [ConvLayer; 2] = [conv("conv1", 28, 1, 0), conv("conv2", 12, 1, 0)];
    const ALLCNN: [ConvLayer; 6] = [
        conv("conv1", 32, 1, 1),
        conv("conv2", 32, 2, 1),
        conv("conv3", 16, 1, 1),
        conv("conv4", 16, 2, 1),
        conv("conv5", 8, 1, 1),
        conv("conv6", 8, 1, 0),
    ];
    match kind {
        DatasetKind::SynthCifar => (&ALLCNN, &[]),
        _ => (&LENET, &["fc1", "fc2"]),
    }
}

/// One convolution at batch `n`: input, filters, upstream gradient, and
/// its forward FLOPs and bytes moved (input + filters + output, f32).
struct ConvCase {
    input: Tensor,
    weight: Tensor,
    grad_out: Tensor,
    spec: ConvSpec,
    flops: f64,
    bytes: f64,
}

fn conv_cases(kind: DatasetKind, net: &Net, n: usize, rng: &mut Prng) -> Vec<ConvCase> {
    layers(kind)
        .0
        .iter()
        .map(|l| {
            let weight = net.params.get(&format!("{}.w", l.name)).clone();
            let (o, c, k) = (weight.dim(0), weight.dim(1), weight.dim(2));
            let ho = l.spec.out_dim(l.side, k);
            let input = rng.normal_tensor(&[n, c, l.side, l.side], 0.0, 1.0);
            let grad_out = rng.normal_tensor(&[n, o, ho, ho], 0.0, 1.0);
            let flops = 2.0 * (n * o * ho * ho * c * k * k) as f64;
            let bytes = 4.0 * (input.numel() + weight.numel() + grad_out.numel()) as f64;
            ConvCase {
                input,
                weight,
                grad_out,
                spec: l.spec,
                flops,
                bytes,
            }
        })
        .collect()
}

/// Every layer of the model as a GEMM at batch `n`: dense layers as they
/// run, convolutions in their im2col lowering `[n·Ho·Wo, C·k²] × [C·k², O]`.
fn gemm_cases(kind: DatasetKind, net: &Net, n: usize, rng: &mut Prng) -> Vec<(Tensor, Tensor)> {
    let (convs, dense) = layers(kind);
    let mut cases: Vec<(Tensor, Tensor)> = convs
        .iter()
        .map(|l| {
            let w = net.params.get(&format!("{}.w", l.name));
            let (o, c, k) = (w.dim(0), w.dim(1), w.dim(2));
            let ho = l.spec.out_dim(l.side, k);
            (
                rng.normal_tensor(&[n * ho * ho, c * k * k], 0.0, 1.0),
                rng.normal_tensor(&[c * k * k, o], 0.0, 1.0),
            )
        })
        .collect();
    for name in dense {
        let w = net.params.get(&format!("{name}.w")).clone();
        cases.push((rng.normal_tensor(&[n, w.dim(0)], 0.0, 1.0), w));
    }
    cases
}

/// Kernel, autodiff, optimizer, checkpoint and noise probes at the
/// workload's model and training batch `(xb, yb)`.
pub fn layer_probes(
    ctx: &Ctx,
    kind: DatasetKind,
    net: &Net,
    xb: &Tensor,
    yb: &[usize],
    out: &mut Outcome,
) {
    let n = xb.dim(0);
    let mut rng = Prng::new(ctx.seed).fork(0x9B0B);

    let convs = conv_cases(kind, net, n, &mut rng);
    let fwd_flops: f64 = convs.iter().map(|c| c.flops).sum();
    let fwd_s = stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
        for c in &convs {
            std::hint::black_box(conv2d(&c.input, &c.weight, c.spec));
        }
    });
    let bwd_s = stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
        for c in &convs {
            std::hint::black_box(conv2d_backward(&c.grad_out, &c.input, &c.weight, c.spec));
        }
    });
    let conv_bytes: f64 = convs.iter().map(|c| c.bytes).sum();
    // The backward pass computes the input and the filter gradients, each
    // with the forward pass's multiply-adds.
    out.metric("tensor.conv_fwd_gflops", fwd_flops / fwd_s / 1e9);
    out.metric("tensor.conv_bwd_gflops", 2.0 * fwd_flops / bwd_s / 1e9);
    let gemms = gemm_cases(kind, net, n, &mut rng);
    let gemm_flops: f64 = gemms
        .iter()
        .map(|(a, b)| 2.0 * (a.dim(0) * a.dim(1) * b.dim(1)) as f64)
        .sum();
    let gemm_bytes: f64 = gemms
        .iter()
        .map(|(a, b)| 4.0 * (a.numel() + b.numel() + a.dim(0) * b.dim(1)) as f64)
        .sum();
    let gemm_s = stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
        for (a, b) in &gemms {
            std::hint::black_box(matmul(a, b));
        }
    });
    out.metric("tensor.matmul_gflops", gemm_flops / gemm_s / 1e9);
    eprintln!(
        "e2ebench: kernels at batch {n}: conv {:.1} MFLOP / {:.2} MB moved per forward, GEMM {:.1} MFLOP / {:.2} MB",
        fwd_flops / 1e6,
        conv_bytes / MB,
        gemm_flops / 1e6,
        gemm_bytes / MB
    );

    let targets = one_hot(yb, net.num_classes());
    let ms = |s: f64| s * 1e3;
    out.metric(
        "nn.fwd_bwd_ms",
        ms(stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
            std::hint::black_box(fwd_bwd(net, &net.params, xb, &targets));
        })),
    );
    let grads = fwd_bwd(net, &net.params, xb, &targets);
    let mut params = net.params.clone();
    let mut adam = Adam::new(TrainConfig::quick(kind).lr);
    out.metric(
        "nn.adam_ms",
        ms(stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
            adam.step(&mut params, &grads)
        })),
    );
    let one = xb.row(0);
    out.metric(
        "nn.infer_b1_ms",
        ms(stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
            std::hint::black_box(net.model.infer(&net.params, one.clone()));
        })),
    );
    out.metric(
        "nn.infer_b32_ms",
        ms(stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
            std::hint::black_box(net.model.infer(&net.params, xb.clone()));
        })),
    );

    let path = ctx.out_dir.join(format!(
        "probe-{}-seed{}.gndf",
        ctx.workload.name(),
        ctx.seed
    ));
    let saved = std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| e.to_string())
        .and_then(|()| save_params(&net.params, &path).map_err(|e| e.to_string()));
    if let Err(e) = saved {
        out.problems
            .push(format!("cannot save probe checkpoint: {e}"));
        out.metric("nn.load_params_ms", f64::NAN);
        out.metric("nn.fingerprint_ms", f64::NAN);
    } else {
        out.metric(
            "nn.load_params_ms",
            ms(stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
                std::hint::black_box(load_params_meta(&path).ok());
            })),
        );
        out.metric(
            "nn.fingerprint_ms",
            ms(stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
                std::hint::black_box(checkpoint_fingerprint(&path).ok());
            })),
        );
        std::fs::remove_file(&path).ok();
    }

    // ZK-GanDef perturbs the second half of every training batch.
    let half = xb.slice_rows(n / 2, n);
    out.metric(
        "data.noise_ms",
        ms(stats::time_median(PROBE_REPS, PROBE_SECONDS, || {
            std::hint::black_box(preprocess::gaussian_perturb(&half, 1.0, &mut rng));
        })),
    );
}

/// One tape forward and backward pass of `net`'s architecture with
/// weights `params` on `(x, targets)`; returns the weight gradients.
fn fwd_bwd(net: &Net, params: &Params, x: &Tensor, targets: &Tensor) -> Vec<Option<Tensor>> {
    let mut sess = Session::new(params, Mode::Train, Prng::new(1));
    let xv = sess.input(x.clone());
    let z = net.model.forward(&mut sess, xv);
    let loss = sess.tape.softmax_cross_entropy(z, targets);
    sess.backward(loss)
}

/// Percentage by which the traced run's instruments (allocation counting
/// and span recording) slow `unit`, the workload's main unit of work:
/// instrumented and plain calls alternate, and their medians are compared.
fn overhead_pct(ctx: &Ctx, mut unit: impl FnMut()) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while on.len() < OVERHEAD_PAIRS || start.elapsed().as_secs_f64() < OVERHEAD_SECONDS {
        for traced in [false, true] {
            ctx.instruments(traced);
            let t = Instant::now();
            ctx.tracer.span("overhead.unit", &mut unit);
            let s = t.elapsed().as_secs_f64();
            if traced {
                on.push(s);
            } else {
                off.push(s);
            }
        }
    }
    ctx.instruments(false);
    100.0 * (stats::median(&on) / stats::median(&off) - 1.0)
}

/// Tracing overhead of a training step: forward, backward and an Adam
/// update at the training batch.
pub fn training_overhead(
    ctx: &Ctx,
    kind: DatasetKind,
    net: &Net,
    xb: &Tensor,
    yb: &[usize],
    out: &mut Outcome,
) {
    let targets = one_hot(yb, net.num_classes());
    let mut params = net.params.clone();
    let mut adam = Adam::new(TrainConfig::quick(kind).lr);
    let pct = overhead_pct(ctx, || {
        let grads = fwd_bwd(net, &params, xb, &targets);
        adam.step(&mut params, &grads);
    });
    out.metric("trace.overhead_pct", pct);
}

/// Tracing overhead of a served batch: one forward pass at the batcher's
/// batch size, plus the submit and request spans of its requests.
pub fn serving_overhead(ctx: &Ctx, net: &Net, xb: &Tensor, out: &mut Outcome) {
    let pct = overhead_pct(ctx, || {
        let t = Instant::now();
        std::hint::black_box(net.model.infer(&net.params, xb.clone()));
        for req in 0..2 * xb.dim(0) as u64 {
            ctx.tracer
                .record("overhead.request", t, Instant::now(), None, req);
        }
    });
    out.metric("trace.overhead_pct", pct);
}

/// Serving probe for the training workloads: the trained model behind a
/// server, at the serving workload's offered rate, without reloads.
pub fn serve_probe(ctx: &Ctx, kind: DatasetKind, net: &Net, images: &Tensor, out: &mut Outcome) {
    let probe = serving::probe(ctx, kind, net, images, out);
    out.metric("serve.batch_mean", probe.batch_mean);
    out.metric("serve.batches", probe.batches);
    out.metric("serve.reloads", probe.reloads);
    out.metric("serve.gen_late_ms", probe.gen_late_ms);
    out.metric("serve.p50_ms", probe.p50_ms);
    out.metric("serve.p99_ms", probe.p99_ms);
}

/// Training probe for the serving workload: a short ZK-GanDef run of the
/// served architecture.
pub fn core_probe(ctx: &Ctx, out: &mut Outcome) {
    let kind = DatasetKind::SynthDigits;
    let ds = generate(
        kind,
        &GenSpec {
            train: 64,
            test: 1,
            seed: ctx.seed,
        },
    );
    let mut cfg = TrainConfig::quick(kind);
    cfg.epochs = 3;
    let mut rng = Prng::new(ctx.seed).fork(0xC0DE);
    let mut net = zk_gandef::classifier_for(kind, &mut rng);
    let report = GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng);
    out.check(checks::training_sound(&report));
    out.attempted += cfg.epochs as u64;
    out.failed += checks::epochs_failed(&report, cfg.epochs);
    out.metric("core.epoch_s_p50", stats::median(&report.epoch_seconds));
    out.metric("core.rollbacks", checks::rollbacks(&report) as f64);
}
