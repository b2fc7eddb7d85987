//! Numerics audit: makes floating-point trajectory sensitivity measurable.
//!
//! Two modes:
//!
//! * `numerics_audit --oracle` — computes a fixed-seed battery of GEMM and
//!   reduction kernels covering every dispatch path (tiny, packed-serial,
//!   pooled; nn/tn/nt; axis sums; average pooling) and prints one bit-level
//!   fingerprint per kernel. Nothing environment-dependent is printed, so
//!   under `GANDEF_ACCUM=f64` the output must be byte-identical across
//!   `GANDEF_THREADS` and `GANDEF_NO_FMA` settings — `scripts/ci.sh` runs
//!   it four times and diffs.
//!
//! * `numerics_audit` (default) — trains the same seed with ZK-GanDef
//!   under both accumulation modes and reports trajectory divergence
//!   epoch by epoch, then re-runs the f64 trajectory and verifies it is
//!   bit-for-bit reproducible (exit 1 if not). This is the harness form of
//!   the repo's "the regression test flipped because summation order
//!   changed" incident: divergence between modes is expected and now
//!   quantified; divergence between identical f64 runs is a bug.

use gandef_data::{generate, DatasetKind, GenSpec};
use gandef_nn::{accuracy, zoo, Classifier, Net};
use gandef_tensor::accum::Accum;
use gandef_tensor::conv::{self, ConvSpec};
use gandef_tensor::linalg;
use gandef_tensor::rng::Prng;
use std::process::ExitCode;
use zk_gandef::defense::{Defense, GanDef};
use zk_gandef::TrainConfig;

/// FNV-1a over the f32 bit patterns — a stable fingerprint that changes if
/// any single output bit changes.
fn fingerprint(slices: &[&[f32]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in slices {
        for v in *s {
            for byte in v.to_bits().to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn oracle() {
    let mut rng = Prng::new(1234);
    // Sizes straddle the GEMM dispatch thresholds: work = m·k·n of 4096
    // stays on the tiny kernel, 120_000 on the packed serial path, and
    // 128³ crosses into the pooled path.
    let cases: &[(&str, usize, usize, usize)] = &[
        ("gemm_tiny", 8, 16, 32),
        ("gemm_packed", 40, 50, 60),
        ("gemm_pooled", 128, 128, 128),
    ];
    for &(name, m, k, n) in cases {
        let a = rng.uniform_tensor(&[m, k], -1.0, 1.0);
        let b = rng.uniform_tensor(&[k, n], -1.0, 1.0);
        let at = rng.uniform_tensor(&[k, m], -1.0, 1.0);
        let bt = rng.uniform_tensor(&[n, k], -1.0, 1.0);
        let nn = linalg::matmul(&a, &b);
        let tn = linalg::matmul_tn(&at, &b);
        let nt = linalg::matmul_nt(&a, &bt);
        println!(
            "{name}: 0x{:016x}",
            fingerprint(&[nn.as_slice(), tn.as_slice(), nt.as_slice()])
        );
    }

    let x = rng.uniform_tensor(&[64, 96], -1.0, 1.0);
    println!(
        "sum_axis: 0x{:016x}",
        fingerprint(&[x.sum_axis(0).as_slice(), x.sum_axis(1).as_slice()])
    );
    println!("sum: 0x{:016x}", fingerprint(&[&[x.sum()], &[x.mean()]]));
    let img = rng.uniform_tensor(&[4, 8, 14, 14], -1.0, 1.0);
    println!(
        "global_avg_pool: 0x{:016x}",
        fingerprint(&[conv::global_avg_pool(&img).as_slice()])
    );
    let filt = rng.uniform_tensor(&[8, 8, 3, 3], -0.5, 0.5);
    let spec = ConvSpec { stride: 1, pad: 1 };
    let fused = conv::conv2d(&img, &filt, spec);
    println!("conv2d: 0x{:016x}", fingerprint(&[fused.as_slice()]));
    // The fused implicit-GEMM lowering must agree with the retained im2col
    // reference bit-for-bit whenever f64 accumulation is active — the same
    // contract the fingerprint diffs enforce across thread counts. The
    // check is free here and turns a lowering divergence into a hard stop
    // rather than a silent fingerprint change.
    let oracle = conv::conv2d_im2col(&img, &filt, spec);
    if gandef_tensor::accum::accum() == Accum::F64 {
        assert_eq!(
            fused.as_slice(),
            oracle.as_slice(),
            "fused conv2d diverged from the im2col oracle under f64 accumulation"
        );
    }
    let gout = rng.uniform_tensor(fused.shape().dims(), -1.0, 1.0);
    let (gx, gw) = conv::conv2d_backward(&gout, &img, &filt, spec);
    println!(
        "conv2d_backward: 0x{:016x}",
        fingerprint(&[gx.as_slice(), gw.as_slice()])
    );
    if gandef_tensor::accum::accum() == Accum::F64 {
        let (ox, ow) = conv::with_conv_impl(conv::ConvImpl::Im2col, || {
            conv::conv2d_backward(&gout, &img, &filt, spec)
        });
        assert_eq!(
            (gx.as_slice(), gw.as_slice()),
            (ox.as_slice(), ow.as_slice()),
            "fused conv2d_backward diverged from the im2col oracle under f64 accumulation"
        );
    }
}

/// One full ZK-GanDef training run under `mode`, from a fixed seed.
fn train_run(mode: Accum) -> (Vec<f32>, f32, u64) {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 200,
            test: 40,
            seed: 9,
        },
    );
    let mut cfg = TrainConfig::quick(DatasetKind::SynthDigits).with_accum(mode);
    cfg.epochs = 3;
    let mut rng = Prng::new(7);
    let mut net = Net::new(zoo::mlp(28 * 28, 32, 10), &mut rng);
    let report = GanDef::zero_knowledge().train(&mut net, &ds, &cfg, &mut rng);
    let acc = accuracy(&net.predict(&ds.test_x), &ds.test_y);
    let param_slices: Vec<&[f32]> = net.params.iter().map(|(_, t)| t.as_slice()).collect();
    (report.epoch_losses, acc, fingerprint(&param_slices))
}

fn audit() -> ExitCode {
    println!("training the same seed under both accumulation modes...");
    let (loss32, acc32, sum32) = train_run(Accum::F32);
    let (loss64, acc64, sum64) = train_run(Accum::F64);

    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "epoch", "loss f32", "loss f64", "|diff|"
    );
    let mut max_div = 0.0f32;
    for (e, (a, b)) in loss32.iter().zip(&loss64).enumerate() {
        let d = (a - b).abs();
        max_div = max_div.max(d);
        println!("{:<8} {:>12.6} {:>12.6} {:>12.2e}", e, a, b, d);
    }
    println!("max per-epoch loss divergence: {max_div:.3e}");
    println!("test accuracy: f32 {acc32:.3}  f64 {acc64:.3}");
    println!("param fingerprint: f32 0x{sum32:016x}  f64 0x{sum64:016x}");

    // The gate: the f64 trajectory must be exactly reproducible.
    let (_, _, sum64_again) = train_run(Accum::F64);
    if sum64_again != sum64 {
        eprintln!(
            "numerics_audit: f64 trajectory NOT reproducible (0x{sum64:016x} vs 0x{sum64_again:016x})"
        );
        return ExitCode::FAILURE;
    }
    println!("f64 trajectory reproducible: yes");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut run_oracle = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--oracle" => run_oracle = true,
            other => {
                eprintln!("unknown flag {other}; supported: --oracle");
                return ExitCode::from(2);
            }
        }
    }
    if run_oracle {
        oracle();
        ExitCode::SUCCESS
    } else {
        audit()
    }
}
