//! End-to-end benchmark of the ZK-GanDef reproduction.
//!
//! ```text
//! gandef-e2ebench --workload <zk-digits|pgd-cifar|serve-lenet> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in this process for about `S`
//! seconds of whole rounds and prints, as its last stdout line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end figures (the measurement
//! run); with `--trace 1` they are the per-layer figures, taken from a
//! traced run that also writes its spans to `.bench_out/`. See
//! `README.md` for the workloads, the metrics and which layer metric
//! should move which end-to-end metric.

mod checks;
mod instr;
mod probes;
mod serving;
mod stats;
mod training;

use std::path::PathBuf;
use std::time::Instant;

#[global_allocator]
static ALLOC: instr::CountingAlloc = instr::CountingAlloc;

/// End-to-end metrics, reported by every workload's measurement run, in
/// the order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "1/cpu-s"),
    ("eval_per_cpu_s", "1/cpu-s"),
    ("predict_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("tensor.alloc_mb_per_sample", "MB"),
    ("tensor.allocs_per_sample", "count"),
    ("tensor.pool_jobs_per_sample", "count"),
    ("tensor.conv_fwd_gflops", "GFLOP/s"),
    ("tensor.conv_bwd_gflops", "GFLOP/s"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("nn.fwd_bwd_ms", "ms"),
    ("nn.infer_b1_ms", "ms"),
    ("nn.infer_b32_ms", "ms"),
    ("nn.adam_ms", "ms"),
    ("nn.load_params_ms", "ms"),
    ("nn.fingerprint_ms", "ms"),
    ("data.generate_s", "s"),
    ("data.noise_ms", "ms"),
    ("attack.fgsm.s", "s"),
    ("attack.fgsm.model_s", "s"),
    ("attack.fgsm.grad_calls", "count"),
    ("attack.fgsm.alloc_mb", "MB"),
    ("attack.bim.s", "s"),
    ("attack.bim.model_s", "s"),
    ("attack.bim.grad_calls", "count"),
    ("attack.bim.alloc_mb", "MB"),
    ("attack.pgd.s", "s"),
    ("attack.pgd.model_s", "s"),
    ("attack.pgd.grad_calls", "count"),
    ("attack.pgd.alloc_mb", "MB"),
    ("attack.deepfool.s", "s"),
    ("attack.deepfool.model_s", "s"),
    ("attack.deepfool.grad_calls", "count"),
    ("attack.deepfool.alloc_mb", "MB"),
    ("attack.cw.s", "s"),
    ("attack.cw.model_s", "s"),
    ("attack.cw.grad_calls", "count"),
    ("attack.cw.alloc_mb", "MB"),
    ("core.epoch_s_p50", "s"),
    ("core.rollbacks", "count"),
    ("serve.batch_mean", "count"),
    ("serve.batches", "count"),
    ("serve.reloads", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.p50_ms", "ms"),
    ("serve.p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ZkDigits,
    PgdCifar,
    ServeLenet,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "zk-digits" => Some(Workload::ZkDigits),
            "pgd-cifar" => Some(Workload::PgdCifar),
            "serve-lenet" => Some(Workload::ServeLenet),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ZkDigits => "zk-digits",
            Workload::PgdCifar => "pgd-cifar",
            Workload::ServeLenet => "serve-lenet",
        }
    }
}

/// Settings of one invocation, plus the run's tracer.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tracer: instr::Tracer,
    pub out_dir: PathBuf,
    started: Instant,
}

impl Ctx {
    /// Whether to start another round: always the first, then while one
    /// more round as long as the longest so far ends within the run's time.
    pub fn another_round(&self, done: usize, longest_s: f64) -> bool {
        done == 0 || self.started.elapsed().as_secs_f64() + longest_s <= self.seconds
    }

    /// Switches the tracer and the counting allocator together.
    pub fn instruments(&self, on: bool) {
        self.tracer.set_on(on);
        instr::set_counting(on);
    }
}

/// What a workload run found: operations, failures, broken checks and the
/// metrics it measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a broken check.
    pub fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.problems.push(e);
        }
    }

    /// The result line, with the metrics in `expected` order. Errors if a
    /// metric is missing, repeated, unexpected or not a finite number.
    fn to_json(&self, expected: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in expected {
            let found: Vec<f64> = self
                .metrics
                .iter()
                .filter(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .collect();
            match found.as_slice() {
                [v] if v.is_finite() => parts.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                )),
                [v] => return Err(format!("metric {name} is {v}")),
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} was reported twice")),
            }
        }
        if let Some((n, _)) = self
            .metrics
            .iter()
            .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
        {
            return Err(format!("unexpected metric {n}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every `GANDEF_*` environment knob (docs/KNOBS.md) changes what the
/// program does: thread count, accumulation precision, convolution
/// lowering, injected faults, serving defaults. The library reads each
/// lazily on first use, so removing them before anything runs pins every
/// knob to its default for the whole process.
fn pin_knobs() {
    let stray: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GANDEF_"))
        .collect();
    for k in &stray {
        eprintln!("e2ebench: ignoring {k}: every GANDEF_* knob is pinned to its default");
        std::env::remove_var(k);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: gandef-e2ebench --workload <zk-digits|pgd-cifar|serve-lenet> --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                traced = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, traced) {
        (Some(workload), Some(seed), Some(seconds), Some(traced)) => Ctx {
            workload,
            seed,
            seconds,
            traced,
            tracer: instr::Tracer::new(),
            out_dir: PathBuf::from(".bench_out"),
            started: Instant::now(),
        },
        _ => usage(),
    }
}

fn main() {
    pin_knobs();
    let ctx = parse_args();
    let mut out = match ctx.workload {
        Workload::ZkDigits | Workload::PgdCifar => training::run(&ctx),
        Workload::ServeLenet => serving::run(&ctx),
    };
    if ctx.traced {
        let path = ctx.out_dir.join(format!(
            "trace-{}-seed{}.jsonl",
            ctx.workload.name(),
            ctx.seed
        ));
        match ctx.tracer.write(&path) {
            Ok(()) => eprintln!("e2ebench: spans written to {}", path.display()),
            Err(e) => out
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    } else {
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    for p in &out.problems {
        eprintln!("e2ebench: CHECK FAILED: {p}");
    }
    let expected: &[(&str, &str)] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    match out.to_json(expected) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
