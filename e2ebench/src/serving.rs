//! The `serve-lenet` workload: an open-loop Poisson stream of SynthDigits
//! test images against a `gandef-serve` LeNet server running with
//! checkpoint hot-reload, while the benchmark republishes two alternating
//! weight versions at a fixed cadence; then a saturation burst.
//!
//! The load comes from two threads of the benchmark's own: the calling
//! thread sends on schedule and republishes, one collector thread waits
//! for the replies. Latency is timed from each request's due instant, so
//! a stall in the generator or the server counts against every request
//! queued behind it; the generator's own lateness is reported too.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gandef_data::{generate, DatasetKind, GenSpec};
use gandef_nn::layer::Sequential;
use gandef_nn::serialize::{params_to_bytes, save_params};
use gandef_nn::{Classifier, Net};
use gandef_serve::{Pending, ServeConfig, ServeError, ServeStats, Server};
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

use crate::instr::{AllocCount, Tracer};
use crate::{checks, probes, stats, training, Ctx, Outcome};

/// Offered rate of the fixed-rate phase, requests per second: a constant
/// of the benchmark, well below the server's saturation rate.
const RATE: f64 = 500.0;

/// Requests in each round's fixed-rate phase (4 s at `RATE`).
const FIXED_REQS: usize = 2000;

/// Requests of each round's saturation burst, all submitted at once; no
/// larger than the queue capacity, so none is refused.
const BURST: usize = 2048;

/// The server's queue capacity.
const QUEUE_CAP: usize = 4096;

/// Cadence at which the benchmark republishes the checkpoint, alternating
/// between the two weight versions.
const REPUBLISH_EVERY: Duration = Duration::from_millis(500);

/// Distinct test images requests are drawn from.
const POOL_IMAGES: usize = 512;

/// Requests of the serving probe on the training workloads: ten lie
/// beyond the 99th percentile.
const PROBE_REQS: usize = 1000;

/// How long the collector may wait for outstanding replies after the last
/// request was sent before the run is declared hung.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Every batcher setting pinned explicitly, so neither the library
/// defaults nor the environment decide what is measured.
fn config() -> ServeConfig {
    ServeConfig::default()
        .max_batch(32)
        .max_wait(Duration::from_millis(2))
        .queue_cap(QUEUE_CAP)
        .no_deadline()
        .reload_poll(Duration::from_millis(50))
}

fn architecture(kind: DatasetKind) -> Sequential {
    zk_gandef::classifier_for(kind, &mut Prng::new(0)).model
}

/// A request as sent: id, pool image, due instant.
struct Sent {
    req: u64,
    image: usize,
    due: Instant,
    reply: Result<Pending, ServeError>,
}

/// A resolved request.
struct Sample {
    image: usize,
    due: Instant,
    done: Instant,
    out: Result<Tensor, ServeError>,
}

/// Republishes alternating weight versions to the watched checkpoint.
///
/// The encoded checkpoints are prepared once and each publish is a write
/// to a temporary file renamed over the watched one: as atomic for the
/// watcher as `save_params`, without its fsync, whose disk latency would
/// stall the generator that republishes between requests.
struct Republisher {
    versions: [Vec<u8>; 2],
    path: PathBuf,
    next: usize,
    at: Instant,
    published: u64,
}

impl Republisher {
    fn due(&mut self, now: Instant, out: &mut Outcome) {
        if now < self.at {
            return;
        }
        let tmp = self.path.with_extension("tmp");
        let written = std::fs::write(&tmp, &self.versions[self.next])
            .and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = written {
            out.problems.push(format!("cannot republish weights: {e}"));
        }
        self.next ^= 1;
        self.published += 1;
        self.at += REPUBLISH_EVERY;
    }
}

/// Sends `requests` at `offsets` from now (all at once when `offsets` is
/// empty), republishing on the way; returns the resolved samples and the
/// generator's lateness per request in ms.
#[allow(clippy::too_many_arguments)]
fn drive(
    server: &Server,
    requests: Vec<(usize, Tensor)>,
    offsets: &[Duration],
    mut republish: Option<&mut Republisher>,
    tracer: &Tracer,
    first_req: u64,
    out: &mut Outcome,
) -> (Vec<Sample>, Vec<f64>) {
    let (tx, rx) = mpsc::channel::<Sent>();
    let (done_tx, done_rx) = mpsc::channel::<Vec<Sample>>();
    let parent = tracer.current();
    let collector = {
        let tracer_on = tracer.is_on();
        let n = requests.len();
        std::thread::spawn(move || {
            let mut samples = Vec::with_capacity(n);
            let mut spans = Vec::new();
            for sent in rx {
                let out = sent.reply.and_then(Pending::wait);
                let done = Instant::now();
                if tracer_on {
                    spans.push((sent.req, sent.due, done));
                }
                samples.push(Sample {
                    image: sent.image,
                    due: sent.due,
                    done,
                    out,
                });
            }
            // Spans go back with the samples; the tracer is not shared
            // across threads.
            let _ = done_tx.send(samples);
            spans
        })
    };

    let start = Instant::now() + Duration::from_millis(1);
    let mut late_ms = Vec::with_capacity(requests.len());
    for (i, (image, x)) in requests.into_iter().enumerate() {
        let due = offsets.get(i).map_or(start, |o| start + *o);
        if let Some(r) = republish.as_deref_mut() {
            r.due(Instant::now(), out);
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let req = first_req + i as u64;
        let sent_at = Instant::now();
        let reply = server.submit(x);
        tracer.record("serve.submit", sent_at, Instant::now(), parent, req);
        late_ms.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
        if tx
            .send(Sent {
                req,
                image,
                due,
                reply,
            })
            .is_err()
        {
            break;
        }
    }
    drop(tx);
    let samples = match done_rx.recv_timeout(DRAIN_LIMIT) {
        Ok(samples) => samples,
        Err(_) => {
            eprintln!(
                "e2ebench: CHECK FAILED: accepted requests did not resolve within {DRAIN_LIMIT:?}"
            );
            std::process::exit(1);
        }
    };
    match collector.join() {
        Ok(spans) => {
            for (req, due, done) in spans {
                tracer.record("serve.request", due, done, parent, req);
            }
        }
        Err(_) => out.problems.push("the reply collector panicked".into()),
    }
    (samples, late_ms)
}

/// Counts failed requests (a `ServeError`, or logits that match no
/// published version under a direct unbatched forward pass) and returns
/// how many replies matched each version.
fn check_samples(samples: &[Sample], refs: &[Vec<Tensor>], out: &mut Outcome) -> [u64; 2] {
    let mut seen = [0u64; 2];
    for s in samples {
        out.attempted += 1;
        let matched = s.out.as_ref().ok().and_then(|y| {
            let versions: Vec<&[f32]> = refs.iter().map(|r| r[s.image].as_slice()).collect();
            checks::matching_version(y.as_slice(), &versions)
        });
        match matched {
            Some(v) => seen[v] += 1,
            None => out.failed += 1,
        }
    }
    seen
}

/// Direct unbatched logits of every pool image under each version.
fn references(nets: &[&Net], rows: &[Tensor]) -> Vec<Vec<Tensor>> {
    nets.iter()
        .map(|net| rows.iter().map(|r| net.logits(r)).collect())
        .collect()
}

/// Poisson arrival offsets at `RATE` and the pool image of each request.
fn schedule(rng: &mut Prng, n: usize) -> (Vec<Duration>, Vec<usize>) {
    let mut t = 0.0f64;
    let mut offsets = Vec::with_capacity(n);
    let mut images = Vec::with_capacity(n);
    for _ in 0..n {
        let u = f64::from(rng.uniform()).max(1e-9);
        t += -u.ln() / RATE;
        offsets.push(Duration::from_secs_f64(t));
        images.push(rng.below(POOL_IMAGES));
    }
    (offsets, images)
}

struct Inputs {
    rows: Vec<Tensor>,
    examples: Vec<Tensor>,
    labels: Vec<usize>,
    nets: [Net; 2],
    path: PathBuf,
    server: Server,
}

/// Generates the request pool, initializes the two weight versions,
/// publishes the first and starts the server, `SETUP_REPS` times; returns
/// the last inputs (server running) and the median set-up CPU seconds.
fn setup(ctx: &Ctx) -> (Inputs, f64) {
    let kind = DatasetKind::SynthDigits;
    let path = ctx.out_dir.join(format!(
        "serve-seed{}-{}.gndf",
        ctx.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }
    let mut times = Vec::new();
    let mut last: Option<Inputs> = None;
    for _ in 0..training::SETUP_REPS {
        if let Some(prev) = last.take() {
            prev.server.shutdown();
        }
        let c = stats::cpu_s();
        let inputs = ctx.tracer.span("setup", || {
            let ds = ctx.tracer.span("data.generate", || {
                generate(
                    kind,
                    &GenSpec {
                        train: 1,
                        test: POOL_IMAGES,
                        seed: ctx.seed,
                    },
                )
            });
            let mut init = Prng::new(ctx.seed ^ 0x1A17);
            let nets = ctx.tracer.span("nn.init", || {
                [
                    zk_gandef::classifier_for(kind, &mut init),
                    zk_gandef::classifier_for(kind, &mut init),
                ]
            });
            let rows: Vec<Tensor> = (0..POOL_IMAGES).map(|i| ds.test_x.row(i)).collect();
            let dims = [kind.channels(), kind.side(), kind.side()];
            let examples = rows.iter().map(|r| r.reshape(&dims)).collect();
            if let Err(e) = ctx
                .tracer
                .span("nn.save_params", || save_params(&nets[0].params, &path))
            {
                eprintln!("e2ebench: cannot publish weights: {e}");
                std::process::exit(1);
            }
            let server = ctx.tracer.span("serve.start", || {
                Server::with_hot_reload(
                    architecture(kind),
                    nets[0].params.clone(),
                    dims.to_vec(),
                    config(),
                    path.clone(),
                )
            });
            Inputs {
                rows,
                examples,
                labels: ds.test_y,
                nets,
                path: path.clone(),
                server,
            }
        });
        times.push(stats::cpu_s() - c);
        last = Some(inputs);
    }
    (last.expect("SETUP_REPS is positive"), stats::median(&times))
}

/// What a run measured over its rounds.
#[derive(Default)]
struct Rounds {
    burst: stats::Phase,
    fixed: stats::Phase,
    /// Per round; the run reports their medians.
    /// Single-image predictions of the served model, per round.
    predict_p50_ms: Vec<f64>,
    /// Server latency of the fixed-rate phase, per round.
    p50_ms: Vec<f64>,
    p99_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

/// Each request's latency in ms, from its due instant to its reply.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| s.done.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect()
}

fn delta(a: ServeStats, b: ServeStats) -> (u64, u64, u64) {
    (
        b.requests - a.requests,
        b.batches - a.batches,
        b.reloads - a.reloads,
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    ctx.instruments(ctx.traced);
    let (inputs, setup_s) = setup(ctx);
    let refs = references(&[&inputs.nets[0], &inputs.nets[1]], &inputs.rows);
    let mut rng = Prng::new(ctx.seed).fork(0x5E4E);
    let encode = |net: &Net| {
        params_to_bytes(&net.params).unwrap_or_else(|e| {
            eprintln!("e2ebench: cannot encode weights: {e}");
            std::process::exit(1);
        })
    };
    let mut republisher = Republisher {
        versions: [encode(&inputs.nets[0]), encode(&inputs.nets[1])],
        path: inputs.path.clone(),
        next: 1,
        at: Instant::now() + REPUBLISH_EVERY,
        published: 0,
    };
    let stats0 = inputs.server.stats();

    let served = Tensor::concat_rows(&inputs.rows.iter().collect::<Vec<_>>());
    let mut rounds = Rounds::default();
    let mut first_counts: Option<(AllocCount, u64, ServeStats, ServeStats, f64)> = None;
    let mut seen = [0u64; 2];
    let mut next_req = 0u64;
    let (mut round, mut longest) = (0, 0.0f64);
    while ctx.another_round(round, longest) {
        let started = Instant::now();
        let (offsets, images) = schedule(&mut rng, FIXED_REQS);
        let burst_images: Vec<usize> = (0..BURST).map(|_| rng.below(POOL_IMAGES)).collect();
        let fixed: Vec<(usize, Tensor)> = images
            .iter()
            .map(|&i| (i, inputs.examples[i].clone()))
            .collect();
        let burst: Vec<(usize, Tensor)> = burst_images
            .iter()
            .map(|&i| (i, inputs.examples[i].clone()))
            .collect();

        let (s0, a0, j0) = (
            inputs.server.stats(),
            AllocCount::now(),
            gandef_tensor::pool::stats().jobs_completed,
        );
        republisher.at = republisher.at.max(Instant::now());
        let (samples, late) = rounds.fixed.time(FIXED_REQS, || {
            ctx.tracer.span("serve.fixed_rate", || {
                drive(
                    &inputs.server,
                    fixed,
                    &offsets,
                    Some(&mut republisher),
                    &ctx.tracer,
                    next_req,
                    &mut out,
                )
            })
        });
        next_req += FIXED_REQS as u64;
        let latencies = latencies_ms(&samples);
        rounds.p50_ms.push(stats::percentile(&latencies, 0.5));
        rounds.p99_ms.push(stats::percentile(&latencies, 0.99));
        rounds.late_ms.extend(late);
        let v = check_samples(&samples, &refs, &mut out);

        let (bursts, _) = rounds.burst.time(BURST, || {
            ctx.tracer.span("serve.burst", || {
                drive(
                    &inputs.server,
                    burst,
                    &[],
                    None,
                    &ctx.tracer,
                    next_req,
                    &mut out,
                )
            })
        });
        next_req += BURST as u64;
        let w = check_samples(&bursts, &refs, &mut out);
        let (s1, a1, j1) = (
            inputs.server.stats(),
            AllocCount::now(),
            gandef_tensor::pool::stats().jobs_completed,
        );
        if first_counts.is_none() {
            let n = (FIXED_REQS + BURST) as f64;
            first_counts = Some((a1.since(a0), j1 - j0, s0, s1, n));
        }
        let (predict_p50, _) = training::prediction_block(&inputs.nets[0], &served);
        rounds.predict_p50_ms.push(predict_p50);
        seen[0] += v[0] + w[0];
        seen[1] += v[1] + w[1];
        round += 1;
        longest = longest.max(started.elapsed().as_secs_f64());
    }
    let stats1 = inputs.server.shutdown();
    ctx.instruments(false);
    std::fs::remove_file(&inputs.path).ok();

    // Every accepted request resolved (drive() exits otherwise); at least
    // one reload took effect: the server counted it, and replies matched
    // the version first published by a reload.
    let reloads = stats1.reloads - stats0.reloads;
    if reloads == 0 || seen[1] == 0 {
        out.problems.push(format!(
            "no reload took effect: {reloads} reloads of {} publishes, {} replies from the republished version",
            republisher.published, seen[1]
        ));
    }

    if !ctx.traced {
        eprintln!(
            "e2ebench: latency p50 {:.3} ms, p99 {:.3} ms; generator lateness p50 {:.3} ms, p99 {:.3} ms over {} requests; {} reloads",
            stats::median(&rounds.p50_ms),
            stats::median(&rounds.p99_ms),
            stats::percentile(&rounds.late_ms, 0.5),
            stats::percentile(&rounds.late_ms, 0.99),
            rounds.late_ms.len(),
            reloads
        );
        out.metric("setup_s", setup_s);
        eprintln!(
            "e2ebench: wall-clock rates: saturation burst {:.1}/s, fixed-rate phase {:.1}/s",
            rounds.burst.per_s(),
            rounds.fixed.per_s()
        );
        out.metric("throughput_per_cpu_s", rounds.burst.per_cpu_s());
        out.metric("eval_per_cpu_s", rounds.fixed.per_cpu_s());
        out.metric("predict_p50_ms", stats::median(&rounds.predict_p50_ms));
        return out;
    }

    let (alloc, jobs, s0, s1, n) = first_counts.expect("the run has a round");
    let (requests, batches, round_reloads) = delta(s0, s1);
    out.metric(
        "tensor.alloc_mb_per_sample",
        alloc.bytes as f64 / n / probes::MB,
    );
    out.metric("tensor.allocs_per_sample", alloc.allocs as f64 / n);
    out.metric("tensor.pool_jobs_per_sample", jobs as f64 / n);
    out.metric("serve.batch_mean", requests as f64 / batches as f64);
    out.metric("serve.batches", batches as f64);
    out.metric("serve.reloads", round_reloads as f64);
    out.metric(
        "serve.gen_late_ms",
        stats::percentile(&rounds.late_ms, 0.99),
    );
    out.metric("serve.p50_ms", stats::median(&rounds.p50_ms));
    out.metric("serve.p99_ms", stats::median(&rounds.p99_ms));
    out.metric(
        "data.generate_s",
        stats::median(&ctx.tracer.durations("data.generate")),
    );

    let net = &inputs.nets[0];
    let xb = Tensor::concat_rows(&inputs.rows[..32].iter().collect::<Vec<_>>());
    probes::layer_probes(
        ctx,
        DatasetKind::SynthDigits,
        net,
        &xb,
        &inputs.labels[..32],
        &mut out,
    );
    probes::serving_overhead(ctx, net, &xb, &mut out);
    let n_attack = probes::ATTACK_PROBE_ROWS;
    let xa = Tensor::concat_rows(&inputs.rows[..n_attack].iter().collect::<Vec<_>>());
    let budget = zk_gandef::TrainConfig::quick(DatasetKind::SynthDigits).budget;
    let costs = probes::attack_probe(ctx, net, &xa, &inputs.labels[..n_attack], &budget, &mut out);
    probes::attack_metrics(&costs, &mut out);
    probes::core_probe(ctx, &mut out);
    out
}

/// Figures of the serving probe.
pub struct Probe {
    pub batch_mean: f64,
    pub batches: f64,
    pub reloads: f64,
    pub gen_late_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// Serves `net` (no hot reload) for `PROBE_REQS` requests at `RATE`.
pub fn probe(ctx: &Ctx, kind: DatasetKind, net: &Net, images: &Tensor, out: &mut Outcome) -> Probe {
    let dims = [kind.channels(), kind.side(), kind.side()];
    let n_images = images.dim(0).min(POOL_IMAGES);
    let rows: Vec<Tensor> = (0..n_images).map(|i| images.row(i)).collect();
    let refs = references(&[net], &rows);
    let server = Server::new(
        architecture(kind),
        net.params.clone(),
        dims.to_vec(),
        config(),
    );
    let mut rng = Prng::new(ctx.seed).fork(0x9E0B);
    let (offsets, picks) = schedule(&mut rng, PROBE_REQS);
    let requests = picks
        .iter()
        .map(|&i| (i % n_images, rows[i % n_images].reshape(&dims)))
        .collect();
    let s0 = server.stats();
    let (samples, late) = drive(&server, requests, &offsets, None, &ctx.tracer, 0, out);
    let stats = server.shutdown();
    check_samples(&samples, &refs, out);
    let (requests, batches, reloads) = delta(s0, stats);
    Probe {
        batch_mean: requests as f64 / batches as f64,
        batches: batches as f64,
        reloads: reloads as f64,
        gen_late_ms: stats::percentile(&late, 0.99),
        p50_ms: stats::percentile(&latencies_ms(&samples), 0.5),
        p99_ms: stats::percentile(&latencies_ms(&samples), 0.99),
    }
}
