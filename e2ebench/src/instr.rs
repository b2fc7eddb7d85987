//! Instruments of the traced run: a counting global allocator, an
//! in-memory span recorder, and a timing [`Classifier`] wrapper; and the
//! attack wrapper that keeps adversarial examples for the checks.
//!
//! The three instruments are inert in the measurement run: the allocator
//! then costs one relaxed load per allocation, the recorder one per span,
//! and the timing wrapper is not constructed at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use gandef_attack::Attack;
use gandef_nn::Classifier;
use gandef_tensor::rng::Prng;
use gandef_tensor::Tensor;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The benchmark binary's global allocator: the system allocator, plus
/// allocation and byte counters while counting is switched on. A
/// `realloc` counts as one allocation of its new size.
pub struct CountingAlloc;

fn count(bytes: usize) {
    // Relaxed throughout: the counters publish no other data and are read
    // only after the counted work has been joined.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded unchanged, as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged, as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation counts since process start (only while counting was on).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn now() -> AllocCount {
        AllocCount {
            allocs: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    pub fn since(self, start: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - start.allocs,
            bytes: self.bytes - start.bytes,
        }
    }
}

/// Turns allocation counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// One recorded span: a call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<u32>,
    /// Request id, for the spans of one served request.
    pub req: Option<u64>,
}

thread_local! {
    /// Open spans on this thread, innermost last: the parent of the next.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// In-memory span recorder. When off, [`Tracer::span`] is a plain call.
pub struct Tracer {
    on: AtomicBool,
    t0: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            t0: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<u32> {
        OPEN.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, parented to the innermost span
    /// open on this thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let parent = self.current();
        OPEN.with(|s| s.borrow_mut().push(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        OPEN.with(|s| s.borrow_mut().pop());
        self.push(Span {
            id,
            name,
            start: start - self.t0,
            end: end - self.t0,
            parent,
            req: None,
        });
        out
    }

    /// Records a span whose bounds were measured by the caller (a served
    /// request, timed from its due instant to its reply).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u64,
    ) {
        if !self.is_on() {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            name,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            parent,
            req: Some(req),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Durations in seconds of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.id,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                opt(s.parent.map(u64::from)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

/// One chunk an attack produced: its input rows, the adversarial rows and
/// their labels.
pub struct Chunk {
    pub x: Tensor,
    pub adv: Tensor,
    pub labels: Vec<usize>,
}

/// The chunks an attack wrapped by [`Observed::wrap`] produced.
pub struct Observed {
    name: String,
    chunks: Mutex<Vec<Chunk>>,
}

impl Observed {
    /// Wraps `inner` in an [`Attack`] that forwards to it and keeps every
    /// chunk it produces, so the benchmark can check the examples itself
    /// after the evaluation. Returns the wrapper and the record it fills.
    pub fn wrap(inner: Box<dyn Attack>) -> (Box<dyn Attack>, Arc<Observed>) {
        let seen = Arc::new(Observed {
            name: inner.name().to_string(),
            chunks: Mutex::new(Vec::new()),
        });
        let attack = ObservedAttack {
            inner,
            seen: Arc::clone(&seen),
        };
        (Box::new(attack), seen)
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The chunks produced so far.
    pub fn take_chunks(&self) -> Vec<Chunk> {
        std::mem::take(&mut *self.chunks.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

struct ObservedAttack {
    inner: Box<dyn Attack>,
    seen: Arc<Observed>,
}

impl Attack for ObservedAttack {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn perturb(
        &self,
        model: &dyn Classifier,
        x: &Tensor,
        labels: &[usize],
        rng: &mut Prng,
    ) -> Tensor {
        let adv = self.inner.perturb(model, x, labels, rng);
        self.seen
            .chunks
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Chunk {
                x: x.clone(),
                adv: adv.clone(),
                labels: labels.to_vec(),
            });
        adv
    }
}

#[derive(Default)]
struct Busy {
    active: u32,
    since: Option<Instant>,
    total: Duration,
}

/// A [`Classifier`] that forwards to a model and measures the model's
/// share of an attack: gradient calls, and the wall time during which at
/// least one model call is in flight on any thread. An attack's self time
/// is its wall time minus that covered time.
pub struct TimedModel<'a> {
    model: &'a dyn Classifier,
    grad_calls: AtomicU64,
    busy: Mutex<Busy>,
}

impl<'a> TimedModel<'a> {
    pub fn new(model: &'a dyn Classifier) -> TimedModel<'a> {
        TimedModel {
            model,
            grad_calls: AtomicU64::new(0),
            busy: Mutex::new(Busy::default()),
        }
    }

    pub fn grad_calls(&self) -> u64 {
        self.grad_calls.load(Ordering::Relaxed)
    }

    /// Wall time covered by model calls so far.
    pub fn model_time(&self) -> Duration {
        self.busy
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .total
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        {
            let mut b = self.busy.lock().unwrap_or_else(PoisonError::into_inner);
            if b.active == 0 {
                b.since = Some(Instant::now());
            }
            b.active += 1;
        }
        let out = f();
        let mut b = self.busy.lock().unwrap_or_else(PoisonError::into_inner);
        b.active -= 1;
        if b.active == 0 {
            if let Some(since) = b.since.take() {
                b.total += since.elapsed();
            }
        }
        out
    }
}

impl Classifier for TimedModel<'_> {
    fn num_classes(&self) -> usize {
        self.model.num_classes()
    }

    fn logits(&self, x: &Tensor) -> Tensor {
        self.timed(|| self.model.logits(x))
    }

    fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        self.grad_calls.fetch_add(1, Ordering::Relaxed);
        self.timed(|| self.model.ce_input_grad(x, targets))
    }

    fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor {
        self.grad_calls.fetch_add(1, Ordering::Relaxed);
        self.timed(|| self.model.weighted_logit_input_grad(x, weights))
    }
}
