//! Small statistics helpers.

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted samples.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median wall time in seconds of `f`, run at least `min_reps` times and
/// until `min_total` seconds have passed.
pub fn time_median(min_reps: usize, min_total: f64, mut f: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < min_total {
        let t = std::time::Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    median(&times)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("cpu_s reads CLOCK_PROCESS_CPUTIME_ID through the 64-bit Linux `timespec` layout");

/// CPU seconds this process has used so far: all threads, exited ones
/// too, user and system (`CLOCK_PROCESS_CPUTIME_ID`, nanoseconds).
pub fn cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Seconds on the POSIX clock `clock`, or NaN if the call fails.
fn clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec`, which on 64-bit
    // Linux is two 64-bit integers (checked at compile time above), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Work of one kind done over a run's rounds: units of work, and the wall
/// and process CPU seconds spent on them.
#[derive(Default)]
pub struct Phase {
    items: f64,
    wall_s: f64,
    cpu_s: f64,
}

impl Phase {
    /// Runs `f`, which does `items` units of work, and adds its times.
    pub fn time<R>(&mut self, items: usize, f: impl FnOnce() -> R) -> R {
        let (t, c) = (std::time::Instant::now(), cpu_s());
        let out = f();
        self.wall_s += t.elapsed().as_secs_f64();
        self.cpu_s += cpu_s() - c;
        self.items += items as f64;
        out
    }

    /// Units of work per CPU second: the cost of the work, which CPU time
    /// the host takes from this machine's virtual CPUs does not inflate.
    pub fn per_cpu_s(&self) -> f64 {
        self.items / self.cpu_s
    }

    /// Units of work per wall-clock second.
    pub fn per_s(&self) -> f64 {
        self.items / self.wall_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_counts_other_threads() {
        // Spins until the thread itself has run 50 ms of CPU time, however
        // long that takes in wall time.
        let spin = || {
            const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
            let t = clock_s(CLOCK_THREAD_CPUTIME_ID);
            while clock_s(CLOCK_THREAD_CPUTIME_ID) - t < 0.05 {
                std::hint::black_box(0);
            }
        };
        let c = cpu_s();
        std::thread::scope(|s| {
            s.spawn(spin);
        });
        assert!(
            cpu_s() - c >= 0.05,
            "a finished thread's CPU time is counted"
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }
}
