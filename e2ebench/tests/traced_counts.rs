//! The traced run's instruments count the same work the same way every
//! time: two traced runs of one seed report identical counts.

use std::path::Path;
use std::process::Command;

/// Counts whose phase is deterministic on the training workloads: the
/// counting allocator and pool counters over the first round's training,
/// and the timing wrapper's and allocator's counts per attack.
const EXACT_COUNTS: [&str; 14] = [
    "tensor.alloc_mb_per_sample",
    "tensor.allocs_per_sample",
    "tensor.pool_jobs_per_sample",
    "attack.fgsm.grad_calls",
    "attack.fgsm.alloc_mb",
    "attack.bim.grad_calls",
    "attack.bim.alloc_mb",
    "attack.pgd.grad_calls",
    "attack.pgd.alloc_mb",
    "attack.deepfool.grad_calls",
    "attack.deepfool.alloc_mb",
    "attack.cw.grad_calls",
    "attack.cw.alloc_mb",
    "core.rollbacks",
];

/// Runs one traced run and returns its result line.
fn traced_run(workload: &str, seed: u64) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository");
    let out = Command::new(env!("CARGO_BIN_EXE_gandef-e2ebench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} traced run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    stdout
        .lines()
        .last()
        .expect("the run prints a result line")
        .to_string()
}

/// The `value` of metric `name` in a result line, as printed.
fn value<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len();
    let len = line[start..]
        .find(',')
        .expect("value is followed by its unit");
    &line[start..start + len]
}

fn counts_repeat(workload: &str) {
    let (a, b) = (traced_run(workload, 5), traced_run(workload, 5));
    for name in EXACT_COUNTS {
        assert_eq!(value(&a, name), value(&b, name), "{workload}: {name}");
    }
    assert_ne!(
        value(&a, "attack.pgd.grad_calls"),
        "0",
        "{workload}: nothing counted"
    );
}

#[test]
fn zk_digits_traced_counts_repeat_exactly() {
    counts_repeat("zk-digits");
}

#[test]
fn pgd_cifar_traced_counts_repeat_exactly() {
    counts_repeat("pgd-cifar");
}
