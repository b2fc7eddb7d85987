//! Correctness checks. Each is computed apart from the program under test
//! (argmax, norms and comparisons written here) or states a property the
//! method must have; none compares against a recording of today's output.

use gandef_tensor::Tensor;
use zk_gandef::defense::{RunEvent, TrainReport};

/// Pixel range of the model inputs (§IV-B scales images into `[−1, 1]`).
const PIXEL_MIN: f32 = -1.0;
const PIXEL_MAX: f32 = 1.0;

/// Slack for float rounding in the ℓ∞ and pixel-range checks.
pub const BUDGET_TOL: f32 = 1e-5;

/// Index of the largest entry of each row of a `[N, C]` tensor, computed
/// here rather than by the tensor crate.
pub fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let n = logits.dim(0);
    let c = logits.numel() / n;
    logits
        .as_slice()
        .chunks(c)
        .map(|row| {
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

/// Share of rows whose argmax equals the label.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f32 {
    let hits = argmax_rows(logits)
        .iter()
        .zip(labels)
        .filter(|(p, y)| p == y)
        .count();
    hits as f32 / labels.len() as f32
}

/// Every epoch loss of a training run is finite, and the divergence guard
/// never gave up.
pub fn training_sound(report: &TrainReport) -> Result<(), String> {
    if let Some((e, l)) = report
        .epoch_losses
        .iter()
        .enumerate()
        .find(|(_, l)| !l.is_finite())
    {
        return Err(format!("{}: epoch {e} loss is {l}", report.defense));
    }
    if let Some(RunEvent::GuardStop { epoch }) = report
        .events
        .iter()
        .find(|e| matches!(e, RunEvent::GuardStop { .. }))
    {
        return Err(format!(
            "{}: divergence guard stopped at epoch {epoch}",
            report.defense
        ));
    }
    Ok(())
}

/// Scheduled epochs the run did not complete with a finite loss: a run
/// the divergence guard stopped early ends short. An epoch the guard
/// rolled back and trained again counts once, as completed.
pub fn epochs_failed(report: &TrainReport, epochs: usize) -> u64 {
    let finite = report.epoch_losses.iter().filter(|l| l.is_finite()).count();
    epochs.saturating_sub(finite) as u64
}

/// Epochs the divergence guard rolled back.
pub fn rollbacks(report: &TrainReport) -> u64 {
    report
        .events
        .iter()
        .filter(|e| matches!(e, RunEvent::Rollback { .. }))
        .count() as u64
}

/// `acc` is at least `floor`.
pub fn accuracy_at_least(what: &str, acc: f32, floor: f32) -> Result<(), String> {
    if acc >= floor {
        Ok(())
    } else {
        Err(format!("{what} accuracy {acc:.3} is below {floor:.3}"))
    }
}

/// Rows of `adv` that break the attack contract: a non-finite entry, an
/// entry farther than `eps` from `x` in ℓ∞, or outside the pixel range.
pub fn rows_outside_budget(adv: &Tensor, x: &Tensor, eps: f32) -> usize {
    assert_eq!(adv.shape(), x.shape(), "adversarial batch shape mismatch");
    let n = x.dim(0);
    let per = x.numel() / n;
    adv.as_slice()
        .chunks(per)
        .zip(x.as_slice().chunks(per))
        .filter(|(a, o)| {
            a.iter().zip(o.iter()).any(|(&a, &o)| {
                !a.is_finite()
                    || (a - o).abs() > eps + BUDGET_TOL
                    || !(PIXEL_MIN - BUDGET_TOL..=PIXEL_MAX + BUDGET_TOL).contains(&a)
            })
        })
        .count()
}

/// An attack cannot raise accuracy above the clean accuracy by more than
/// `tol` (a share of the examples).
pub fn attack_not_above_clean(
    name: &str,
    attacked: f32,
    clean: f32,
    tol: f32,
) -> Result<(), String> {
    if attacked <= clean + tol {
        Ok(())
    } else {
        Err(format!(
            "{name} accuracy {attacked:.3} exceeds clean accuracy {clean:.3}"
        ))
    }
}

/// PGD (random start, more and smaller steps in the same ball) must be at
/// least as strong as single-step FGSM, within `tol`.
pub fn pgd_at_least_fgsm(pgd: f32, fgsm: f32, tol: f32) -> Result<(), String> {
    if pgd <= fgsm + tol {
        Ok(())
    } else {
        Err(format!(
            "PGD accuracy {pgd:.3} is above FGSM accuracy {fgsm:.3} by more than {tol}"
        ))
    }
}

/// `eval::evaluate`'s reported accuracies (`reported`) name the same
/// example types as the benchmark's own (`mine`), and each agrees with
/// the benchmark's within one of the `n` examples (an argmax tie may
/// break the other way).
pub fn same_accuracies(
    reported: &[(String, f32)],
    mine: &[(String, f32)],
    n: usize,
) -> Result<(), String> {
    let tol = 1.0 / n as f32 + 1e-6;
    let names = |v: &[(String, f32)]| v.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
    if names(reported) != names(mine) {
        return Err(format!(
            "evaluate reported {:?}, the benchmark checked {:?}",
            names(reported),
            names(mine)
        ));
    }
    match reported
        .iter()
        .zip(mine)
        .find(|((_, r), (_, m))| (r - m).is_nan() || (r - m).abs() > tol)
    {
        Some(((name, r), (_, m))) => Err(format!(
            "evaluate reports {name} accuracy {r:.3}, the benchmark's argmax gives {m:.3}"
        )),
        None => Ok(()),
    }
}

/// Whether two logit rows agree within a tolerance that allows for a
/// different summation order in a batched forward pass.
pub fn logits_close(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(&g, &w)| g.is_finite() && (g - w).abs() <= 1e-4 * (1.0 + w.abs()))
}

/// Which of the published weight versions `got` matches, if any.
pub fn matching_version(got: &[f32], versions: &[&[f32]]) -> Option<usize> {
    versions.iter().position(|want| logits_close(got, want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use zk_gandef::defense::TrainReport;

    fn report(losses: Vec<f32>, events: Vec<RunEvent>) -> TrainReport {
        TrainReport {
            defense: "ZK-GanDef",
            epoch_seconds: vec![0.1; losses.len()],
            epoch_losses: losses,
            discriminator: None,
            events,
        }
    }

    #[test]
    fn a_nan_epoch_loss_fails_the_training_check() {
        assert!(training_sound(&report(vec![2.3, 1.1, 0.7], vec![])).is_ok());
        assert!(training_sound(&report(vec![2.3, f32::NAN, 0.7], vec![])).is_err());
        assert!(training_sound(&report(vec![2.3, f32::INFINITY], vec![])).is_err());
        assert_eq!(epochs_failed(&report(vec![2.3, 1.1, 0.7], vec![]), 3), 0);
        assert_eq!(
            epochs_failed(&report(vec![2.3, f32::NAN, 0.7], vec![]), 3),
            1
        );
        assert_eq!(epochs_failed(&report(vec![2.3], vec![]), 3), 2);
    }

    #[test]
    fn a_guard_stop_fails_the_training_check() {
        let stopped = report(vec![2.3, 1.1], vec![RunEvent::GuardStop { epoch: 1 }]);
        assert!(training_sound(&stopped).is_err());
        let rolled = report(
            vec![2.3, 1.1],
            vec![RunEvent::Rollback {
                epoch: 1,
                loss: 9.0,
                to_epoch: 0,
                lrs: vec![],
            }],
        );
        assert!(training_sound(&rolled).is_ok());
        assert_eq!(rollbacks(&rolled), 1);
    }

    #[test]
    fn accuracy_uses_its_own_argmax() {
        let logits = Tensor::from_vec(vec![3, 3], vec![0., 2., 1., 5., 4., 3., 0., 0., 1.]);
        assert_eq!(argmax_rows(&logits), vec![1, 0, 2]);
        assert!((accuracy(&logits, &[1, 0, 0]) - 2.0 / 3.0).abs() < 1e-6);
        assert!(accuracy_at_least("clean", 0.5, 0.6).is_err());
    }

    #[test]
    fn an_example_outside_its_ball_or_the_pixel_range_is_caught() {
        let x = Tensor::from_vec(vec![2, 3], vec![0.0, 0.5, -0.9, 0.2, 0.2, 0.2]);
        let ok = Tensor::from_vec(vec![2, 3], vec![0.1, 0.4, -1.0, 0.3, 0.1, 0.2]);
        assert_eq!(rows_outside_budget(&ok, &x, 0.1), 0);
        let pushed = Tensor::from_vec(vec![2, 3], vec![0.1, 0.4, -1.0, 0.3, 0.1, 0.302]);
        assert_eq!(rows_outside_budget(&pushed, &x, 0.1), 1);
        let off_range = Tensor::from_vec(vec![2, 3], vec![0.0, 0.5, -1.01, 0.2, 0.2, 0.2]);
        assert_eq!(rows_outside_budget(&off_range, &x, 0.2), 1);
        let nan = Tensor::from_vec(vec![2, 3], vec![f32::NAN, 0.5, -0.9, 0.2, 0.2, 0.2]);
        assert_eq!(rows_outside_budget(&nan, &x, 0.1), 1);
    }

    #[test]
    fn attack_orderings_fail_when_violated() {
        assert!(attack_not_above_clean("FGSM", 0.5, 0.6, 0.02).is_ok());
        assert!(attack_not_above_clean("FGSM", 0.7, 0.6, 0.02).is_err());
        assert!(pgd_at_least_fgsm(0.2, 0.3, 0.05).is_ok());
        assert!(pgd_at_least_fgsm(0.4, 0.3, 0.05).is_err());
    }

    #[test]
    fn a_misreported_accuracy_is_caught() {
        let row = |n: &str, a: f32| (n.to_string(), a);
        let mine = [row("Original", 0.75), row("FGSM", 0.5)];
        assert!(same_accuracies(&mine, &mine, 64).is_ok());
        let one_off = [row("Original", 0.75), row("FGSM", 0.5 + 1.0 / 64.0)];
        assert!(same_accuracies(&one_off, &mine, 64).is_ok());
        let off = [row("Original", 0.75), row("FGSM", 0.5 + 2.0 / 64.0)];
        assert!(same_accuracies(&off, &mine, 64).is_err());
        let nan = [row("Original", 0.75), row("FGSM", f32::NAN)];
        assert!(same_accuracies(&nan, &mine, 64).is_err());
        assert!(same_accuracies(&mine[..1], &mine, 64).is_err());
    }

    #[test]
    fn a_nudged_logit_matches_no_version() {
        let a = [1.0f32, -2.0, 0.5];
        let b = [0.3f32, 0.1, -0.7];
        let versions: [&[f32]; 2] = [&a, &b];
        assert_eq!(matching_version(&[1.0, -2.0, 0.5], &versions), Some(0));
        assert_eq!(matching_version(&[0.3, 0.1, -0.7], &versions), Some(1));
        assert_eq!(matching_version(&[1.0, -2.0, 0.51], &versions), None);
        assert_eq!(matching_version(&[1.0, -2.0, f32::NAN], &versions), None);
    }
}
