//! Cross-crate attack contracts: every generator, against both classifier
//! architectures, must produce examples inside its `l∞` budget and the
//! valid pixel range (the paper's `F` projection) — including on RGB
//! conv inputs where broadcasting bugs would hide. Every attack must also
//! give the same output through the `Classifier` trait's provided
//! `linearize` as through `Net`'s single-forward override, and behave like
//! a real attack rather than a masked gradient on a trained model.

use zk_gandef_repro::attack::{
    Attack, AttackBudget, Bim, CarliniWagner, DeepFool, Fgsm, Mim, Pgd, TargetedPgd,
};
use zk_gandef_repro::data::{batches, generate, DatasetKind, GenSpec};
use zk_gandef_repro::defense::classifier_for;
use zk_gandef_repro::nn::optim::{Adam, Optimizer};
use zk_gandef_repro::nn::{accuracy, one_hot, zoo, Classifier, Mode, Net, Session};
use zk_gandef_repro::tensor::accum::{with_accum, Accum};
use zk_gandef_repro::tensor::rng::Prng;
use zk_gandef_repro::tensor::Tensor;

fn attack_set(b: &AttackBudget) -> Vec<Box<dyn Attack>> {
    vec![
        Box::new(Fgsm::new(b.eps)),
        Box::new(Bim::new(b.eps, b.bim_step, 3)),
        Box::new(Pgd::new(b.eps, b.pgd_step, 3)),
        Box::new(DeepFool::new(b.eps, 3)),
        Box::new(CarliniWagner::new(b.eps, 5)),
    ]
}

#[test]
fn all_attacks_respect_constraints_on_all_dataset_families() {
    for kind in DatasetKind::ALL {
        let ds = generate(
            kind,
            &GenSpec {
                train: 10,
                test: 6,
                seed: 5,
            },
        );
        let budget = match kind {
            DatasetKind::SynthCifar => AttackBudget::for_32x32(),
            _ => AttackBudget::for_28x28(),
        };
        let mut rng = Prng::new(0);
        let net = classifier_for(kind, &mut rng);
        for attack in attack_set(&budget) {
            let mut arng = Prng::new(1);
            let adv = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut arng);
            assert_eq!(
                adv.shape(),
                ds.test_x.shape(),
                "{} on {kind}",
                attack.name()
            );
            let delta = adv.sub(&ds.test_x).linf_norm();
            assert!(
                delta <= budget.eps + 1e-4,
                "{} on {kind}: ‖δ‖∞ = {delta} > ε = {}",
                attack.name(),
                budget.eps
            );
            assert!(
                adv.min_value() >= -1.0 - 1e-5 && adv.max_value() <= 1.0 + 1e-5,
                "{} on {kind}: pixels out of range",
                attack.name()
            );
            assert!(
                adv.is_finite(),
                "{} on {kind}: non-finite pixels",
                attack.name()
            );
        }
    }
}

#[test]
fn attacks_are_reproducible_under_a_fixed_seed() {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 10,
            test: 4,
            seed: 6,
        },
    );
    let mut rng = Prng::new(0);
    let net = classifier_for(DatasetKind::SynthDigits, &mut rng);
    let b = AttackBudget::for_28x28();
    for attack in attack_set(&b) {
        let a1 = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut Prng::new(9));
        let a2 = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut Prng::new(9));
        assert_eq!(a1, a2, "{} not reproducible", attack.name());
    }
}

#[test]
fn chunked_attack_equals_whole_batch_for_deterministic_attacks() {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 10,
            test: 8,
            seed: 7,
        },
    );
    let mut rng = Prng::new(0);
    let net = classifier_for(DatasetKind::SynthDigits, &mut rng);
    // FGSM and BIM are RNG-free, so chunking must be exactly transparent.
    for attack in [
        Box::new(Fgsm::new(0.6)) as Box<dyn Attack>,
        Box::new(Bim::new(0.6, 0.1, 3)),
    ] {
        let whole = attack.perturb(&net, &ds.test_x, &ds.test_y, &mut Prng::new(0));
        let chunked = zk_gandef_repro::attack::perturb_chunked(
            attack.as_ref(),
            &net,
            &ds.test_x,
            &ds.test_y,
            3,
            &mut Prng::new(0),
        );
        assert!(
            whole.allclose(&chunked, 1e-6),
            "{} chunking changed the result",
            attack.name()
        );
    }
}

/// Forwards only the four required [`Classifier`] methods, so attacks on it
/// take the provided `linearize` (logits, then one gradient call per
/// weight matrix).
struct RequiredOnly<'a>(&'a Net);

impl Classifier for RequiredOnly<'_> {
    fn num_classes(&self) -> usize {
        self.0.num_classes()
    }

    fn logits(&self, x: &Tensor) -> Tensor {
        self.0.logits(x)
    }

    fn ce_input_grad(&self, x: &Tensor, targets: &Tensor) -> (f32, Tensor) {
        self.0.ce_input_grad(x, targets)
    }

    fn weighted_logit_input_grad(&self, x: &Tensor, weights: &Tensor) -> Tensor {
        self.0.weighted_logit_input_grad(x, weights)
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn attacks_on_net_equal_the_provided_linearize_bitwise() {
    // 70 rows: more than one chunk of `Net`'s tape-free inference, which
    // the provided `linearize` reads its logits from.
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 10,
            test: 70,
            seed: 8,
        },
    );
    let net = classifier_for(DatasetKind::SynthDigits, &mut Prng::new(0));
    // The model's own predictions as labels keep every row active in
    // DeepFool and every CW margin unbroken.
    let labels = net.predict(&ds.test_x);
    let b = AttackBudget::for_28x28();
    let mut attacks = attack_set(&b);
    attacks.push(Box::new(Mim::new(b.eps, b.bim_step, 3)));
    attacks.push(Box::new(TargetedPgd::new(b.eps, b.pgd_step, 3)));
    for mode in [Accum::F32, Accum::F64] {
        with_accum(mode, || {
            for attack in &attacks {
                let direct = attack.perturb(&net, &ds.test_x, &labels, &mut Prng::new(3));
                let provided =
                    attack.perturb(&RequiredOnly(&net), &ds.test_x, &labels, &mut Prng::new(3));
                assert!(
                    bits(&direct) == bits(&provided),
                    "{} under {mode:?}: Net and the provided linearize disagree",
                    attack.name()
                );
            }
        });
    }
}

/// An MLP trained on SynthDigits to well above chance, with its 64 test
/// images and labels.
fn trained_digits_mlp() -> (Net, Tensor, Vec<usize>) {
    let ds = generate(
        DatasetKind::SynthDigits,
        &GenSpec {
            train: 600,
            test: 64,
            seed: 11,
        },
    );
    let mut rng = Prng::new(0);
    let mut net = Net::new(zoo::mlp(28 * 28, 64, 10), &mut rng);
    let mut opt = Adam::new(0.003);
    for _ in 0..12 {
        for (xb, yb) in batches(&ds.train_x, &ds.train_y, 32, &mut rng) {
            let mut sess = Session::new(&net.params, Mode::Train, rng.fork(1));
            let x = sess.input(xb);
            let z = net.model.forward(&mut sess, x);
            let loss = sess.tape.softmax_cross_entropy(z, &one_hot(&yb, 10));
            let grads = sess.backward(loss);
            opt.step(&mut net.params, &grads);
        }
    }
    assert!(
        net.accuracy_on(&ds.test_x, &ds.test_y) > 0.8,
        "fixture net failed to train"
    );
    (net, ds.test_x, ds.test_y)
}

/// Slack for the monotonicity checks: two of the 64 test images. Each
/// check is one-sided, so a stronger attack never trips it.
const SLACK: f32 = 2.0 / 64.0;

fn adv_accuracy(attack: &dyn Attack, net: &Net, x: &Tensor, y: &[usize]) -> f32 {
    let adv = attack.perturb(net, x, y, &mut Prng::new(21));
    accuracy(&net.predict(&adv), y)
}

/// PGD with the step rule of the training variant: the steps span 2.5 ε.
fn pgd(eps: f32, iters: usize) -> Pgd {
    Pgd::new(eps, 2.5 * eps / iters as f32, iters)
}

/// Asserts that accuracy never rises by more than [`SLACK`] as the attack
/// parameter grows along `params`.
fn assert_non_increasing(what: &str, params: &[f32], accs: &[f32]) {
    for (i, pair) in accs.windows(2).enumerate() {
        assert!(
            pair[1] <= pair[0] + SLACK,
            "{what}: accuracy rose from {} at {} to {} at {} ({accs:?})",
            pair[0],
            params[i],
            pair[1],
            params[i + 1]
        );
    }
}

#[test]
fn accuracy_does_not_rise_with_eps() {
    let (net, x, y) = trained_digits_mlp();
    let epsilons = [0.02, 0.05, 0.1, 0.2, 0.4];
    let scan = |attack: &dyn Fn(f32) -> Box<dyn Attack>| -> Vec<f32> {
        epsilons
            .iter()
            .map(|&e| adv_accuracy(attack(e).as_ref(), &net, &x, &y))
            .collect()
    };
    let fgsm = scan(&|e| Box::new(Fgsm::new(e)));
    assert_non_increasing("FGSM over ε", &epsilons, &fgsm);
    let pgd = scan(&|e| Box::new(pgd(e, 10)));
    assert_non_increasing("PGD over ε", &epsilons, &pgd);
}

#[test]
fn accuracy_does_not_rise_with_pgd_iterations() {
    let (net, x, y) = trained_digits_mlp();
    let iters = [1, 3, 10, 30];
    let accs: Vec<f32> = iters
        .iter()
        .map(|&k| adv_accuracy(&pgd(0.08, k), &net, &x, &y))
        .collect();
    let params: Vec<f32> = iters.iter().map(|&k| k as f32).collect();
    assert_non_increasing("PGD over iterations", &params, &accs);
}

#[test]
fn pgd_is_at_least_as_strong_as_fgsm_at_equal_eps() {
    let (net, x, y) = trained_digits_mlp();
    for eps in [0.05, 0.1, 0.2] {
        let fgsm = adv_accuracy(&Fgsm::new(eps), &net, &x, &y);
        let pgd = adv_accuracy(&pgd(eps, 10), &net, &x, &y);
        assert!(
            pgd <= fgsm + SLACK,
            "ε={eps}: PGD accuracy {pgd} above FGSM accuracy {fgsm}"
        );
    }
}

#[test]
fn eps_covering_the_pixel_range_drives_pgd_to_chance() {
    let (net, x, y) = trained_digits_mlp();
    // Pixels live in [−1, 1]: ε = 2 lets PGD reach any image.
    let acc = adv_accuracy(&pgd(2.0, 20), &net, &x, &y);
    assert!(
        acc <= 0.1 + SLACK,
        "PGD with an unbounded ball left accuracy at {acc}"
    );
}
