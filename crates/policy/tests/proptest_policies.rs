//! Property tests pinning the [`FreqPolicy`] contract for every shipped
//! policy: decisions are in range, respect the feasible mask exactly,
//! and are deterministic under a fixed seed.

use greengpu_policy::{
    Contextual, DeadlineParams, DeadlinePolicy, Exp3Params, Exp3Policy, FreqPolicy, JsonValue, LearnerState,
    LossParams, PairModel, PhaseDetectorParams, SwitchingParams, UcbParams, UcbPolicy,
};
use greengpu_sim::SplitMix64;
use proptest::prelude::*;

/// The phase-conditioned exp3 wrapper, seeded one inner per potential
/// phase like the `PolicySpec` builder does.
fn ctx_exp3(n_core: usize, n_mem: usize, seed: u64) -> Contextual<Exp3Policy> {
    let mut root = SplitMix64::new(seed);
    let max = PhaseDetectorParams::default().max_phases;
    let seeds: Vec<u64> = (0..max).map(|_| root.next_u64()).collect();
    Contextual::new(
        n_core,
        n_mem,
        PhaseDetectorParams::default(),
        SwitchingParams::default(),
        LossParams::default(),
        |k| Exp3Policy::new(n_core, n_mem, Exp3Params::default(), seeds[k]),
    )
    .expect("valid contextual params")
}

/// The phase-conditioned UCB wrapper (seedless inners).
fn ctx_ucb(n_core: usize, n_mem: usize) -> Contextual<UcbPolicy> {
    Contextual::new(
        n_core,
        n_mem,
        PhaseDetectorParams::default(),
        SwitchingParams::default(),
        LossParams::default(),
        |_| UcbPolicy::new(n_core, n_mem, UcbParams::default()),
    )
    .expect("valid contextual params")
}

/// Builds one of each policy family over an `n_core × n_mem` grid.
fn all_policies(n_core: usize, n_mem: usize, seed: u64) -> Vec<Box<dyn FreqPolicy>> {
    let time_s: Vec<f64> = (0..n_core * n_mem)
        .map(|k| 2.0 - k as f64 / (n_core * n_mem) as f64)
        .collect();
    let energy_j: Vec<f64> = (0..n_core * n_mem).map(|k| 50.0 + (k % 7) as f64 * 10.0).collect();
    let model = PairModel::from_grids(n_core, n_mem, time_s, energy_j).expect("valid grids");
    vec![
        Box::new(Exp3Policy::new(n_core, n_mem, Exp3Params::default(), seed)),
        Box::new(UcbPolicy::new(n_core, n_mem, UcbParams::default())),
        Box::new(DeadlinePolicy::new(
            model,
            DeadlineParams {
                time_budget_s: 1.6,
                ..DeadlineParams::default()
            },
        )),
        Box::new(ctx_exp3(n_core, n_mem, seed)),
        Box::new(ctx_ucb(n_core, n_mem)),
    ]
}

/// Decodes a `u32` into a feasibility predicate over the grid: bit `k`
/// of the (wrapped) word masks pair `k` in row-major order.
fn mask_from_bits(bits: u32, n_mem: usize) -> impl Fn(usize, usize) -> bool {
    move |i, j| bits & (1 << ((i * n_mem + j) % 32)) != 0
}

/// A learner state of a type no policy knows.
struct Foreign;

impl LearnerState for Foreign {
    fn snapshot(&self) -> JsonValue {
        JsonValue::Obj(Vec::new())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The typed learner state carries exactly what the JSON snapshot
    /// does: it serializes to the donor's snapshot, and a fresh policy
    /// that loads it (built from another seed) serializes identically and
    /// replays the donor decision-for-decision. A state of a foreign type
    /// is rejected without touching the policy.
    #[test]
    fn typed_learner_state_round_trips_like_the_snapshot(
        seed in any::<u64>(),
        warmup in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..30),
        obs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30),
    ) {
        let mut donors = all_policies(6, 6, seed);
        let mut typed = all_policies(6, 6, seed ^ 0x5eed);
        for (a, b) in donors.iter_mut().zip(typed.iter_mut()) {
            for &(uc, um) in &warmup {
                a.decide(uc, um, &|_, _| true);
            }
            let state = a.learner();
            let snap = a.snapshot().to_string();
            prop_assert_eq!(state.snapshot().to_string(), snap.clone(), "{} state renders differently", a.name());
            let fresh = b.snapshot().to_string();
            prop_assert!(b.load_learner(&Foreign).is_err(), "{} accepted a foreign state", a.name());
            prop_assert_eq!(b.snapshot().to_string(), fresh, "{} rejected load mutated state", a.name());
            b.load_learner(state.as_ref()).expect("load own state");
            prop_assert_eq!(b.snapshot().to_string(), snap, "{} typed load not exact", a.name());
            for &(uc, um) in &obs {
                prop_assert_eq!(a.decide(uc, um, &|_, _| true), b.decide(uc, um, &|_, _| true), "{}", a.name());
            }
        }
    }

    /// Contract items 1 + 2: every decision is in range, and when the
    /// feasible set is non-empty the decision satisfies the mask; an
    /// empty set degrades to (0, 0) and is counted in the telemetry.
    #[test]
    fn decisions_are_in_range_and_respect_the_mask(
        seed in any::<u64>(),
        n_core in 2usize..6,
        n_mem in 2usize..6,
        obs in proptest::collection::vec((0.0f64..1.5, 0.0f64..1.5, any::<u32>()), 1..40),
    ) {
        for mut policy in all_policies(n_core, n_mem, seed) {
            let mut empties = 0u64;
            for &(u_core, u_mem, bits) in &obs {
                let feasible = mask_from_bits(bits, n_mem);
                let nonempty = (0..n_core).any(|i| (0..n_mem).any(|j| feasible(i, j)));
                let (i, j) = policy.decide(u_core, u_mem, &feasible);
                prop_assert!(i < n_core && j < n_mem,
                    "{}: out-of-range ({i},{j}) on {n_core}x{n_mem}", policy.name());
                if nonempty {
                    prop_assert!(feasible(i, j),
                        "{}: ({i},{j}) escaped the mask", policy.name());
                } else {
                    prop_assert_eq!((i, j), (0, 0));
                    empties += 1;
                }
            }
            prop_assert_eq!(policy.telemetry().empty_mask_fallbacks, empties);
            let (pi, pj) = policy.preferred();
            prop_assert!(pi < n_core && pj < n_mem);
        }
    }

    /// Contract item 3: two instances built with the same parameters and
    /// seed produce identical decision sequences (and telemetry) for an
    /// identical observation sequence.
    #[test]
    fn policies_are_deterministic_under_a_fixed_seed(
        seed in any::<u64>(),
        obs in proptest::collection::vec((0.0f64..1.2, 0.0f64..1.2, any::<u32>()), 1..60),
    ) {
        let lhs = all_policies(6, 6, seed);
        let rhs = all_policies(6, 6, seed);
        for (mut a, mut b) in lhs.into_iter().zip(rhs) {
            for &(u_core, u_mem, bits) in &obs {
                // Bias toward non-trivial masks but keep empties reachable.
                let feasible = mask_from_bits(bits | 1, 6);
                prop_assert_eq!(
                    a.decide(u_core, u_mem, &feasible),
                    b.decide(u_core, u_mem, &feasible),
                    "{} diverged", a.name()
                );
            }
            prop_assert_eq!(a.telemetry(), b.telemetry());
        }
    }

    /// Contract item 4: interleaved non-finite observations never derail
    /// a policy — replaying the same sequence stays deterministic, the
    /// rejections are counted, and decisions stay masked.
    #[test]
    fn garbage_observations_are_rejected_deterministically(
        seed in any::<u64>(),
        obs in proptest::collection::vec((0.0f64..1.0, any::<bool>(), any::<u32>()), 1..40),
    ) {
        let lhs = all_policies(6, 6, seed);
        let rhs = all_policies(6, 6, seed);
        for (mut a, mut b) in lhs.into_iter().zip(rhs) {
            let mut bad = 0u64;
            for &(u, poison, bits) in &obs {
                let u_core = if poison { f64::NAN } else { u };
                if poison {
                    bad += 1;
                }
                let feasible = mask_from_bits(bits | 1, 6);
                let pa = a.decide(u_core, u, &feasible);
                prop_assert_eq!(pa, b.decide(u_core, u, &feasible));
                prop_assert!(feasible(pa.0, pa.1));
            }
            prop_assert_eq!(a.telemetry().invalid_inputs, bad, "{}", a.name());
        }
    }

    /// Contextual checkpoint round trips are bit-exact at any split
    /// point: a fresh same-seed wrapper restored from the donor's
    /// snapshot replays its future decision-for-decision — detector
    /// window, phase library, per-phase inners, and the enforced pair
    /// all survive serialization.
    #[test]
    fn contextual_checkpoint_round_trip_is_bit_exact(
        seed in any::<u64>(),
        split in 1usize..120,
        reps in 4usize..20,
    ) {
        let total = 160usize;
        let split = split.min(total - 1);
        let wave = |k: usize| if (k / reps).is_multiple_of(2) { (0.85, 0.25) } else { (0.2, 0.8) };
        let mut donors: Vec<Box<dyn FreqPolicy>> =
            vec![Box::new(ctx_exp3(6, 6, seed)), Box::new(ctx_ucb(6, 6))];
        let mut restored: Vec<Box<dyn FreqPolicy>> =
            vec![Box::new(ctx_exp3(6, 6, seed)), Box::new(ctx_ucb(6, 6))];
        for (a, b) in donors.iter_mut().zip(restored.iter_mut()) {
            for k in 0..split {
                let (uc, um) = wave(k);
                a.decide(uc, um, &|_, _| true);
            }
            let snap = a.snapshot();
            b.restore(&snap).expect("restore own snapshot");
            prop_assert_eq!(snap.to_string(), b.snapshot().to_string(), "{} restore not exact", a.name());
            for k in split..total {
                let (uc, um) = wave(k);
                prop_assert_eq!(
                    a.decide(uc, um, &|_, _| true),
                    b.decide(uc, um, &|_, _| true),
                    "{} diverged at interval {}", a.name(), k
                );
            }
            prop_assert_eq!(a.snapshot().to_string(), b.snapshot().to_string(), "{} end state", a.name());
        }
    }

    /// `reset` restores the initial state exactly: a reset policy replays
    /// a fresh instance decision-for-decision.
    #[test]
    fn reset_replays_like_a_fresh_instance(
        seed in any::<u64>(),
        warmup in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..20),
        obs in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..30),
    ) {
        let used = all_policies(6, 6, seed);
        let fresh = all_policies(6, 6, seed);
        for (mut a, mut b) in used.into_iter().zip(fresh) {
            for &(u_core, u_mem) in &warmup {
                a.decide(u_core, u_mem, &|_, _| true);
            }
            a.reset();
            for &(u_core, u_mem) in &obs {
                prop_assert_eq!(
                    a.decide(u_core, u_mem, &|_, _| true),
                    b.decide(u_core, u_mem, &|_, _| true),
                    "{} reset != fresh", a.name()
                );
            }
        }
    }
}
