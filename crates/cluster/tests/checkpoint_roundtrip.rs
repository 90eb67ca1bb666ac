//! Checkpoint round-trip properties: `restore(snapshot(s))` reproduces
//! learner state bit-for-bit for every checkpointable layer — WMA weight
//! tables, bandit statistics, the Tier-1 division ratio, and the full
//! controller JSON — and corrupted or truncated checkpoints are rejected
//! without mutating the target. A node's in-memory (typed) checkpoint
//! restores to exactly the state its exported JSON restores to, for
//! every policy family.

use greengpu::{
    DeadlineParams, DivisionController, DivisionParams, Exp3Params, Exp3Policy, FreqPolicy, GreenGpuConfig,
    GreenGpuController, PhaseDetectorParams, PolicySpec, UcbParams, UcbPolicy, WmaParams, WmaScaler,
    CHECKPOINT_VERSION,
};
use greengpu_cluster::{JobSpec, Node, NodeConfig, NodeState};
use greengpu_sim::{SimDuration, SimTime};
use proptest::prelude::*;

const N_CORE: usize = 6;
const N_MEM: usize = 6;

/// Bit-exact weight-table comparison (ordinary `==` would accept `-0.0`
/// vs `0.0` and reject differing NaN payloads).
fn wma_weights_bits(s: &WmaScaler) -> Vec<u64> {
    let mut bits = Vec::with_capacity(N_CORE * N_MEM);
    for i in 0..N_CORE {
        for j in 0..N_MEM {
            bits.push(s.weight(i, j).to_bits());
        }
    }
    bits
}

/// One spec per policy family the node recipe can build.
fn policy_families() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Wma(WmaParams::default()),
        PolicySpec::Exp3(Exp3Params::default()),
        PolicySpec::Ucb(UcbParams::default()),
        PolicySpec::Deadline(DeadlineParams::default()),
        PolicySpec::ContextualExp3 {
            inner: Exp3Params::default(),
            detector: PhaseDetectorParams::default(),
            levels: None,
        },
        PolicySpec::ContextualUcb {
            inner: UcbParams::default(),
            detector: PhaseDetectorParams::default(),
            levels: None,
        },
    ]
}

/// A paper-testbed node running `spec`, with a one-second restart and
/// one probation interval.
fn family_node(spec: &PolicySpec) -> Node {
    let cfg = NodeConfig {
        freq_policy: spec.clone(),
        ..NodeConfig::default_node()
    };
    let mut node = Node::new(0, &cfg, &["hotspot".to_string(), "kmeans".to_string()], 1);
    node.set_lifecycle(1.0, 1);
    node
}

/// Serves one kmeans job for `ticks` one-second control intervals under
/// a cap of `cap_frac` of the card's peak power; returns the end time.
fn warm_up(node: &mut Node, ticks: u64, cap_frac: f64) -> SimTime {
    let cap = (cap_frac * node.platform().gpu().spec().peak_power_w() * 1000.0) as u64;
    node.dispatch(
        JobSpec {
            id: 0,
            workload: "kmeans".to_string(),
            arrival: SimTime::ZERO,
            size: 50.0,
            deadline: None,
            tenant: 0,
        },
        SimTime::ZERO,
    );
    let mut t = SimTime::ZERO;
    for k in 1..=ticks {
        let next = SimTime::from_secs(k);
        node.advance(t, next);
        node.control_tick(next, cap);
        t = next;
    }
    t
}

/// Crashes the node at `t` and runs its lifecycle until the restart
/// (and with it the checkpoint restore) has completed.
fn crash_and_restart(node: &mut Node, t: SimTime) {
    node.crash(t, 1.0);
    let mut now = t;
    while node.state() != NodeState::Probation {
        now += SimDuration::from_secs(1);
        node.lifecycle_tick(now);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every policy family, a restart from the node's typed
    /// checkpoint and a restart from the same checkpoint exported to
    /// JSON and loaded back reach the same controller state, and that
    /// state serializes to exactly the exported checkpoint.
    #[test]
    fn typed_and_json_restores_agree_for_every_policy_family(ticks in 1u64..40, cap_frac in 0.4f64..1.0) {
        for spec in policy_families() {
            let mut typed = family_node(&spec);
            let mut json = family_node(&spec);
            let t = warm_up(&mut typed, ticks, cap_frac);
            warm_up(&mut json, ticks, cap_frac);
            let live = typed.controller().snapshot();
            typed.take_checkpoint();
            json.take_checkpoint();
            let exported = json.checkpoint_data().expect("checkpoint taken").to_string();
            prop_assert_eq!(&exported, &live, "{} export differs from the live snapshot", spec.kind());
            json.load_checkpoint(exported.clone());

            crash_and_restart(&mut typed, t);
            crash_and_restart(&mut json, t);
            prop_assert_eq!((typed.warm_restarts(), json.warm_restarts()), (1, 1), "{}", spec.kind());
            prop_assert_eq!(typed.controller().snapshot(), json.controller().snapshot(), "{}", spec.kind());
            prop_assert_eq!(typed.controller().snapshot(), exported, "{}", spec.kind());
        }
    }

    /// A truncated checkpoint loaded through the corruption seam still
    /// goes through the strict JSON restore: the restart cold-starts,
    /// counts a restore failure, and discards the checkpoint.
    #[test]
    fn truncated_loaded_checkpoint_cold_starts_and_counts_a_failure(cut_frac in 0.01f64..0.99) {
        for spec in policy_families() {
            let mut node = family_node(&spec);
            let t = warm_up(&mut node, 5, 0.8);
            node.take_checkpoint();
            let cp = node.checkpoint_data().expect("checkpoint taken").to_string();
            let cut = ((cp.len() as f64 * cut_frac) as usize).clamp(1, cp.len() - 1);
            node.load_checkpoint(cp[..cut].to_string());
            crash_and_restart(&mut node, t);
            prop_assert_eq!(node.restore_failures(), 1, "{}", spec.kind());
            prop_assert_eq!((node.warm_restarts(), node.cold_restarts()), (0, 1), "{}", spec.kind());
            prop_assert!(node.checkpoint_data().is_none(), "{}: garbage checkpoint is discarded", spec.kind());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// WMA: snapshot → restore into a *fresh* scaler reproduces the
    /// weight table bit-for-bit, and both copies then decide identically.
    #[test]
    fn wma_snapshot_round_trips_bit_exactly(
        drives in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..8),
    ) {
        let mut warm = WmaScaler::new(N_CORE, N_MEM, WmaParams::default());
        for &(uc, um) in &drives {
            warm.observe(uc, um);
        }
        let snap = warm.snapshot();
        let mut restored = WmaScaler::new(N_CORE, N_MEM, WmaParams::default());
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(wma_weights_bits(&warm), wma_weights_bits(&restored));
        prop_assert_eq!(warm.intervals(), restored.intervals());
        prop_assert_eq!(warm.empty_mask_fallbacks(), restored.empty_mask_fallbacks());
        prop_assert_eq!(warm.argmax(), restored.argmax());
        for &(uc, um) in &probes {
            prop_assert_eq!(warm.observe(uc, um), restored.observe(uc, um));
        }
    }

    /// EXP3: the snapshot carries the weights *and* the RNG stream
    /// position, so a restored copy — even one built from a different
    /// seed — replays the identical decision sequence.
    #[test]
    fn exp3_snapshot_round_trips_the_rng_position(
        drives in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..12),
    ) {
        let all = |_: usize, _: usize| true;
        let mut warm = Exp3Policy::new(N_CORE, N_MEM, Exp3Params::default(), 42);
        for &(uc, um) in &drives {
            warm.decide(uc, um, &all);
        }
        let snap = warm.snapshot();
        // Different construction seed: only the snapshot state may matter.
        let mut restored = Exp3Policy::new(N_CORE, N_MEM, Exp3Params::default(), 7);
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(warm.preferred(), restored.preferred());
        prop_assert_eq!(&warm.snapshot(), &restored.snapshot(), "state must serialize identically");
        for &(uc, um) in &probes {
            prop_assert_eq!(warm.decide(uc, um, &all), restored.decide(uc, um, &all));
        }
    }

    /// UCB1: counts, means, and the step counter survive bit-for-bit.
    #[test]
    fn ucb_snapshot_round_trips_bit_exactly(
        drives in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
        probes in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..12),
    ) {
        let all = |_: usize, _: usize| true;
        let mut warm = UcbPolicy::new(N_CORE, N_MEM, UcbParams::default());
        for &(uc, um) in &drives {
            warm.decide(uc, um, &all);
        }
        let snap = warm.snapshot();
        let mut restored = UcbPolicy::new(N_CORE, N_MEM, UcbParams::default());
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(warm.preferred(), restored.preferred());
        prop_assert_eq!(&warm.snapshot(), &restored.snapshot());
        for &(uc, um) in &probes {
            prop_assert_eq!(warm.decide(uc, um, &all), restored.decide(uc, um, &all));
        }
    }

    /// Tier-1 division: the ratio, hold state, and oscillation-guard
    /// rates survive, so a restored controller resumes the same walk.
    #[test]
    fn division_snapshot_round_trips_the_ratio(
        drives in proptest::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..30),
        probes in proptest::collection::vec((0.1f64..10.0, 0.1f64..10.0), 1..6),
    ) {
        let mut warm = DivisionController::new(0.2, DivisionParams::default());
        for &(tc, tg) in &drives {
            warm.update(tc, tg);
        }
        let snap = warm.snapshot();
        let mut restored = DivisionController::new(0.2, DivisionParams::default());
        restored.restore(&snap).expect("own snapshot must restore");
        prop_assert_eq!(warm.share().to_bits(), restored.share().to_bits());
        prop_assert_eq!(warm.holds(), restored.holds());
        prop_assert_eq!(warm.moves(), restored.moves());
        for &(tc, tg) in &probes {
            prop_assert_eq!(warm.update(tc, tg).to_bits(), restored.update(tc, tg).to_bits());
        }
    }

    /// Truncating a valid controller checkpoint at *any* interior byte
    /// makes it unrestorable — the strict parser refuses prefixes.
    #[test]
    fn truncated_checkpoints_are_always_rejected(cut_frac in 0.01f64..0.99) {
        let ctl = GreenGpuController::with_policy(
            GreenGpuConfig::scaling_only(),
            PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
        );
        let cp = ctl.snapshot();
        let cut = ((cp.len() as f64 * cut_frac) as usize).clamp(1, cp.len() - 1);
        let mut target = GreenGpuController::with_policy(
            GreenGpuConfig::scaling_only(),
            PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
        );
        prop_assert!(target.restore(&cp[..cut]).is_err(), "prefix of {cut} bytes must not parse");
    }
}

#[test]
fn controller_checkpoint_round_trips_and_restores_idempotently() {
    let mut ctl = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
    );
    let cp = ctl.snapshot();
    assert!(cp.contains(&format!("\"version\":{CHECKPOINT_VERSION}")));
    ctl.restore(&cp).expect("own checkpoint restores");
    assert_eq!(
        ctl.snapshot(),
        cp,
        "restore(snapshot) must be the identity on the state"
    );
}

#[test]
fn version_and_policy_mismatches_are_named() {
    let mut ctl = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
    );
    let cp = ctl.snapshot();

    let future = cp.replace(
        &format!("\"version\":{CHECKPOINT_VERSION}"),
        &format!("\"version\":{}", CHECKPOINT_VERSION + 1),
    );
    let err = ctl.restore(&future).expect_err("future version must be refused");
    assert!(err.contains("version"), "{err}");

    let mut exp3 = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::Exp3(Exp3Params::default())
            .build(N_CORE, N_MEM, 1, None)
            .expect("valid"),
    );
    let err = exp3.restore(&cp).expect_err("wrong policy family must be refused");
    assert!(err.contains("policy"), "{err}");
}

#[test]
fn garbage_checkpoints_never_mutate_the_target() {
    let mut ctl = GreenGpuController::with_policy(
        GreenGpuConfig::scaling_only(),
        PolicySpec::default().build(N_CORE, N_MEM, 1, None).expect("valid"),
    );
    let before = ctl.snapshot();
    for garbage in [
        "",
        "not json",
        "{}",
        "{\"version\":1}",
        "[1,2,3]",
        "{\"version\":1,\"policy\":\"wma\",\"state\":{\"weights\":[1,2]},\"division\":null}",
    ] {
        assert!(ctl.restore(garbage).is_err(), "{garbage:?} must be rejected");
        assert_eq!(ctl.snapshot(), before, "failed restore must leave state untouched");
    }
}
