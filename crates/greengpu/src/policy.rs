//! The [`FreqPolicy`] seam of the `greengpu` crate: the WMA adapter, the
//! policy registry ([`PolicySpec`]), and the workload→[`PairModel`]
//! prediction helper.
//!
//! [`WmaPolicy`] wraps the paper's [`WmaScaler`] **unchanged** — it
//! delegates every observation to [`WmaScaler::observe_masked`] with the
//! same inputs the coordinator used to pass directly, so a controller
//! built from `PolicySpec::Wma(params)` reproduces the pre-seam
//! controller decision-for-decision. What the adapter adds is the
//! cross-policy telemetry (cumulative loss, switches, regret) every
//! [`FreqPolicy`] carries, so WMA appears in the same head-to-head
//! tables as the bandits and the deadline selector.

use crate::wma::{WmaParams, WmaScaler, WmaState};
use greengpu_hw::GpuSpec;
use greengpu_policy::telemetry::DecisionTracker;
use greengpu_policy::{
    Contextual, DeadlineParams, DeadlinePolicy, Exp3Params, Exp3Policy, FreqPolicy, LearnerState, LossModel,
    LossParams, PairModel, PhaseDetectorParams, PolicyTelemetry, UcbParams, UcbPolicy,
};
use greengpu_sim::SplitMix64;
use greengpu_workloads::model::phase_gpu_timing;
use greengpu_workloads::Workload;

/// [`FreqPolicy`] adapter over the paper's WMA scaler.
pub struct WmaPolicy {
    scaler: WmaScaler,
    n_core: usize,
    n_mem: usize,
    tracker: DecisionTracker,
}

impl WmaPolicy {
    /// Wraps a fresh `n_core × n_mem` scaler. The telemetry loss model
    /// reuses the WMA's own `α`/`φ` constants so regret is scored on the
    /// exact loss the scaler optimizes.
    pub fn new(n_core: usize, n_mem: usize, params: WmaParams) -> Self {
        let loss = LossParams {
            alpha_core: params.alpha_core,
            alpha_mem: params.alpha_mem,
            phi: params.phi,
        };
        WmaPolicy {
            scaler: WmaScaler::new(n_core, n_mem, params),
            n_core,
            n_mem,
            tracker: DecisionTracker::new(LossModel::new(n_core, n_mem, loss)),
        }
    }

    /// The wrapped scaler (inspection/tests — also reachable through
    /// [`FreqPolicy::as_any`]).
    pub fn scaler(&self) -> &WmaScaler {
        &self.scaler
    }
}

impl FreqPolicy for WmaPolicy {
    fn name(&self) -> &str {
        "wma"
    }

    fn shape(&self) -> (usize, usize) {
        (self.n_core, self.n_mem)
    }

    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize) {
        // Delegate with identical inputs — the scaler owns the NaN
        // rejection and the empty-mask degradation; the adapter only
        // mirrors them into the shared telemetry.
        let pair = self.scaler.observe_masked(u_core, u_mem, feasible);
        let empty = !(0..self.n_core).any(|i| (0..self.n_mem).any(|j| feasible(i, j)));
        if empty {
            self.tracker.note_empty_mask();
        } else if !(u_core.is_finite() && u_mem.is_finite()) {
            self.tracker.note_invalid();
        } else {
            self.tracker.record(u_core, u_mem, pair, 0.0);
        }
        pair
    }

    fn preferred(&self) -> (usize, usize) {
        self.scaler.argmax()
    }

    fn telemetry(&self) -> &PolicyTelemetry {
        self.tracker.telemetry()
    }

    fn reset(&mut self) {
        self.scaler.reset();
        self.tracker.reset();
    }

    fn restore(&mut self, state: &greengpu_sim::JsonValue) -> Result<(), String> {
        self.scaler.restore(state)
    }

    fn learner(&self) -> Box<dyn LearnerState> {
        Box::new(self.scaler.state())
    }

    fn load_learner(&mut self, state: &dyn LearnerState) -> Result<(), String> {
        self.scaler.set_state(state.downcast::<WmaState>()?)
    }

    fn decision_fingerprint(&self) -> Option<u64> {
        // The scaler's decisions are a pure function of its weight table
        // (ucmean/ummean are static; the interval counter is telemetry),
        // so the weights' exact bit patterns are the whole fingerprint.
        // The tracker mirrors decisions into telemetry and is excluded.
        let mut h = greengpu_sim::Fnv64::new();
        for i in 0..self.n_core {
            for j in 0..self.n_mem {
                h.push_f64(self.scaler.weight(i, j));
            }
        }
        Some(h.finish())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Declarative policy selection — what configs (cluster nodes, the repro
/// CLI) carry instead of a live `Box<dyn FreqPolicy>`.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicySpec {
    /// The paper's WMA scaler (the default).
    Wma(WmaParams),
    /// Switching-aware EXP3 bandit.
    Exp3(Exp3Params),
    /// Switching-aware UCB bandit.
    Ucb(UcbParams),
    /// Deadline-aware energy-minimizing selection; building it requires
    /// a [`PairModel`] (see [`PolicySpec::build`]).
    Deadline(DeadlineParams),
    /// Phase-conditioned EXP3: one inner bandit per phase the detector
    /// discovers. The wrapper's switching accounting and the telemetry
    /// loss model reuse the inner parameters' own `switching`/`loss`.
    ContextualExp3 {
        /// Parameters every inner bandit is built with.
        inner: Exp3Params,
        /// Phase-detector tuning (`max_phases` bounds the inner count;
        /// [`PhaseDetectorParams::disabled`] is the detector-off
        /// ablation).
        detector: PhaseDetectorParams,
        /// Optional per-level clock tables `(core, mem)` enabling
        /// clock-invariant detection ([`Contextual::with_level_caps`]);
        /// `None` feeds the detector raw utilizations.
        levels: Option<(Vec<f64>, Vec<f64>)>,
    },
    /// Phase-conditioned UCB: one inner bandit per detected phase.
    ContextualUcb {
        /// Parameters every inner bandit is built with.
        inner: UcbParams,
        /// Phase-detector tuning.
        detector: PhaseDetectorParams,
        /// Optional per-level clock tables `(core, mem)` for
        /// clock-invariant detection.
        levels: Option<(Vec<f64>, Vec<f64>)>,
    },
}

impl Default for PolicySpec {
    fn default() -> Self {
        PolicySpec::Wma(WmaParams::default())
    }
}

impl PolicySpec {
    /// The policy's stable name (matches [`FreqPolicy::name`] of the
    /// built instance, modulo the bandits' `-nosw` ablation suffix).
    pub fn kind(&self) -> &'static str {
        match self {
            PolicySpec::Wma(_) => "wma",
            PolicySpec::Exp3(_) => "exp3",
            PolicySpec::Ucb(_) => "ucb",
            PolicySpec::Deadline(_) => "deadline",
            PolicySpec::ContextualExp3 { .. } => "ctx-exp3",
            PolicySpec::ContextualUcb { .. } => "ctx-ucb",
        }
    }

    /// Non-panicking parameter check, naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        match self {
            PolicySpec::Wma(p) => p.try_validate(),
            PolicySpec::Exp3(p) => p.try_validate(),
            PolicySpec::Ucb(p) => p.try_validate(),
            PolicySpec::Deadline(p) => p.try_validate(),
            PolicySpec::ContextualExp3 { inner, detector, .. } => {
                inner.try_validate()?;
                detector.try_validate()
            }
            PolicySpec::ContextualUcb { inner, detector, .. } => {
                inner.try_validate()?;
                detector.try_validate()
            }
        }
    }

    /// Builds the live policy for an `n_core × n_mem` grid. Randomized
    /// policies derive their streams from `seed`; the deadline selector
    /// requires `model` (errors without one), every other variant
    /// ignores it.
    pub fn build(
        &self,
        n_core: usize,
        n_mem: usize,
        seed: u64,
        model: Option<&PairModel>,
    ) -> Result<Box<dyn FreqPolicy>, String> {
        self.try_validate()?;
        match self {
            PolicySpec::Wma(p) => Ok(Box::new(WmaPolicy::new(n_core, n_mem, *p))),
            PolicySpec::Exp3(p) => Ok(Box::new(Exp3Policy::new(n_core, n_mem, *p, seed))),
            PolicySpec::Ucb(p) => Ok(Box::new(UcbPolicy::new(n_core, n_mem, *p))),
            PolicySpec::Deadline(p) => {
                let model = model.ok_or_else(|| {
                    "deadline policy requires a PairModel (predicted per-pair time/energy)".to_string()
                })?;
                if model.shape() != (n_core, n_mem) {
                    return Err(format!(
                        "PairModel shape {:?} does not match grid {}x{}",
                        model.shape(),
                        n_core,
                        n_mem
                    ));
                }
                Ok(Box::new(DeadlinePolicy::new(model.clone(), *p)))
            }
            PolicySpec::ContextualExp3 {
                inner,
                detector,
                levels,
            } => {
                // Inner seeds derive from the run seed through the same
                // SplitMix64 expansion the rest of the suite uses, so
                // every phase's bandit gets an independent stream that
                // is still a pure function of `seed`.
                let mut root = SplitMix64::new(seed);
                let seeds: Vec<u64> = (0..detector.max_phases).map(|_| root.next_u64()).collect();
                let mut ctx = Contextual::new(n_core, n_mem, *detector, inner.switching, inner.loss, |k| {
                    Exp3Policy::new(n_core, n_mem, *inner, seeds[k])
                })?;
                if let Some((core, mem)) = levels {
                    ctx = ctx.with_level_caps(core, mem)?;
                }
                Ok(Box::new(ctx))
            }
            PolicySpec::ContextualUcb {
                inner,
                detector,
                levels,
            } => {
                let mut ctx = Contextual::new(n_core, n_mem, *detector, inner.switching, inner.loss, |_| {
                    UcbPolicy::new(n_core, n_mem, *inner)
                })?;
                if let Some((core, mem)) = levels {
                    ctx = ctx.with_level_caps(core, mem)?;
                }
                Ok(Box::new(ctx))
            }
        }
    }
}

/// Predicts a workload's per-pair time/energy grid from its first
/// iteration's phase costs on `spec` — the same
/// [`phase_gpu_timing`] model the simulator advances with, so the
/// deadline selector's predictions agree with the simulation by
/// construction. Phase utilizations feed the activity-dependent power
/// model, and host-floor gaps are charged at idle activity.
pub fn pair_model_for(workload: &dyn Workload, spec: &GpuSpec) -> PairModel {
    let phases = workload.phases(0);
    let n_core = spec.core_levels_mhz.len();
    let n_mem = spec.mem_levels_mhz.len();
    let mut time_s = vec![0.0; n_core * n_mem];
    let mut energy_j = vec![0.0; n_core * n_mem];
    for i in 0..n_core {
        for j in 0..n_mem {
            let mut t_total = 0.0;
            let mut e_total = 0.0;
            for cost in &phases {
                let t = phase_gpu_timing(&cost.gpu, spec, spec.core_levels_mhz[i], spec.mem_levels_mhz[j]);
                let p = spec.power_at_levels_w(i, j, t.u_core, t.u_mem);
                t_total += t.wall_s;
                e_total += p * t.wall_s;
            }
            time_s[i * n_mem + j] = t_total;
            energy_j[i * n_mem + j] = e_total;
        }
    }
    PairModel::from_grids(n_core, n_mem, time_s, energy_j).expect("model grids are finite")
}

#[cfg(test)]
mod tests {
    use super::*;
    use greengpu_hw::calib::geforce_8800_gtx;
    use greengpu_workloads::kmeans::KMeans;

    const ALL: fn(usize, usize) -> bool = |_, _| true;

    #[test]
    fn wma_policy_reproduces_the_bare_scaler() {
        // The adapter must be byte-identical to driving the scaler
        // directly — the seed reproduction depends on it.
        let mut policy = WmaPolicy::new(6, 6, WmaParams::default());
        let mut bare = WmaScaler::new(6, 6, WmaParams::default());
        for k in 0..40 {
            let u = (k % 7) as f64 / 6.0;
            assert_eq!(policy.decide(u, 1.0 - u, &ALL), bare.observe(u, 1.0 - u));
        }
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(policy.scaler().weight(i, j).to_bits(), bare.weight(i, j).to_bits());
            }
        }
        assert_eq!(policy.preferred(), bare.argmax());
    }

    #[test]
    fn wma_policy_telemetry_counts_edge_cases() {
        let mut policy = WmaPolicy::new(6, 6, WmaParams::default());
        policy.decide(0.6, 0.6, &ALL);
        policy.decide(f64::NAN, 0.6, &ALL);
        policy.decide(0.6, 0.6, &|_, _| false);
        let t = policy.telemetry();
        assert_eq!(t.intervals, 1);
        assert_eq!(t.invalid_inputs, 1);
        assert_eq!(t.empty_mask_fallbacks, 1);
        policy.reset();
        assert_eq!(policy.telemetry(), &PolicyTelemetry::default());
        assert_eq!(policy.scaler().intervals(), 0);
    }

    #[test]
    fn spec_builds_every_policy_kind() {
        let spec = geforce_8800_gtx();
        let model = pair_model_for(&KMeans::small(1), &spec);
        let specs = [
            PolicySpec::default(),
            PolicySpec::Exp3(Exp3Params::default()),
            PolicySpec::Ucb(UcbParams::default()),
            PolicySpec::Deadline(DeadlineParams {
                time_budget_s: model.peak_time_s() * 1.5,
                ..DeadlineParams::default()
            }),
            PolicySpec::ContextualExp3 {
                inner: Exp3Params::default(),
                detector: PhaseDetectorParams::default(),
                levels: Some((spec.core_levels_mhz.clone(), spec.mem_levels_mhz.clone())),
            },
            PolicySpec::ContextualUcb {
                inner: UcbParams::default(),
                detector: PhaseDetectorParams::disabled(),
                levels: None,
            },
        ];
        for s in &specs {
            assert!(s.try_validate().is_ok(), "{}", s.kind());
            let mut p = s.build(6, 6, 42, Some(&model)).expect("buildable");
            let (i, j) = p.decide(0.5, 0.5, &ALL);
            assert!(i < 6 && j < 6);
        }
    }

    #[test]
    fn deadline_spec_requires_a_model() {
        let spec = PolicySpec::Deadline(DeadlineParams::default());
        let err = spec.build(6, 6, 1, None).err().expect("must refuse");
        assert!(err.contains("PairModel"), "{err}");
    }

    #[test]
    fn spec_validation_propagates_field_names() {
        let bad = PolicySpec::Wma(WmaParams {
            beta: 0.0,
            ..WmaParams::default()
        });
        let err = bad.try_validate().unwrap_err();
        assert!(err.contains("beta"), "{err}");
        assert!(bad.build(6, 6, 1, None).is_err());
        let bad_detector = PolicySpec::ContextualUcb {
            inner: UcbParams::default(),
            detector: PhaseDetectorParams {
                max_phases: 0,
                ..PhaseDetectorParams::default()
            },
            levels: None,
        };
        let err = bad_detector.try_validate().unwrap_err();
        assert!(err.contains("max_phases"), "{err}");
        let bad_levels = PolicySpec::ContextualUcb {
            inner: UcbParams::default(),
            detector: PhaseDetectorParams::default(),
            levels: Some((vec![1.0, 2.0], vec![1.0, 2.0])),
        };
        let err = bad_levels
            .build(6, 6, 1, None)
            .err()
            .expect("must refuse short level tables");
        assert!(err.contains("levels"), "{err}");
    }

    #[test]
    fn pair_model_matches_grid_shape_and_orders_time() {
        let spec = geforce_8800_gtx();
        let model = pair_model_for(&KMeans::small(1), &spec);
        assert_eq!(model.shape(), (6, 6));
        // Peak levels are never slower than the floor levels.
        assert!(model.peak_time_s() <= model.time_s(0, 0));
        for i in 0..6 {
            for j in 0..6 {
                assert!(model.time_s(i, j) > 0.0);
                assert!(model.energy_j(i, j) > 0.0);
            }
        }
    }
}
