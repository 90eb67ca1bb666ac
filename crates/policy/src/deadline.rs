//! Deadline-aware frequency selection: minimize predicted energy subject
//! to a per-interval time budget.
//!
//! In the spirit of *A Data-Driven Frequency Scaling Approach for
//! Deadline-aware Energy Efficient Scheduling on GPUs* (arXiv:2004.08177):
//! instead of learning online from utilization feedback, the selector
//! consults a calibrated [`PairModel`] — predicted execution time and
//! energy of a representative work unit at every `(core, mem)` pair —
//! and picks the cheapest pair whose predicted time fits the budget.
//! When no feasible pair fits, it degrades to the *fastest* feasible
//! pair (best effort) and counts the miss.
//!
//! The model comes from the same roofline-with-overlap machinery in
//! `greengpu-hw` that drives the simulator ([`PairModel::from_work`]),
//! or from externally measured grids ([`PairModel::from_grids`]) as the
//! cluster tier's service profiles provide.

use crate::loss::{LossModel, LossParams};
use crate::telemetry::{DecisionTracker, PolicyTelemetry};
use crate::{hold_masked, snap, FreqPolicy, LearnerState};
use greengpu_hw::gpu::GpuSpec;
use greengpu_hw::perf::{gpu_timing, WorkUnits};
use greengpu_sim::JsonValue;

/// Predicted per-pair execution time and energy of a representative work
/// unit over the `N×M` frequency-pair grid.
#[derive(Debug, Clone)]
pub struct PairModel {
    n_core: usize,
    n_mem: usize,
    /// Row-major predicted time, seconds.
    time_s: Vec<f64>,
    /// Row-major predicted energy, joules.
    energy_j: Vec<f64>,
}

impl PairModel {
    /// Builds a model from externally supplied grids (row-major
    /// `n_core × n_mem`), e.g. averaged cluster service profiles.
    pub fn from_grids(n_core: usize, n_mem: usize, time_s: Vec<f64>, energy_j: Vec<f64>) -> Result<Self, String> {
        if n_core < 2 || n_mem < 2 {
            return Err(format!("grid must be at least 2x2, got {n_core}x{n_mem}"));
        }
        if time_s.len() != n_core * n_mem {
            return Err(format!(
                "time_s must have {} entries, got {}",
                n_core * n_mem,
                time_s.len()
            ));
        }
        if energy_j.len() != n_core * n_mem {
            return Err(format!(
                "energy_j must have {} entries, got {}",
                n_core * n_mem,
                energy_j.len()
            ));
        }
        if let Some(v) = time_s.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(format!("time_s entries must be finite and >= 0, got {v}"));
        }
        if let Some(v) = energy_j.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(format!("energy_j entries must be finite and >= 0, got {v}"));
        }
        Ok(PairModel {
            n_core,
            n_mem,
            time_s,
            energy_j,
        })
    }

    /// Predicts the grid for `work` on `spec` with the same
    /// roofline-with-overlap timing and activity-dependent power model
    /// the simulator runs, so predictions and simulation agree by
    /// construction.
    pub fn from_work(spec: &GpuSpec, work: &WorkUnits) -> Self {
        let n_core = spec.core_levels_mhz.len();
        let n_mem = spec.mem_levels_mhz.len();
        let mut time_s = Vec::with_capacity(n_core * n_mem);
        let mut energy_j = Vec::with_capacity(n_core * n_mem);
        for i in 0..n_core {
            for j in 0..n_mem {
                let t = gpu_timing(
                    work,
                    spec.ops_per_sec(spec.core_levels_mhz[i]),
                    spec.bytes_per_sec(spec.mem_levels_mhz[j]),
                    spec.overlap,
                );
                let p = spec.power_at_levels_w(i, j, t.u_core, t.u_mem);
                time_s.push(t.total_s);
                energy_j.push(p * t.total_s);
            }
        }
        PairModel {
            n_core,
            n_mem,
            time_s,
            energy_j,
        }
    }

    /// Grid shape `(n_core, n_mem)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_core, self.n_mem)
    }

    /// Predicted time of pair `(i, j)`, seconds.
    pub fn time_s(&self, i: usize, j: usize) -> f64 {
        self.time_s[i * self.n_mem + j]
    }

    /// Predicted energy of pair `(i, j)`, joules.
    pub fn energy_j(&self, i: usize, j: usize) -> f64 {
        self.energy_j[i * self.n_mem + j]
    }

    /// Predicted time at the peak pair — the tightest budget any pair
    /// can meet; a useful anchor for choosing `time_budget_s`.
    pub fn peak_time_s(&self) -> f64 {
        self.time_s(self.n_core - 1, self.n_mem - 1)
    }
}

/// Deadline-selector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadlineParams {
    /// Per-interval time budget for the representative work unit,
    /// seconds.
    pub time_budget_s: f64,
    /// Budget multiplier (> 0): the effective budget is
    /// `time_budget_s · slack`. 1.0 takes the budget at face value;
    /// the `policies` experiment sweeps this to trade energy for margin.
    pub slack: f64,
    /// Loss shaping for telemetry/regret accounting (shared scale with
    /// every other policy).
    pub loss: LossParams,
}

impl Default for DeadlineParams {
    fn default() -> Self {
        DeadlineParams {
            time_budget_s: 1.0,
            slack: 1.0,
            loss: LossParams::default(),
        }
    }
}

impl DeadlineParams {
    /// Non-panicking range check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        if !self.time_budget_s.is_finite() || self.time_budget_s <= 0.0 {
            return Err(format!(
                "time_budget_s must be finite and > 0, got {}",
                self.time_budget_s
            ));
        }
        if !self.slack.is_finite() || self.slack <= 0.0 {
            return Err(format!("slack must be finite and > 0, got {}", self.slack));
        }
        self.loss.try_validate()
    }
}

/// The warm state of a [`DeadlinePolicy`]. The selection is a pure
/// function of the (static) model, so the incumbent pair plus the miss
/// counter is the whole of it.
struct DeadlineState {
    current: Option<(usize, usize)>,
    deadline_misses: u64,
}

impl LearnerState for DeadlineState {
    fn snapshot(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("current".to_string(), snap::pair(self.current)),
            ("deadline_misses".to_string(), JsonValue::u64(self.deadline_misses)),
        ])
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Energy-minimizing pair selection under a time budget.
#[derive(Debug, Clone)]
pub struct DeadlinePolicy {
    name: String,
    params: DeadlineParams,
    model: PairModel,
    current: Option<(usize, usize)>,
    deadline_misses: u64,
    tracker: DecisionTracker,
}

impl DeadlinePolicy {
    /// Builds the selector over `model`.
    pub fn new(model: PairModel, params: DeadlineParams) -> Self {
        params.try_validate().expect("valid deadline params");
        let (n_core, n_mem) = model.shape();
        DeadlinePolicy {
            name: "deadline".to_string(),
            params,
            model,
            current: None,
            deadline_misses: 0,
            tracker: DecisionTracker::new(LossModel::new(n_core, n_mem, params.loss)),
        }
    }

    /// Overrides the display name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The effective budget after slack, seconds.
    pub fn effective_budget_s(&self) -> f64 {
        self.params.time_budget_s * self.params.slack
    }

    /// Intervals where no feasible pair met the budget and the selector
    /// degraded to the fastest feasible pair.
    pub fn deadline_misses(&self) -> u64 {
        self.deadline_misses
    }

    /// The pair model predictions are read from.
    pub fn model(&self) -> &PairModel {
        &self.model
    }

    /// The selection itself: cheapest feasible pair within the budget,
    /// else fastest feasible pair, else `None`.
    fn select(&self, feasible: &dyn Fn(usize, usize) -> bool) -> Option<((usize, usize), bool)> {
        let budget = self.effective_budget_s();
        let (n_core, n_mem) = self.model.shape();
        let mut within: Option<(usize, usize)> = None;
        let mut within_e = f64::INFINITY;
        let mut fastest: Option<(usize, usize)> = None;
        let mut fastest_t = f64::INFINITY;
        for i in 0..n_core {
            for j in 0..n_mem {
                if !feasible(i, j) {
                    continue;
                }
                let t = self.model.time_s(i, j);
                let e = self.model.energy_j(i, j);
                if t <= budget && e < within_e {
                    within_e = e;
                    within = Some((i, j));
                }
                if fastest.is_none() || t < fastest_t {
                    fastest_t = t;
                    fastest = Some((i, j));
                }
            }
        }
        match (within, fastest) {
            (Some(pair), _) => Some((pair, true)),
            (None, Some(pair)) => Some((pair, false)),
            (None, None) => None,
        }
    }
}

impl FreqPolicy for DeadlinePolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn shape(&self) -> (usize, usize) {
        self.model.shape()
    }

    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize) {
        let (n_core, n_mem) = self.model.shape();
        if !(u_core.is_finite() && u_mem.is_finite()) {
            self.tracker.note_invalid();
            return match hold_masked(self.current.unwrap_or((0, 0)), n_core, n_mem, feasible) {
                Some(pair) => pair,
                None => {
                    self.tracker.note_empty_mask();
                    (0, 0)
                }
            };
        }
        let Some((chosen, met)) = self.select(feasible) else {
            self.tracker.note_empty_mask();
            return (0, 0);
        };
        if !met {
            self.deadline_misses += 1;
        }
        // Model-based selection pays no switching penalty (it converges
        // to a fixed pair under a fixed mask); losses are still scored
        // on the shared Table-I scale for cross-policy regret tables.
        self.tracker.record(u_core, u_mem, chosen, 0.0);
        self.current = Some(chosen);
        chosen
    }

    fn preferred(&self) -> (usize, usize) {
        match self.current {
            Some(pair) => pair,
            None => self.select(&|_, _| true).map(|(p, _)| p).unwrap_or((0, 0)),
        }
    }

    fn telemetry(&self) -> &PolicyTelemetry {
        self.tracker.telemetry()
    }

    fn reset(&mut self) {
        self.current = None;
        self.deadline_misses = 0;
        self.tracker.reset();
    }

    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        let (n_core, n_mem) = self.model.shape();
        let current = snap::parse_pair(snap::field(state, "current")?, "current", n_core, n_mem)?;
        let misses = snap::parse_u64(state, "deadline_misses")?;
        self.current = current;
        self.deadline_misses = misses;
        Ok(())
    }

    fn learner(&self) -> Box<dyn LearnerState> {
        Box::new(DeadlineState {
            current: self.current,
            deadline_misses: self.deadline_misses,
        })
    }

    fn load_learner(&mut self, state: &dyn LearnerState) -> Result<(), String> {
        let s = state.downcast::<DeadlineState>()?;
        self.current = s.current;
        self.deadline_misses = s.deadline_misses;
        Ok(())
    }

    fn decision_fingerprint(&self) -> Option<u64> {
        // `select` is a pure function of the (static) model and the mask,
        // so the incumbent pair plus the miss counter is the entire
        // decision-relevant state — the same field set the snapshot
        // carries. The tracker is telemetry and deliberately excluded.
        let mut h = greengpu_sim::Fnv64::new();
        match self.current {
            Some((i, j)) => {
                h.push_bool(true);
                h.push_usize(i);
                h.push_usize(j);
            }
            None => h.push_bool(false),
        }
        h.push_u64(self.deadline_misses);
        Some(h.finish())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greengpu_hw::calib::geforce_8800_gtx;

    const ALL: fn(usize, usize) -> bool = |_, _| true;

    fn model() -> PairModel {
        // A moderately compute-leaning kernel on the calibrated card.
        PairModel::from_work(&geforce_8800_gtx(), &WorkUnits::new(4e11, 8e9))
    }

    #[test]
    fn from_work_time_shrinks_with_higher_levels() {
        let m = model();
        let (n_core, n_mem) = m.shape();
        assert!(m.time_s(0, 0) > m.peak_time_s());
        for i in 1..n_core {
            assert!(m.time_s(i, n_mem - 1) <= m.time_s(i - 1, n_mem - 1) + 1e-12);
        }
    }

    #[test]
    fn loose_budget_selects_cheapest_pair() {
        let m = model();
        let (n_core, n_mem) = m.shape();
        let mut cheapest = (0, 0);
        let mut e = f64::INFINITY;
        for i in 0..n_core {
            for j in 0..n_mem {
                if m.energy_j(i, j) < e {
                    e = m.energy_j(i, j);
                    cheapest = (i, j);
                }
            }
        }
        let mut p = DeadlinePolicy::new(
            m,
            DeadlineParams {
                time_budget_s: 1e9,
                ..DeadlineParams::default()
            },
        );
        assert_eq!(p.decide(0.5, 0.5, &ALL), cheapest);
        assert_eq!(p.deadline_misses(), 0);
    }

    #[test]
    fn tight_budget_forces_faster_pairs() {
        let m = model();
        let peak_t = m.peak_time_s();
        let loose = DeadlinePolicy::new(
            m.clone(),
            DeadlineParams {
                time_budget_s: peak_t * 3.0,
                ..DeadlineParams::default()
            },
        );
        let tight = DeadlinePolicy::new(
            m.clone(),
            DeadlineParams {
                time_budget_s: peak_t * 1.05,
                ..DeadlineParams::default()
            },
        );
        let mut loose = loose;
        let mut tight = tight;
        let pl = loose.decide(0.6, 0.4, &ALL);
        let pt = tight.decide(0.6, 0.4, &ALL);
        assert!(m.time_s(pt.0, pt.1) <= peak_t * 1.05);
        assert!(
            m.energy_j(pl.0, pl.1) <= m.energy_j(pt.0, pt.1),
            "loose budget must not cost more energy"
        );
    }

    #[test]
    fn impossible_budget_degrades_to_fastest_and_counts_miss() {
        let m = model();
        let mut p = DeadlinePolicy::new(
            m.clone(),
            DeadlineParams {
                time_budget_s: m.peak_time_s() * 0.5,
                ..DeadlineParams::default()
            },
        );
        let (n_core, n_mem) = m.shape();
        assert_eq!(p.decide(0.5, 0.5, &ALL), (n_core - 1, n_mem - 1));
        assert_eq!(p.deadline_misses(), 1);
    }

    #[test]
    fn slack_widens_the_budget() {
        let m = model();
        let base = DeadlineParams {
            time_budget_s: m.peak_time_s() * 0.9,
            ..DeadlineParams::default()
        };
        let mut tight = DeadlinePolicy::new(m.clone(), base);
        let mut slackened = DeadlinePolicy::new(m, DeadlineParams { slack: 2.0, ..base });
        tight.decide(0.5, 0.5, &ALL);
        slackened.decide(0.5, 0.5, &ALL);
        assert_eq!(tight.deadline_misses(), 1);
        assert_eq!(slackened.deadline_misses(), 0);
    }

    #[test]
    fn decision_fingerprint_is_a_fixed_point_of_identical_decides() {
        // The contract the event-driven engine leans on: the fingerprint
        // is stable exactly while repeated decides reproduce the same
        // state, and moves the moment decision-relevant state (incumbent
        // pair, miss counter) moves.
        let m = model();
        // A comfortably feasible budget: decides settle instead of
        // counting a miss every interval.
        let mut p = DeadlinePolicy::new(
            m.clone(),
            DeadlineParams {
                time_budget_s: m.peak_time_s() * 3.0,
                ..DeadlineParams::default()
            },
        );
        let fresh = p
            .decision_fingerprint()
            .expect("deadline policy certifies a fingerprint");
        assert_eq!(p.decision_fingerprint(), Some(fresh), "read-only probe");
        let pair = p.decide(0.5, 0.5, &ALL);
        let settled = p.decision_fingerprint().expect("still certified after a decide");
        assert_ne!(settled, fresh, "adopting an incumbent pair must move the fingerprint");
        assert_eq!(p.decide(0.5, 0.5, &ALL), pair);
        assert_eq!(
            p.decision_fingerprint(),
            Some(settled),
            "an identical decide is an identity on the fingerprint"
        );
        // A miss is decision-relevant state even when the chosen pair is
        // unchanged: force one with an impossible budget.
        let mut q = DeadlinePolicy::new(
            m.clone(),
            DeadlineParams {
                time_budget_s: m.peak_time_s() * 0.5,
                ..DeadlineParams::default()
            },
        );
        q.decide(0.5, 0.5, &ALL);
        let before = q.decision_fingerprint();
        q.decide(0.5, 0.5, &ALL);
        assert_ne!(
            q.decision_fingerprint(),
            before,
            "each counted miss must move the fingerprint"
        );
    }

    #[test]
    fn respects_mask_and_counts_empty() {
        let m = model();
        let mut p = DeadlinePolicy::new(m, DeadlineParams::default());
        let (i, j) = p.decide(0.5, 0.5, &|i, j| i <= 1 && j <= 1);
        assert!(i <= 1 && j <= 1);
        assert_eq!(p.decide(0.5, 0.5, &|_, _| false), (0, 0));
        assert_eq!(p.telemetry().empty_mask_fallbacks, 1);
    }

    #[test]
    fn nan_holds_current_without_selection() {
        let m = model();
        let mut p = DeadlinePolicy::new(m, DeadlineParams::default());
        let first = p.decide(0.5, 0.5, &ALL);
        let held = p.decide(f64::NAN, 0.5, &ALL);
        assert_eq!(first, held);
        assert_eq!(p.telemetry().invalid_inputs, 1);
    }

    #[test]
    fn from_grids_validates_shape_and_values() {
        let err = PairModel::from_grids(6, 6, vec![1.0; 35], vec![1.0; 36]).unwrap_err();
        assert!(err.contains("time_s"), "{err}");
        let err = PairModel::from_grids(6, 6, vec![1.0; 36], vec![f64::NAN; 36]).unwrap_err();
        assert!(err.contains("energy_j"), "{err}");
        let err = PairModel::from_grids(1, 6, vec![1.0; 6], vec![1.0; 6]).unwrap_err();
        assert!(err.contains("2x2"), "{err}");
        assert!(PairModel::from_grids(2, 2, vec![1.0; 4], vec![1.0; 4]).is_ok());
    }

    #[test]
    fn bad_params_name_the_offending_field() {
        let err = DeadlineParams {
            time_budget_s: 0.0,
            ..DeadlineParams::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(err.contains("time_budget_s"), "{err}");
        let err = DeadlineParams {
            slack: -1.0,
            ..DeadlineParams::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(err.contains("slack"), "{err}");
    }
}
