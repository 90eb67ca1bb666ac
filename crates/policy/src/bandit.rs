//! Switching-aware bandit policies over the frequency-pair grid.
//!
//! Frequency selection is a textbook adversarial bandit: `K = N×M` arms
//! (the pairs), one pull per control interval, loss = the Table-I loss
//! under the observed utilizations. The twist — following *Online GPU
//! Energy Optimization with Switching-Aware Bandits* (arXiv:2410.11855)
//! — is that changing the enforced pair is not free: a reclock stalls
//! the SMs for milliseconds and, repeated every interval, erases the
//! energy the throttle was buying. Both learners therefore charge
//! themselves an explicit switching cost and apply a *hysteresis* rule
//! before leaving the incumbent pair:
//!
//! * [`Exp3Policy`] — EXP3 (Auer et al. 2002): exponential weights with
//!   `γ`-uniform exploration and importance-weighted updates of the
//!   pulled arm only. The charged loss is `base + switch_cost ·
//!   d(pair, prev)/d_max` (normalized L1 level distance), so the weight
//!   table itself learns that thrashing is expensive; hysteresis keeps a
//!   sampled challenger from unseating the incumbent unless its weight
//!   is decisively larger.
//! * [`UcbPolicy`] — UCB1-style lower-confidence selection on mean
//!   losses (stochastic view of the same problem): the selection index
//!   of a challenger is inflated by the switching cost of reaching it,
//!   and the incumbent is kept unless the challenger's index undercuts
//!   it by the hysteresis margin. Unplayed feasible arms have `−∞`
//!   index, so every arm is explored once (identically in the
//!   no-penalty ablation — the penalty differentiates steady state, not
//!   the forced exploration sweep).
//!
//! Setting `switch_cost = 0` and `hysteresis = 0` yields the no-penalty
//! ablations (`exp3-nosw`, `ucb-nosw`) the `policies` experiment
//! compares against.

use crate::loss::{LossModel, LossParams};
use crate::telemetry::{DecisionTracker, PolicyTelemetry};
use crate::{hold_masked, snap, FreqPolicy, LearnerState};
use greengpu_sim::{JsonValue, Pcg32};

/// Switching-cost shaping shared by both bandits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingParams {
    /// Loss units charged for a full-grid-diameter reclock; a one-level
    /// move costs `switch_cost / d_max`. 0 disables the penalty.
    pub switch_cost: f64,
    /// Hysteresis margin the challenger must clear before the incumbent
    /// is abandoned (relative weight factor for EXP3, absolute index
    /// margin for UCB). 0 disables hysteresis.
    pub hysteresis: f64,
}

impl Default for SwitchingParams {
    fn default() -> Self {
        SwitchingParams {
            switch_cost: 0.30,
            hysteresis: 0.15,
        }
    }
}

impl SwitchingParams {
    /// The no-penalty ablation.
    pub fn none() -> Self {
        SwitchingParams {
            switch_cost: 0.0,
            hysteresis: 0.0,
        }
    }

    /// Non-panicking range check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        if !self.switch_cost.is_finite() || self.switch_cost < 0.0 {
            return Err(format!("switch_cost must be finite and >= 0, got {}", self.switch_cost));
        }
        if !self.hysteresis.is_finite() || self.hysteresis < 0.0 {
            return Err(format!("hysteresis must be finite and >= 0, got {}", self.hysteresis));
        }
        Ok(())
    }
}

/// Normalized L1 level distance between two pairs in `[0, 1]`.
pub(crate) fn dist_norm(a: (usize, usize), b: (usize, usize), n_core: usize, n_mem: usize) -> f64 {
    let d = a.0.abs_diff(b.0) + a.1.abs_diff(b.1);
    let d_max = (n_core - 1) + (n_mem - 1);
    d as f64 / d_max as f64
}

/// EXP3 tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exp3Params {
    /// Uniform-exploration mixture `γ ∈ (0, 1]`.
    pub gamma: f64,
    /// Learning rate `η > 0` of the exponential update.
    pub eta: f64,
    /// Switching-cost shaping.
    pub switching: SwitchingParams,
    /// Loss shaping (Table-I constants).
    pub loss: LossParams,
}

impl Default for Exp3Params {
    fn default() -> Self {
        // η follows the classic √(ln K / (T·K)) scaling for K = 36 arms
        // over a few hundred intervals; importance-weighted losses reach
        // `l/p ≈ K/γ`, so a large η would crater the pulled arm's weight
        // in one update and defeat the hysteresis.
        Exp3Params {
            gamma: 0.10,
            eta: 0.02,
            switching: SwitchingParams::default(),
            loss: LossParams::default(),
        }
    }
}

impl Exp3Params {
    /// Non-panicking range check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        if !(self.gamma > 0.0 && self.gamma <= 1.0) {
            return Err(format!("gamma must be in (0,1], got {}", self.gamma));
        }
        if !self.eta.is_finite() || self.eta <= 0.0 {
            return Err(format!("eta must be finite and > 0, got {}", self.eta));
        }
        self.switching.try_validate()?;
        self.loss.try_validate()
    }
}

/// The EXP3 switching-aware bandit.
#[derive(Debug, Clone)]
pub struct Exp3Policy {
    name: String,
    params: Exp3Params,
    model: LossModel,
    n_core: usize,
    n_mem: usize,
    /// Row-major exponential weights, renormalized by the max.
    weights: Vec<f64>,
    rng: Pcg32,
    seed: u64,
    current: Option<(usize, usize)>,
    tracker: DecisionTracker,
}

impl Exp3Policy {
    /// Builds the policy for an `n_core × n_mem` grid; all randomness
    /// derives from `seed`.
    pub fn new(n_core: usize, n_mem: usize, params: Exp3Params, seed: u64) -> Self {
        params.try_validate().expect("valid EXP3 params");
        let model = LossModel::new(n_core, n_mem, params.loss);
        let name = if params.switching.switch_cost > 0.0 || params.switching.hysteresis > 0.0 {
            "exp3"
        } else {
            "exp3-nosw"
        };
        Exp3Policy {
            name: name.to_string(),
            params,
            tracker: DecisionTracker::new(model.clone()),
            model,
            n_core,
            n_mem,
            weights: vec![1.0; n_core * n_mem],
            rng: Pcg32::new(seed, 0xE3),
            seed,
            current: None,
        }
    }

    /// Overrides the display name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Weight of pair `(i, j)` (inspection/tests).
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.n_mem + j]
    }
}

impl FreqPolicy for Exp3Policy {
    fn name(&self) -> &str {
        &self.name
    }

    fn shape(&self) -> (usize, usize) {
        (self.n_core, self.n_mem)
    }

    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize) {
        if !(u_core.is_finite() && u_mem.is_finite()) {
            // Reject garbage without consuming randomness or weights;
            // hold the incumbent inside the mask.
            self.tracker.note_invalid();
            return match hold_masked(self.current.unwrap_or((0, 0)), self.n_core, self.n_mem, feasible) {
                Some(pair) => pair,
                None => {
                    self.tracker.note_empty_mask();
                    (0, 0)
                }
            };
        }
        let feasible_arms: Vec<(usize, usize)> = (0..self.n_core)
            .flat_map(|i| (0..self.n_mem).map(move |j| (i, j)))
            .filter(|&(i, j)| feasible(i, j))
            .collect();
        if feasible_arms.is_empty() {
            self.tracker.note_empty_mask();
            return (0, 0);
        }
        // γ-mixed sampling distribution over the feasible arms only.
        let total_w: f64 = feasible_arms.iter().map(|&(i, j)| self.weight(i, j)).sum();
        let k_f = feasible_arms.len() as f64;
        let prob = |w: f64| (1.0 - self.params.gamma) * w / total_w + self.params.gamma / k_f;
        let draw = self.rng.next_f64();
        let mut cum = 0.0;
        let mut chosen = feasible_arms.last().copied().unwrap_or((0, 0));
        let mut p_chosen = prob(self.weight(chosen.0, chosen.1));
        for &(i, j) in &feasible_arms {
            let p = prob(self.weight(i, j));
            cum += p;
            if draw < cum {
                chosen = (i, j);
                p_chosen = p;
                break;
            }
        }
        // Hysteresis: a sampled challenger only unseats a feasible
        // incumbent when its weight is decisively larger.
        if let Some(cur) = self.current {
            if chosen != cur
                && feasible(cur.0, cur.1)
                && self.weight(chosen.0, chosen.1)
                    <= self.weight(cur.0, cur.1) * (1.0 + self.params.switching.hysteresis)
            {
                chosen = cur;
                p_chosen = prob(self.weight(cur.0, cur.1));
            }
        }
        // Charge the pulled arm: Table-I base loss plus the distance-
        // scaled switching penalty, importance-weighted by its pull
        // probability.
        let penalty = match self.current {
            Some(cur) if cur != chosen => {
                self.params.switching.switch_cost * dist_norm(chosen, cur, self.n_core, self.n_mem)
            }
            _ => 0.0,
        };
        let base = self.model.loss(chosen.0, chosen.1, u_core, u_mem);
        let charged = (base + penalty).clamp(0.0, 1.0);
        let l_hat = charged / p_chosen;
        let w = &mut self.weights[chosen.0 * self.n_mem + chosen.1];
        *w *= (-self.params.eta * l_hat).exp();
        // Renormalize by the max so weights never underflow; sampling
        // probabilities depend only on ratios.
        let max_w = self.weights.iter().copied().fold(0.0f64, f64::max);
        if max_w > 0.0 && max_w.is_finite() {
            for w in &mut self.weights {
                *w /= max_w;
            }
        }
        self.tracker.record(u_core, u_mem, chosen, penalty);
        self.current = Some(chosen);
        chosen
    }

    fn preferred(&self) -> (usize, usize) {
        self.current.unwrap_or((0, 0))
    }

    fn telemetry(&self) -> &PolicyTelemetry {
        self.tracker.telemetry()
    }

    fn reset(&mut self) {
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.rng = Pcg32::new(self.seed, 0xE3);
        self.current = None;
        self.tracker.reset();
    }

    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        let weights = snap::parse_f64_vec(snap::field(state, "weights")?, "weights", self.weights.len())?;
        if weights.iter().any(|&w| w < 0.0) {
            return Err("weights must be non-negative".to_string());
        }
        let rng_state = snap::parse_u64(state, "rng_state")?;
        let rng_inc = snap::parse_u64(state, "rng_inc")?;
        let current = snap::parse_pair(snap::field(state, "current")?, "current", self.n_core, self.n_mem)?;
        self.weights = weights;
        self.rng = Pcg32::from_state(rng_state, rng_inc);
        self.current = current;
        Ok(())
    }

    fn learner(&self) -> Box<dyn LearnerState> {
        Box::new(Exp3State {
            weights: self.weights.clone(),
            rng: self.rng.clone(),
            current: self.current,
        })
    }

    fn load_learner(&mut self, state: &dyn LearnerState) -> Result<(), String> {
        let s = state.downcast::<Exp3State>()?;
        if s.weights.len() != self.weights.len() {
            return Err(format!(
                "learner state has {} weights, policy has {}",
                s.weights.len(),
                self.weights.len()
            ));
        }
        self.weights.clone_from(&s.weights);
        self.rng = s.rng.clone();
        self.current = s.current;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The warm state of an [`Exp3Policy`]: the weight table, the RNG
/// stream position and the incumbent pair.
struct Exp3State {
    weights: Vec<f64>,
    rng: Pcg32,
    current: Option<(usize, usize)>,
}

impl LearnerState for Exp3State {
    fn snapshot(&self) -> JsonValue {
        let (rng_state, rng_inc) = self.rng.state();
        JsonValue::Obj(vec![
            ("weights".to_string(), JsonValue::f64_array(&self.weights)),
            ("rng_state".to_string(), JsonValue::u64(rng_state)),
            ("rng_inc".to_string(), JsonValue::u64(rng_inc)),
            ("current".to_string(), snap::pair(self.current)),
        ])
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// UCB tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UcbParams {
    /// Exploration coefficient `c ≥ 0` of the confidence radius.
    pub c: f64,
    /// Switching-cost shaping.
    pub switching: SwitchingParams,
    /// Loss shaping (Table-I constants).
    pub loss: LossParams,
}

impl Default for UcbParams {
    fn default() -> Self {
        // Table-I losses live in [0, ~0.3] with per-arm gaps of a few
        // hundredths, so the confidence radius must be of that order —
        // the textbook c ≈ 1 (losses in [0,1]) would round-robin all 36
        // arms for thousands of intervals.
        UcbParams {
            c: 0.08,
            switching: SwitchingParams::default(),
            loss: LossParams::default(),
        }
    }
}

impl UcbParams {
    /// Non-panicking range check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        if !self.c.is_finite() || self.c < 0.0 {
            return Err(format!("c must be finite and >= 0, got {}", self.c));
        }
        self.switching.try_validate()?;
        self.loss.try_validate()
    }
}

/// The UCB1-style switching-aware bandit (lower-confidence selection on
/// losses).
#[derive(Debug, Clone)]
pub struct UcbPolicy {
    name: String,
    params: UcbParams,
    model: LossModel,
    n_core: usize,
    n_mem: usize,
    counts: Vec<u64>,
    mean_loss: Vec<f64>,
    t: u64,
    current: Option<(usize, usize)>,
    tracker: DecisionTracker,
}

impl UcbPolicy {
    /// Builds the policy for an `n_core × n_mem` grid. UCB is fully
    /// deterministic — no seed needed.
    pub fn new(n_core: usize, n_mem: usize, params: UcbParams) -> Self {
        params.try_validate().expect("valid UCB params");
        let model = LossModel::new(n_core, n_mem, params.loss);
        let name = if params.switching.switch_cost > 0.0 || params.switching.hysteresis > 0.0 {
            "ucb"
        } else {
            "ucb-nosw"
        };
        UcbPolicy {
            name: name.to_string(),
            params,
            tracker: DecisionTracker::new(model.clone()),
            model,
            n_core,
            n_mem,
            counts: vec![0; n_core * n_mem],
            mean_loss: vec![0.0; n_core * n_mem],
            t: 0,
            current: None,
        }
    }

    /// Overrides the display name (builder style).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Times pair `(i, j)` has been pulled (inspection/tests).
    pub fn count(&self, i: usize, j: usize) -> u64 {
        self.counts[i * self.n_mem + j]
    }

    /// Lower-confidence index of arm `(i, j)`: `−∞` when unplayed
    /// (forced exploration), otherwise `mean − c·√(ln t / n)`.
    fn index(&self, i: usize, j: usize) -> f64 {
        let k = i * self.n_mem + j;
        if self.counts[k] == 0 {
            return f64::NEG_INFINITY;
        }
        let bonus = self.params.c * ((self.t as f64).max(1.0).ln() / self.counts[k] as f64).sqrt();
        self.mean_loss[k] - bonus
    }
}

impl FreqPolicy for UcbPolicy {
    fn name(&self) -> &str {
        &self.name
    }

    fn shape(&self) -> (usize, usize) {
        (self.n_core, self.n_mem)
    }

    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize) {
        if !(u_core.is_finite() && u_mem.is_finite()) {
            self.tracker.note_invalid();
            return match hold_masked(self.current.unwrap_or((0, 0)), self.n_core, self.n_mem, feasible) {
                Some(pair) => pair,
                None => {
                    self.tracker.note_empty_mask();
                    (0, 0)
                }
            };
        }
        // Challenger: minimize index + switching cost of reaching it
        // from the incumbent. Ties break toward lower levels via strict
        // `<` over the row-major scan.
        let mut best: Option<(usize, usize)> = None;
        let mut best_score = f64::INFINITY;
        for i in 0..self.n_core {
            for j in 0..self.n_mem {
                if !feasible(i, j) {
                    continue;
                }
                let mut score = self.index(i, j);
                if let Some(cur) = self.current {
                    if (i, j) != cur {
                        score += self.params.switching.switch_cost * dist_norm((i, j), cur, self.n_core, self.n_mem);
                    }
                }
                if best.is_none() || score < best_score {
                    best_score = score;
                    best = Some((i, j));
                }
            }
        }
        let Some(mut chosen) = best else {
            self.tracker.note_empty_mask();
            return (0, 0);
        };
        // Hysteresis: keep a feasible incumbent unless the challenger
        // undercuts its (penalty-free) index by the margin.
        if let Some(cur) = self.current {
            if chosen != cur
                && feasible(cur.0, cur.1)
                && best_score + self.params.switching.hysteresis >= self.index(cur.0, cur.1)
            {
                chosen = cur;
            }
        }
        let penalty = match self.current {
            Some(cur) if cur != chosen => {
                self.params.switching.switch_cost * dist_norm(chosen, cur, self.n_core, self.n_mem)
            }
            _ => 0.0,
        };
        // Learn the pulled arm's base loss (the switching cost shapes
        // selection, not the reward statistics — a pair is not worse
        // because we arrived via a reclock).
        let base = self.model.loss(chosen.0, chosen.1, u_core, u_mem);
        let k = chosen.0 * self.n_mem + chosen.1;
        self.counts[k] += 1;
        self.t += 1;
        self.mean_loss[k] += (base - self.mean_loss[k]) / self.counts[k] as f64;
        self.tracker.record(u_core, u_mem, chosen, penalty);
        self.current = Some(chosen);
        chosen
    }

    fn preferred(&self) -> (usize, usize) {
        self.current.unwrap_or((0, 0))
    }

    fn telemetry(&self) -> &PolicyTelemetry {
        self.tracker.telemetry()
    }

    fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.mean_loss.iter_mut().for_each(|m| *m = 0.0);
        self.t = 0;
        self.current = None;
        self.tracker.reset();
    }

    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        let counts = snap::parse_u64_vec(snap::field(state, "counts")?, "counts", self.counts.len())?;
        let mean_loss = snap::parse_f64_vec(snap::field(state, "mean_loss")?, "mean_loss", self.mean_loss.len())?;
        let t = snap::parse_u64(state, "t")?;
        if counts.iter().sum::<u64>() != t {
            return Err(format!("t = {t} does not equal the sum of counts"));
        }
        let current = snap::parse_pair(snap::field(state, "current")?, "current", self.n_core, self.n_mem)?;
        self.counts = counts;
        self.mean_loss = mean_loss;
        self.t = t;
        self.current = current;
        Ok(())
    }

    fn learner(&self) -> Box<dyn LearnerState> {
        Box::new(UcbState {
            counts: self.counts.clone(),
            mean_loss: self.mean_loss.clone(),
            t: self.t,
            current: self.current,
        })
    }

    fn load_learner(&mut self, state: &dyn LearnerState) -> Result<(), String> {
        let s = state.downcast::<UcbState>()?;
        if s.counts.len() != self.counts.len() {
            return Err(format!(
                "learner state has {} arms, policy has {}",
                s.counts.len(),
                self.counts.len()
            ));
        }
        self.counts.clone_from(&s.counts);
        self.mean_loss.clone_from(&s.mean_loss);
        self.t = s.t;
        self.current = s.current;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The warm state of a [`UcbPolicy`]: per-arm pull counts and mean
/// losses, the step counter and the incumbent pair.
struct UcbState {
    counts: Vec<u64>,
    mean_loss: Vec<f64>,
    t: u64,
    current: Option<(usize, usize)>,
}

impl LearnerState for UcbState {
    fn snapshot(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("counts".to_string(), JsonValue::u64_array(&self.counts)),
            ("mean_loss".to_string(), JsonValue::f64_array(&self.mean_loss)),
            ("t".to_string(), JsonValue::u64(self.t)),
            ("current".to_string(), snap::pair(self.current)),
        ])
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp3(seed: u64) -> Exp3Policy {
        Exp3Policy::new(6, 6, Exp3Params::default(), seed)
    }

    fn ucb() -> UcbPolicy {
        UcbPolicy::new(6, 6, UcbParams::default())
    }

    #[test]
    fn as_any_downcasts_to_the_concrete_policy() {
        let policy: Box<dyn FreqPolicy> = Box::new(ucb());
        assert!(policy.as_any().downcast_ref::<UcbPolicy>().is_some());
        assert!(policy.as_any().downcast_ref::<Exp3Policy>().is_none());
    }

    const ALL: fn(usize, usize) -> bool = |_, _| true;

    #[test]
    fn bandits_never_certify_a_decision_fingerprint() {
        // Both bandits advance their state (RNG position, visit counts)
        // on *every* decision, so no idle fixed point exists; they must
        // keep the trait's `None` default and never be parked by the
        // event-driven fleet engine.
        let mut e = exp3(1);
        let mut u = ucb();
        assert_eq!(e.decision_fingerprint(), None);
        assert_eq!(u.decision_fingerprint(), None);
        e.decide(0.5, 0.5, &ALL);
        u.decide(0.5, 0.5, &ALL);
        assert_eq!(e.decision_fingerprint(), None);
        assert_eq!(u.decision_fingerprint(), None);
    }

    #[test]
    fn exp3_is_deterministic_under_a_seed() {
        let mut a = exp3(7);
        let mut b = exp3(7);
        for k in 0..200 {
            let u = (k % 10) as f64 / 10.0;
            assert_eq!(a.decide(u, 1.0 - u, &ALL), b.decide(u, 1.0 - u, &ALL));
        }
    }

    #[test]
    fn exp3_concentrates_on_the_zero_loss_pair() {
        // Stationary u = 0.6 makes (3, 3) the zero-loss arm; after
        // enough pulls it must dominate the decisions.
        let mut p = exp3(3);
        let mut hits = 0;
        for k in 0..600 {
            let pair = p.decide(0.6, 0.6, &ALL);
            if k >= 300 && pair == (3, 3) {
                hits += 1;
            }
        }
        assert!(hits > 200, "late-round (3,3) pulls: {hits}/300");
    }

    #[test]
    fn exp3_respects_the_mask_and_counts_empty() {
        let mut p = exp3(5);
        for _ in 0..50 {
            let (i, j) = p.decide(0.9, 0.9, &|i, j| i + j <= 4);
            assert!(i + j <= 4, "escaped mask: ({i},{j})");
        }
        assert_eq!(p.decide(0.9, 0.9, &|_, _| false), (0, 0));
        assert_eq!(p.telemetry().empty_mask_fallbacks, 1);
    }

    #[test]
    fn exp3_rejects_nan_without_learning() {
        let mut p = exp3(9);
        for _ in 0..20 {
            p.decide(0.5, 0.5, &ALL);
        }
        let snapshot = |p: &Exp3Policy| -> Vec<f64> {
            (0..6)
                .flat_map(|i| (0..6).map(|j| p.weight(i, j)).collect::<Vec<_>>())
                .collect()
        };
        let weights = snapshot(&p);
        let held = p.decide(f64::NAN, 0.5, &ALL);
        assert_eq!(held, p.preferred());
        let after = snapshot(&p);
        assert_eq!(weights, after, "NaN observation touched the weights");
        assert_eq!(p.telemetry().invalid_inputs, 1);
    }

    #[test]
    fn switching_penalty_reduces_exp3_switches() {
        let run = |params: Exp3Params| -> u64 {
            let mut p = Exp3Policy::new(6, 6, params, 11);
            let mut rng = greengpu_sim::Pcg32::seeded(42);
            for _ in 0..400 {
                let u = 0.55 + rng.uniform(-0.05, 0.05);
                p.decide(u, u, &ALL);
            }
            p.telemetry().switches
        };
        let with = run(Exp3Params::default());
        let without = run(Exp3Params {
            switching: SwitchingParams::none(),
            ..Exp3Params::default()
        });
        assert!(with < without, "switching-aware {with} vs ablation {without}");
    }

    #[test]
    fn ucb_explores_every_arm_then_settles() {
        // The no-penalty ablation shows the raw UCB machinery: one
        // forced pull per arm, then the zero-loss arm dominates. (The
        // switching-aware variant deliberately stays near its incumbent
        // instead — that stickiness is pinned by the switch-count test.)
        let mut p = UcbPolicy::new(
            6,
            6,
            UcbParams {
                switching: SwitchingParams::none(),
                ..UcbParams::default()
            },
        );
        for _ in 0..36 {
            p.decide(0.6, 0.6, &ALL);
        }
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(p.count(i, j), 1, "arm ({i},{j}) not explored once");
            }
        }
        // Post-exploration pulls concentrate on the low-loss region: the
        // confidence radius still cycles among the nearly-flat memory
        // levels (their loss gaps are ~0.003), but realized loss must be
        // far below the ~0.06 average of uniform play, and the matching
        // core row (umean = 0.6) must dominate the pull counts.
        let before = p.telemetry().base_loss;
        for _ in 0..200 {
            p.decide(0.6, 0.6, &ALL);
        }
        let mean_loss = (p.telemetry().base_loss - before) / 200.0;
        assert!(mean_loss < 0.03, "post-exploration mean loss {mean_loss}");
        let row_pulls = |i: usize| -> u64 { (0..6).map(|j| p.count(i, j)).sum() };
        for i in [0, 1, 2, 4, 5] {
            assert!(
                row_pulls(3) > row_pulls(i),
                "core row 3 ({}) out-pulled by row {i} ({})",
                row_pulls(3),
                row_pulls(i)
            );
        }
    }

    #[test]
    fn ucb_is_deterministic() {
        let mut a = ucb();
        let mut b = ucb();
        for k in 0..300 {
            let u = ((k * 7) % 11) as f64 / 11.0;
            assert_eq!(a.decide(u, 1.0 - u, &ALL), b.decide(u, 1.0 - u, &ALL));
        }
    }

    #[test]
    fn ucb_respects_the_mask_even_while_exploring() {
        let mut p = ucb();
        for _ in 0..80 {
            let (i, j) = p.decide(0.8, 0.2, &|i, j| i >= 2 && j <= 3);
            assert!(i >= 2 && j <= 3, "escaped mask: ({i},{j})");
        }
        assert_eq!(p.decide(0.8, 0.2, &|_, _| false), (0, 0));
        assert!(p.telemetry().empty_mask_fallbacks > 0);
    }

    #[test]
    fn switching_penalty_reduces_ucb_switches() {
        let run = |params: UcbParams| -> u64 {
            let mut p = UcbPolicy::new(6, 6, params);
            let mut rng = greengpu_sim::Pcg32::seeded(17);
            for _ in 0..400 {
                let u = 0.55 + rng.uniform(-0.08, 0.08);
                p.decide(u, u, &ALL);
            }
            p.telemetry().switches
        };
        let with = run(UcbParams::default());
        let without = run(UcbParams {
            switching: SwitchingParams::none(),
            ..UcbParams::default()
        });
        assert!(with < without, "switching-aware {with} vs ablation {without}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut a = exp3(23);
        let mut b = exp3(23);
        for _ in 0..50 {
            a.decide(0.4, 0.7, &ALL);
        }
        a.reset();
        for k in 0..50 {
            let u = k as f64 / 50.0;
            assert_eq!(a.decide(u, u, &ALL), b.decide(u, u, &ALL));
        }
        let mut u = ucb();
        u.decide(0.5, 0.5, &ALL);
        u.reset();
        assert_eq!(u.telemetry(), &PolicyTelemetry::default());
        assert_eq!(u.count(0, 0), 0);
    }

    #[test]
    fn bad_params_are_rejected_with_the_field_name() {
        let err = Exp3Params {
            gamma: 0.0,
            ..Exp3Params::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(err.contains("gamma"), "{err}");
        let err = UcbParams {
            c: f64::NAN,
            ..UcbParams::default()
        }
        .try_validate()
        .unwrap_err();
        assert!(err.contains('c'), "{err}");
        let err = SwitchingParams {
            switch_cost: -1.0,
            hysteresis: 0.0,
        }
        .try_validate()
        .unwrap_err();
        assert!(err.contains("switch_cost"), "{err}");
    }

    #[test]
    fn ablation_names_reflect_the_penalty() {
        assert_eq!(exp3(1).name(), "exp3");
        let p = Exp3Policy::new(
            6,
            6,
            Exp3Params {
                switching: SwitchingParams::none(),
                ..Exp3Params::default()
            },
            1,
        );
        assert_eq!(p.name(), "exp3-nosw");
        assert_eq!(ucb().name(), "ucb");
    }
}
