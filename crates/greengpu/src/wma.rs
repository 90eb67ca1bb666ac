//! The coordinated GPU core/memory frequency scaler (paper §V-A).
//!
//! A Weighted-Majority-Algorithm (Littlestone & Warmuth) learner over the
//! `N×M` table of (core level, memory level) pairs. Every interval it:
//!
//! 1. reads core and memory utilizations `u_c`, `u_m` from the smi sensor;
//! 2. charges every level a loss from Table I — *performance loss*
//!    `u − umean[i]` when the level's suitable utilization is below the
//!    observed one, *energy loss* `umean[i] − u` otherwise — folded with
//!    `α` (Eqs. 1–2);
//! 3. combines core and memory losses with `φ` (Eq. 3);
//! 4. updates every pair's weight multiplicatively with `β` (Eq. 4);
//! 5. enforces the argmax pair.
//!
//! `umean` follows the Dhiman–Rosing linear map: the peak level suits
//! 100 % utilization, the lowest suits 0 %, intermediate levels are evenly
//! spaced.
//!
//! Two reproduction notes (documented in DESIGN.md): the paper initializes
//! weights "to an equal value (e.g., 0)", which is degenerate under a
//! multiplicative update — we use 1.0 (still equal); and weights are
//! renormalized by the maximum each interval to prevent underflow, which
//! cannot change the argmax.

/// Tuning constants of the scaler (paper's fitted values as defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WmaParams {
    /// Energy-vs-performance trade-off for the core domain (`α_c`); the
    /// paper derives 0.15 experimentally.
    pub alpha_core: f64,
    /// Trade-off for the memory domain (`α_m = 0.02`).
    pub alpha_mem: f64,
    /// Core/memory loss balance (`φ = 0.3`).
    pub phi: f64,
    /// History smoothing (`β = 0.2`).
    pub beta: f64,
    /// Log-domain forgetting factor `λ ∈ (0, 1]` applied before each
    /// update (`w ← w^λ · (1 − (1−β)·loss)`).
    ///
    /// **Reproduction note** (see DESIGN.md): Eq. 4 verbatim (`λ = 1`)
    /// gives the weight table unbounded memory — a pair that was heavily
    /// penalized during one workload phase cannot be re-selected for
    /// hundreds of intervals, contradicting the responsiveness the paper
    /// demonstrates in Fig. 5 ("it can adjust the GPU core and memory
    /// frequencies directly to the best levels according to the
    /// utilizations"). `λ = 0.8` bounds the effective history to ~5
    /// intervals while keeping Eq. 4's noise filtering. The ablation bench
    /// sweeps this knob.
    pub history: f64,
}

impl Default for WmaParams {
    fn default() -> Self {
        WmaParams {
            alpha_core: 0.15,
            alpha_mem: 0.02,
            phi: 0.3,
            beta: 0.2,
            history: 0.8,
        }
    }
}

impl WmaParams {
    /// Checks parameter ranges (`α, φ ∈ [0,1]`, `β ∈ (0,1)`,
    /// `history ∈ (0,1]`), naming the offending field in the error —
    /// the non-panicking form config paths (repro CLI, cluster node
    /// configs) report to the user.
    pub fn try_validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("alpha_core", self.alpha_core),
            ("alpha_mem", self.alpha_mem),
            ("phi", self.phi),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        if !(self.beta > 0.0 && self.beta < 1.0) {
            return Err(format!("beta must be in (0,1), got {}", self.beta));
        }
        if !(self.history > 0.0 && self.history <= 1.0) {
            return Err(format!("history must be in (0,1], got {}", self.history));
        }
        Ok(())
    }

    /// Validates parameter ranges, panicking with the
    /// [`WmaParams::try_validate`] message on failure.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            panic!("{msg}");
        }
    }
}

/// The per-level loss of Table I.
///
/// Returns `(energy_loss, performance_loss)` for observed utilization `u`
/// against a level's suitable utilization `umean`.
pub fn table1_loss(u: f64, umean: f64) -> (f64, f64) {
    if u > umean {
        (0.0, u - umean)
    } else {
        (umean - u, 0.0)
    }
}

/// The online WMA frequency scaler over an `N×M` core/memory pair table.
///
/// ```
/// use greengpu::wma::{WmaParams, WmaScaler};
///
/// let mut scaler = WmaScaler::new(6, 6, WmaParams::default());
/// // kmeans-like signature: medium core, low memory utilization.
/// let mut pair = (0, 0);
/// for _ in 0..10 {
///     pair = scaler.observe(0.6, 0.08);
/// }
/// assert_eq!(pair.0, 3, "core level matches umean 0.6 (464 MHz)");
/// assert!(pair.1 <= 1, "memory throttles deep");
/// ```
#[derive(Debug, Clone)]
pub struct WmaScaler {
    params: WmaParams,
    n_core: usize,
    n_mem: usize,
    /// Row-major `n_core × n_mem` weights.
    weights: Vec<f64>,
    /// Suitable utilization per core level.
    ucmean: Vec<f64>,
    /// Suitable utilization per memory level.
    ummean: Vec<f64>,
    intervals: u64,
    /// Intervals whose feasible set was empty and the selection degraded
    /// to the lowest-power pair `(0, 0)`.
    empty_mask_fallbacks: u64,
}

impl WmaScaler {
    /// Creates a scaler for `n_core` core levels and `n_mem` memory levels
    /// (6×6 on the paper's testbed).
    pub fn new(n_core: usize, n_mem: usize, params: WmaParams) -> Self {
        assert!(n_core >= 2 && n_mem >= 2, "need at least two levels per domain");
        params.validate();
        let linmap = |n: usize| -> Vec<f64> { (0..n).map(|i| i as f64 / (n - 1) as f64).collect() };
        WmaScaler {
            params,
            n_core,
            n_mem,
            weights: vec![1.0; n_core * n_mem],
            ucmean: linmap(n_core),
            ummean: linmap(n_mem),
            intervals: 0,
            empty_mask_fallbacks: 0,
        }
    }

    /// The `umean` table for the core domain.
    pub fn ucmean(&self) -> &[f64] {
        &self.ucmean
    }

    /// The `umean` table for the memory domain.
    pub fn ummean(&self) -> &[f64] {
        &self.ummean
    }

    /// Weight of pair `(i, j)`.
    pub fn weight(&self, i: usize, j: usize) -> f64 {
        self.weights[i * self.n_mem + j]
    }

    /// Number of observe intervals processed.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// Number of intervals whose feasible set was empty, degrading the
    /// selection to the lowest-power pair `(0, 0)` — surfaced so capped
    /// runs can report how often the cap was tighter than any pair.
    pub fn empty_mask_fallbacks(&self) -> u64 {
        self.empty_mask_fallbacks
    }

    /// The loss charged to core level `i` under utilization `u_core`
    /// (Eq. 1).
    pub fn core_loss(&self, i: usize, u_core: f64) -> f64 {
        let (le, lp) = table1_loss(u_core, self.ucmean[i]);
        self.params.alpha_core * le + (1.0 - self.params.alpha_core) * lp
    }

    /// The loss charged to memory level `j` under utilization `u_mem`
    /// (Eq. 2).
    pub fn mem_loss(&self, j: usize, u_mem: f64) -> f64 {
        let (le, lp) = table1_loss(u_mem, self.ummean[j]);
        self.params.alpha_mem * le + (1.0 - self.params.alpha_mem) * lp
    }

    /// The combined loss of pair `(i, j)` (Eq. 3).
    pub fn total_loss(&self, i: usize, j: usize, u_core: f64, u_mem: f64) -> f64 {
        self.params.phi * self.core_loss(i, u_core) + (1.0 - self.params.phi) * self.mem_loss(j, u_mem)
    }

    /// One interval of Algorithm 1: reads the utilizations, updates all
    /// weights (Eq. 4), renormalizes, and returns the argmax
    /// `(core_level, mem_level)` pair to enforce next.
    ///
    /// Ties break toward lower (more energy-saving) levels.
    ///
    /// Non-finite utilizations (a lost `nvidia-smi` poll) are rejected
    /// without touching the weight table — `NaN.clamp()` is still NaN, and
    /// one NaN loss would zero every weight permanently. The current
    /// argmax is returned unchanged.
    pub fn observe(&mut self, u_core: f64, u_mem: f64) -> (usize, usize) {
        self.observe_masked(u_core, u_mem, |_, _| true)
    }

    /// [`WmaScaler::observe`] restricted to a *feasible set* of pairs — the
    /// power-capping seam used by the cluster tier.
    ///
    /// The weight update runs over the **full** table (learning is never
    /// distorted by a transient cap), but the returned argmax only
    /// considers pairs for which `feasible(core, mem)` is true — e.g.
    /// pairs whose modeled board power fits the node's current power cap.
    /// An empty feasible set degrades to `(0, 0)`, the lowest-power pair,
    /// which is the closest enforceable point to any cap.
    pub fn observe_masked<F>(&mut self, u_core: f64, u_mem: f64, feasible: F) -> (usize, usize)
    where
        F: Fn(usize, usize) -> bool,
    {
        if !(u_core.is_finite() && u_mem.is_finite()) {
            return self.select_masked(&feasible);
        }
        let u_core = u_core.clamp(0.0, 1.0);
        let u_mem = u_mem.clamp(0.0, 1.0);
        let one_minus_beta = 1.0 - self.params.beta;
        let mut max_w = 0.0f64;
        for i in 0..self.n_core {
            for j in 0..self.n_mem {
                let loss = self.total_loss(i, j, u_core, u_mem);
                debug_assert!((0.0..=1.0 + 1e-12).contains(&loss), "loss out of [0,1]");
                let w = &mut self.weights[i * self.n_mem + j];
                *w = w.powf(self.params.history) * (1.0 - one_minus_beta * loss);
                max_w = max_w.max(*w);
            }
        }
        // Renormalize by the max so weights never underflow; the argmax is
        // unaffected.
        if max_w > 0.0 {
            for w in &mut self.weights {
                *w /= max_w;
            }
        }
        self.intervals += 1;
        self.select_masked(&feasible)
    }

    /// Masked argmax that counts the empty-feasible-set degradation to
    /// `(0, 0)`.
    fn select_masked<F>(&mut self, feasible: F) -> (usize, usize)
    where
        F: Fn(usize, usize) -> bool,
    {
        match self.argmax_masked(feasible) {
            Some(pair) => pair,
            None => {
                self.empty_mask_fallbacks += 1;
                (0, 0)
            }
        }
    }

    /// The current best pair without updating.
    pub fn argmax(&self) -> (usize, usize) {
        self.argmax_masked(|_, _| true).unwrap_or((0, 0))
    }

    /// The best pair among those `feasible` admits, without updating;
    /// `None` when the feasible set is empty. Ties break toward lower
    /// (more energy-saving) levels, exactly like [`WmaScaler::argmax`].
    pub fn argmax_masked<F>(&self, feasible: F) -> Option<(usize, usize)>
    where
        F: Fn(usize, usize) -> bool,
    {
        let mut best = None;
        let mut best_w = f64::NEG_INFINITY;
        for i in 0..self.n_core {
            for j in 0..self.n_mem {
                if !feasible(i, j) {
                    continue;
                }
                let w = self.weights[i * self.n_mem + j];
                if w > best_w {
                    best_w = w;
                    best = Some((i, j));
                }
            }
        }
        best
    }

    /// Resets the table to the uniform initial state.
    pub fn reset(&mut self) {
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.intervals = 0;
        self.empty_mask_fallbacks = 0;
    }

    /// Serializes the learner's warm state for checkpointing: the weight
    /// table plus the interval counters. The `umean` maps are derived
    /// from the grid shape at construction and are not stored.
    pub fn snapshot(&self) -> greengpu_sim::JsonValue {
        use greengpu_policy::LearnerState;
        self.state().snapshot()
    }

    /// A typed copy of the state [`WmaScaler::snapshot`] serializes.
    pub(crate) fn state(&self) -> WmaState {
        WmaState {
            weights: self.weights.clone(),
            intervals: self.intervals,
            empty_mask_fallbacks: self.empty_mask_fallbacks,
        }
    }

    /// Restores a state captured by [`WmaScaler::state`] on a scaler of
    /// the same grid; a state of another grid is rejected unchanged.
    pub(crate) fn set_state(&mut self, state: &WmaState) -> Result<(), String> {
        if state.weights.len() != self.weights.len() {
            return Err(format!(
                "learner state has {} weights, scaler has {}",
                state.weights.len(),
                self.weights.len()
            ));
        }
        self.weights.clone_from(&state.weights);
        self.intervals = state.intervals;
        self.empty_mask_fallbacks = state.empty_mask_fallbacks;
        Ok(())
    }

    /// Restores state captured by [`WmaScaler::snapshot`]. Validates the
    /// whole value before mutating anything, so a failed restore leaves
    /// the scaler unchanged.
    pub fn restore(&mut self, state: &greengpu_sim::JsonValue) -> Result<(), String> {
        use greengpu_policy::snap;
        let weights = snap::parse_f64_vec(snap::field(state, "weights")?, "weights", self.weights.len())?;
        if weights.iter().any(|&w| !(0.0..=1.0).contains(&w)) {
            return Err("weights must lie in [0, 1] (max-renormalized table)".to_string());
        }
        let intervals = snap::parse_u64(state, "intervals")?;
        let fallbacks = snap::parse_u64(state, "empty_mask_fallbacks")?;
        self.weights = weights;
        self.intervals = intervals;
        self.empty_mask_fallbacks = fallbacks;
        Ok(())
    }
}

/// The warm state of a [`WmaScaler`], held typed: the weight table plus
/// the interval counters (the `umean` maps derive from the grid shape).
#[derive(Debug)]
pub(crate) struct WmaState {
    weights: Vec<f64>,
    intervals: u64,
    empty_mask_fallbacks: u64,
}

impl greengpu_policy::LearnerState for WmaState {
    fn snapshot(&self) -> greengpu_sim::JsonValue {
        use greengpu_sim::JsonValue;
        JsonValue::Obj(vec![
            ("weights".to_string(), JsonValue::f64_array(&self.weights)),
            ("intervals".to_string(), JsonValue::u64(self.intervals)),
            (
                "empty_mask_fallbacks".to_string(),
                JsonValue::u64(self.empty_mask_fallbacks),
            ),
        ])
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> WmaScaler {
        WmaScaler::new(6, 6, WmaParams::default())
    }

    #[test]
    fn umean_is_the_linear_map() {
        let s = scaler();
        assert_eq!(s.ucmean(), &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]);
        assert_eq!(s.ummean(), &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]);
    }

    #[test]
    fn table1_loss_matches_the_paper_table() {
        // u > umean → pure performance loss.
        let (le, lp) = table1_loss(0.9, 0.6);
        assert!(le == 0.0 && (lp - 0.3).abs() < 1e-12);
        // u < umean → pure energy loss.
        let (le, lp) = table1_loss(0.2, 0.6);
        assert!((le - 0.4).abs() < 1e-12 && lp == 0.0);
        // u == umean → no loss.
        assert_eq!(table1_loss(0.5, 0.5), (0.0, 0.0));
    }

    #[test]
    fn full_utilization_selects_peak_pair() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        assert_eq!(s.argmax(), (5, 5));
    }

    #[test]
    fn idle_utilization_selects_lowest_pair() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.0, 0.0);
        }
        assert_eq!(s.argmax(), (0, 0));
    }

    #[test]
    fn medium_core_low_mem_selects_matched_levels() {
        // The kmeans signature: u_core ≈ 0.6, u_mem ≈ 0.08.
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.6, 0.08);
        }
        let (i, j) = s.argmax();
        assert_eq!(i, 3, "core level should match umean 0.6");
        assert!(j <= 1, "memory should throttle deep, got {j}");
    }

    #[test]
    fn masked_argmax_respects_the_feasible_set() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(1.0, 1.0);
        }
        // The unmasked winner is the peak pair; a mask excluding it must
        // yield the best pair *inside* the feasible set.
        assert_eq!(s.argmax(), (5, 5));
        let best = s.argmax_masked(|i, j| i + j <= 7).expect("non-empty mask");
        assert!(best.0 + best.1 <= 7, "masked argmax escaped the mask: {best:?}");
    }

    #[test]
    fn empty_mask_degrades_to_lowest_pair() {
        let mut s = scaler();
        assert_eq!(s.argmax_masked(|_, _| false), None);
        assert_eq!(s.observe_masked(1.0, 1.0, |_, _| false), (0, 0));
    }

    #[test]
    fn all_infeasible_intervals_are_counted_and_learning_continues() {
        let mut s = scaler();
        assert_eq!(s.empty_mask_fallbacks(), 0);
        for _ in 0..5 {
            assert_eq!(s.observe_masked(1.0, 1.0, |_, _| false), (0, 0));
        }
        assert_eq!(s.empty_mask_fallbacks(), 5);
        // The weight update still ran every interval: once the cap lifts
        // the scaler selects what it learned during the blackout.
        assert_eq!(s.intervals(), 5);
        assert_eq!(s.argmax(), (5, 5));
        // A feasible interval does not bump the counter.
        s.observe_masked(1.0, 1.0, |_, _| true);
        assert_eq!(s.empty_mask_fallbacks(), 5);
        s.reset();
        assert_eq!(s.empty_mask_fallbacks(), 0);
    }

    #[test]
    fn nan_under_empty_mask_still_counts_the_fallback() {
        // Both degradations at once: a lost sensor poll *and* a cap no
        // pair fits. The weight table must be untouched (NaN path), the
        // fallback counted, and (0, 0) returned.
        let mut s = scaler();
        for _ in 0..8 {
            s.observe(0.6, 0.08);
        }
        let before: Vec<f64> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|(i, j)| s.weight(i, j))
            .collect();
        assert_eq!(s.observe_masked(f64::NAN, 0.5, |_, _| false), (0, 0));
        assert_eq!(s.empty_mask_fallbacks(), 1);
        assert_eq!(s.intervals(), 8, "NaN interval must not count as processed");
        let after: Vec<f64> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|(i, j)| s.weight(i, j))
            .collect();
        assert_eq!(before, after);
        // NaN under a *non-empty* mask holds the masked argmax and does
        // not bump the counter.
        let held = s.observe_masked(f64::NAN, 0.5, |i, j| i <= 1 && j <= 1);
        assert!(held.0 <= 1 && held.1 <= 1);
        assert_eq!(s.empty_mask_fallbacks(), 1);
    }

    #[test]
    fn try_validate_names_the_offending_field() {
        let ok = WmaParams::default();
        assert!(ok.try_validate().is_ok());
        let cases = [
            (WmaParams { alpha_core: -0.1, ..ok }, "alpha_core"),
            (WmaParams { alpha_mem: 1.5, ..ok }, "alpha_mem"),
            (WmaParams { phi: 2.0, ..ok }, "phi"),
            (WmaParams { beta: 1.0, ..ok }, "beta"),
            (WmaParams { beta: f64::NAN, ..ok }, "beta"),
            (WmaParams { history: 0.0, ..ok }, "history"),
        ];
        for (bad, field) in cases {
            let err = bad.try_validate().unwrap_err();
            assert!(err.contains(field), "{err:?} should name {field}");
        }
    }

    #[test]
    fn all_true_mask_matches_unmasked_observe() {
        let mut a = scaler();
        let mut b = scaler();
        for k in 0..12 {
            let u = (k as f64) / 11.0;
            let pa = a.observe(u, 1.0 - u);
            let pb = b.observe_masked(u, 1.0 - u, |_, _| true);
            assert_eq!(pa, pb);
        }
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(a.weight(i, j).to_bits(), b.weight(i, j).to_bits());
            }
        }
    }

    #[test]
    fn mask_never_distorts_learning() {
        // Weights after masked observations must equal weights after the
        // same unmasked observations: the mask only affects selection.
        let mut masked = scaler();
        let mut free = scaler();
        for _ in 0..10 {
            masked.observe_masked(1.0, 1.0, |i, j| i <= 2 && j <= 2);
            free.observe(1.0, 1.0);
        }
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(masked.weight(i, j).to_bits(), free.weight(i, j).to_bits());
            }
        }
        // And once the cap lifts, the scaler immediately selects what it
        // learned.
        assert_eq!(masked.argmax(), (5, 5));
    }

    #[test]
    fn streamcluster_signature_selects_408_and_820() {
        // Fig. 5: u_core ≈ 0.28-0.4 → level 2 (408 MHz); u_mem ≈ 0.67-0.79
        // → level 4 (820 MHz).
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.33, 0.70);
        }
        assert_eq!(s.argmax(), (2, 4));
    }

    #[test]
    fn performance_bias_picks_level_above_utilization() {
        // α small → perf loss dominates → the chosen umean sits at or
        // above the observed utilization.
        let mut s = scaler();
        for u in [0.15, 0.35, 0.55, 0.75] {
            s.reset();
            for _ in 0..5 {
                s.observe(u, u);
            }
            let (i, j) = s.argmax();
            assert!(s.ucmean()[i] >= u - 1e-9, "core level {i} below u {u}");
            assert!(s.ummean()[j] >= u - 1e-9, "mem level {j} below u {u}");
        }
    }

    #[test]
    fn weights_stay_normalized_and_positive() {
        let mut s = scaler();
        for k in 0..1000 {
            let u = (k % 10) as f64 / 10.0;
            s.observe(u, 1.0 - u);
        }
        let max = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|(i, j)| s.weight(i, j))
            .fold(0.0, f64::max);
        assert!((max - 1.0).abs() < 1e-12, "max weight must be renormalized to 1");
        for i in 0..6 {
            for j in 0..6 {
                let w = s.weight(i, j);
                assert!(w >= 0.0 && w.is_finite());
            }
        }
    }

    #[test]
    fn adapts_to_workload_change() {
        // Converge on a core-heavy signature, then switch to memory-heavy:
        // the argmax must follow within a few intervals (the paper's Fig. 5
        // ramp behaviour).
        let mut s = scaler();
        for _ in 0..20 {
            s.observe(0.95, 0.1);
        }
        let before = s.argmax();
        assert_eq!(before.0, 5, "core pinned high");
        for _ in 0..20 {
            s.observe(0.1, 0.95);
        }
        let after = s.argmax();
        assert!(after.0 <= 1, "core should drop, got {}", after.0);
        assert_eq!(after.1, 5, "memory should rise");
    }

    #[test]
    fn history_controls_adaptation_speed() {
        let run = |history: f64| -> u64 {
            let mut s = WmaScaler::new(
                6,
                6,
                WmaParams {
                    history,
                    ..WmaParams::default()
                },
            );
            for _ in 0..50 {
                s.observe(1.0, 1.0);
            }
            // Count intervals until argmax flips after the signature change.
            let mut count = 0;
            while s.argmax() != (0, 0) && count < 5000 {
                s.observe(0.0, 0.0);
                count += 1;
            }
            count
        };
        let bounded = run(0.8);
        let verbatim = run(1.0);
        assert!(
            bounded < 30,
            "bounded history should adapt within tens of intervals, took {bounded}"
        );
        assert!(
            verbatim > 10 * bounded,
            "verbatim Eq. 4 should be dramatically slower: {verbatim} vs {bounded}"
        );
    }

    #[test]
    fn beta_scales_per_interval_penalty() {
        // Larger β → smaller (1−β) → gentler weight decay for the same
        // loss.
        let weight_after_one = |beta: f64| -> f64 {
            let mut s = WmaScaler::new(
                6,
                6,
                WmaParams {
                    beta,
                    ..WmaParams::default()
                },
            );
            s.observe(1.0, 1.0);
            s.weight(0, 0) // heavily penalized pair, relative to max
        };
        assert!(weight_after_one(0.9) > weight_after_one(0.2));
    }

    #[test]
    fn ties_break_toward_lower_levels() {
        // With u exactly on a umean both neighbors can tie in loss shape;
        // a fresh table with u = 0 makes all pure-energy losses strictly
        // ordered, but u = umean[k] gives level k zero loss — unique. Use
        // φ = 0 so core levels are all tied: argmax must take the lowest.
        let mut s = WmaScaler::new(
            6,
            6,
            WmaParams {
                phi: 0.0,
                ..WmaParams::default()
            },
        );
        s.observe(0.5, 0.6);
        let (i, j) = s.argmax();
        assert_eq!(i, 0, "tied core levels must break low");
        assert_eq!(j, 3);
    }

    #[test]
    fn losses_are_bounded_unit_interval() {
        let s = scaler();
        for i in 0..6 {
            for j in 0..6 {
                for u in [0.0, 0.25, 0.5, 0.75, 1.0] {
                    let l = s.total_loss(i, j, u, 1.0 - u);
                    assert!((0.0..=1.0).contains(&l), "loss {l}");
                }
            }
        }
    }

    #[test]
    fn reset_restores_uniform_table() {
        let mut s = scaler();
        s.observe(0.3, 0.9);
        s.reset();
        assert_eq!(s.intervals(), 0);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(s.weight(i, j), 1.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "beta must be in")]
    fn invalid_beta_panics() {
        WmaScaler::new(
            6,
            6,
            WmaParams {
                beta: 0.0,
                ..WmaParams::default()
            },
        );
    }

    #[test]
    fn non_finite_utilization_leaves_weights_untouched() {
        let mut s = scaler();
        for _ in 0..10 {
            s.observe(0.6, 0.08);
        }
        let before: Vec<f64> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|(i, j)| s.weight(i, j))
            .collect();
        let pair = s.argmax();
        for (uc, um) in [
            (f64::NAN, 0.5),
            (0.5, f64::NAN),
            (f64::INFINITY, 0.5),
            (0.5, f64::NEG_INFINITY),
            (f64::NAN, f64::NAN),
        ] {
            assert_eq!(s.observe(uc, um), pair, "argmax must hold under ({uc}, {um})");
        }
        let after: Vec<f64> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (i, j)))
            .map(|(i, j)| s.weight(i, j))
            .collect();
        assert_eq!(before, after, "weight table must be untouched");
    }

    #[test]
    fn out_of_range_utilization_is_clamped() {
        let mut s = scaler();
        let pair = s.observe(1.7, -0.3);
        assert_eq!(pair, s.argmax());
        // Equivalent to (1.0, 0.0).
        let mut s2 = scaler();
        let pair2 = s2.observe(1.0, 0.0);
        assert_eq!(pair, pair2);
    }
}

/// Independent per-card WMA scalers for the multi-GPU runtime — each card
/// gets its own weight table, as each has its own utilization signature
/// (shares differ, and cards may be heterogeneous).
#[derive(Debug, Clone)]
pub struct PerGpuWma {
    scalers: Vec<WmaScaler>,
}

impl PerGpuWma {
    /// One 6×6 scaler per card with the given parameters.
    pub fn new(n_gpus: usize, params: WmaParams) -> Self {
        PerGpuWma {
            scalers: (0..n_gpus).map(|_| WmaScaler::new(6, 6, params)).collect(),
        }
    }

    /// The scaler for card `i` (inspection/tests).
    pub fn scaler(&self, i: usize) -> &WmaScaler {
        &self.scalers[i]
    }
}

impl greengpu_runtime::multi::MultiScaler for PerGpuWma {
    fn observe(&mut self, gpu_index: usize, u_core: f64, u_mem: f64) -> (usize, usize) {
        self.scalers[gpu_index].observe(u_core, u_mem)
    }
}

#[cfg(test)]
mod per_gpu_tests {
    use super::*;
    use greengpu_runtime::multi::MultiScaler;

    #[test]
    fn cards_learn_independently() {
        let mut s = PerGpuWma::new(2, WmaParams::default());
        for _ in 0..10 {
            s.observe(0, 1.0, 1.0);
            s.observe(1, 0.0, 0.0);
        }
        assert_eq!(s.scaler(0).argmax(), (5, 5));
        assert_eq!(s.scaler(1).argmax(), (0, 0));
    }
}
