//! The workload-division tier (paper §V-B).
//!
//! `r` is the CPU's share of each iteration. After each iteration the
//! controller compares the CPU time `tc` and GPU time `tg`: if the CPU was
//! slower it gives work back to the GPU (one fixed step, 5 % on the paper's
//! testbed), otherwise it takes one step of work from the GPU.
//!
//! Because divisions are discrete, the ratio can oscillate around a
//! non-representable optimum (the paper's 12.5/87.5 example); the safeguard
//! linearly extrapolates both sides' next-iteration times under the
//! candidate ratio and *holds* the current ratio if the comparison would
//! flip.

/// Division tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivisionParams {
    /// Ratio step per iteration (paper: 5 %, platform-dependent).
    pub step: f64,
    /// Lower clamp for `r`.
    pub min_share: f64,
    /// Upper clamp for `r` (the GPU thread must keep some work; the paper
    /// sweeps CPU shares up to 90 %).
    pub max_share: f64,
    /// Whether the oscillation safeguard is active (ablation knob).
    pub safeguard: bool,
}

impl Default for DivisionParams {
    fn default() -> Self {
        DivisionParams {
            step: 0.05,
            min_share: 0.0,
            max_share: 0.90,
            safeguard: true,
        }
    }
}

/// The division controller state.
///
/// The ratio lives on an integer grid of `step` multiples (`r = k·step`),
/// mirroring the discrete chunk sizes of the real port and keeping the
/// arithmetic exact over arbitrarily many iterations.
///
/// ```
/// use greengpu::division::{DivisionController, DivisionParams};
///
/// // Equal-speed sides (the hotspot case): converge to 50/50.
/// let mut ctl = DivisionController::new(0.30, DivisionParams::default());
/// for _ in 0..10 {
///     let r = ctl.share();
///     ctl.update(r * 100.0, (1.0 - r) * 100.0); // tc, tg of this iteration
/// }
/// assert!((ctl.share() - 0.50).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DivisionController {
    params: DivisionParams,
    /// Ratio in units of `step`.
    k: i64,
    k_min: i64,
    k_max: i64,
    held: u64,
    moves: u64,
    /// Last observed CPU seconds per unit share (`tc / r`), for
    /// extrapolating from `r = 0`.
    tc_rate: Option<f64>,
    /// Last observed GPU seconds per unit share (`tg / (1 − r)`).
    tg_rate: Option<f64>,
}

/// The Tier-1 warm state of a [`DivisionController`], held typed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DivisionState {
    k: i64,
    held: u64,
    moves: u64,
    tc_rate: Option<f64>,
    tg_rate: Option<f64>,
}

impl DivisionState {
    /// The JSON wire form: the grid position `k` (the division ratio is
    /// `k · step`), the hold/move counters, and the last observed
    /// per-share rates the `r = 0` extrapolation needs.
    pub(crate) fn snapshot(&self) -> greengpu_sim::JsonValue {
        use greengpu_sim::JsonValue;
        let rate = |r: Option<f64>| r.map_or(JsonValue::Null, JsonValue::f64);
        JsonValue::Obj(vec![
            ("k".to_string(), JsonValue::i64(self.k)),
            ("held".to_string(), JsonValue::u64(self.held)),
            ("moves".to_string(), JsonValue::u64(self.moves)),
            ("tc_rate".to_string(), rate(self.tc_rate)),
            ("tg_rate".to_string(), rate(self.tg_rate)),
        ])
    }
}

/// When a predicted flip would hold the ratio at a point whose slower side
/// exceeds the candidate's predicted slower side by this factor, the hold
/// is overridden — parking at a grossly imbalanced division (e.g. 5 % CPU
/// on a CPU 1000× too slow) would defeat the tier's purpose.
const ESCAPE_FACTOR: f64 = 1.1;

impl DivisionController {
    /// Creates a controller starting at `initial` CPU share (rounded to
    /// the step grid). The paper starts its traces at 30 % for faster
    /// convergence but shows the algorithm converges from any initial
    /// ratio.
    pub fn new(initial: f64, params: DivisionParams) -> Self {
        assert!(params.step > 0.0 && params.step < 1.0, "step out of range");
        assert!(
            params.min_share <= initial && initial <= params.max_share,
            "initial share outside clamp range"
        );
        DivisionController {
            k: (initial / params.step).round() as i64,
            k_min: (params.min_share / params.step).round() as i64,
            k_max: (params.max_share / params.step).round() as i64,
            params,
            held: 0,
            moves: 0,
            tc_rate: None,
            tg_rate: None,
        }
    }

    /// Current CPU share.
    pub fn share(&self) -> f64 {
        self.k as f64 * self.params.step
    }

    /// Times the safeguard held the ratio.
    pub fn holds(&self) -> u64 {
        self.held
    }

    /// Times the ratio moved.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Serializes the Tier-1 warm state: the grid position `k` (the
    /// division ratio is `k · step`), the hold/move counters, and the
    /// last observed per-share rates the `r = 0` extrapolation needs.
    pub fn snapshot(&self) -> greengpu_sim::JsonValue {
        self.state().snapshot()
    }

    /// A typed copy of the state [`DivisionController::snapshot`]
    /// serializes.
    pub(crate) fn state(&self) -> DivisionState {
        DivisionState {
            k: self.k,
            held: self.held,
            moves: self.moves,
            tc_rate: self.tc_rate,
            tg_rate: self.tg_rate,
        }
    }

    /// Restores a state captured by [`DivisionController::state`] on a
    /// controller with the same parameters.
    pub(crate) fn set_state(&mut self, state: &DivisionState) {
        self.k = state.k;
        self.held = state.held;
        self.moves = state.moves;
        self.tc_rate = state.tc_rate;
        self.tg_rate = state.tg_rate;
    }

    /// Restores state captured by [`DivisionController::snapshot`].
    /// Validates everything (including that `k` lies inside this
    /// controller's clamp range) before mutating anything.
    pub fn restore(&mut self, state: &greengpu_sim::JsonValue) -> Result<(), String> {
        use greengpu_policy::snap;
        let k = snap::field(state, "k")?
            .as_i64()
            .ok_or_else(|| "k must be an integer".to_string())?;
        if !(self.k_min..=self.k_max).contains(&k) {
            return Err(format!(
                "k = {k} outside the clamp range [{}, {}]",
                self.k_min, self.k_max
            ));
        }
        let held = snap::parse_u64(state, "held")?;
        let moves = snap::parse_u64(state, "moves")?;
        let rate = |name: &str| -> Result<Option<f64>, String> {
            let v = snap::field(state, name)?;
            if v.is_null() {
                return Ok(None);
            }
            let r = v.as_f64().ok_or_else(|| format!("{name} must be a number or null"))?;
            if r <= 0.0 {
                return Err(format!("{name} must be positive, got {r}"));
            }
            Ok(Some(r))
        };
        let tc_rate = rate("tc_rate")?;
        let tg_rate = rate("tg_rate")?;
        self.k = k;
        self.held = held;
        self.moves = moves;
        self.tc_rate = tc_rate;
        self.tg_rate = tg_rate;
        Ok(())
    }

    /// One division decision from the measured iteration times. Returns
    /// the share for the next iteration.
    ///
    /// Degenerate measurements — non-finite, negative, or both-zero times
    /// (a broken or wrapped timer) — carry no ordering information and
    /// hold the current ratio rather than moving on garbage.
    pub fn update(&mut self, tc_s: f64, tg_s: f64) -> f64 {
        if !(tc_s.is_finite() && tg_s.is_finite()) || tc_s < 0.0 || tg_s < 0.0 {
            return self.share();
        }
        if tc_s == tg_s {
            return self.share();
        }
        // Slower CPU → shed work to the GPU; slower GPU → take work.
        let candidate_k = if tc_s > tg_s {
            (self.k - 1).max(self.k_min)
        } else {
            (self.k + 1).min(self.k_max)
        };
        if candidate_k == self.k {
            return self.share(); // clamped at a bound
        }
        let r = self.share();
        // Remember per-unit-share rates for extrapolation from the bounds.
        if r > 0.0 {
            self.tc_rate = Some(tc_s / r);
        }
        if r < 1.0 {
            self.tg_rate = Some(tg_s / (1.0 - r));
        }
        if self.params.safeguard {
            // Linear extrapolation of both sides under the candidate ratio
            // (tc ∝ r, tg ∝ 1−r), using remembered rates at the bounds.
            let candidate = candidate_k as f64 * self.params.step;
            let preds = self
                .tc_rate
                .zip(self.tg_rate)
                .map(|(tcr, tgr)| (tcr * candidate, tgr * (1.0 - candidate)));
            if let Some((tc_pred, tg_pred)) = preds {
                // A strict sign reversal of the imbalance predicts
                // oscillation; a predicted tie is the ideal landing spot
                // and may proceed.
                if (tc_s - tg_s) * (tc_pred - tg_pred) < 0.0 {
                    // The candidate would overshoot — but if the *current*
                    // point is grossly worse than the candidate's predicted
                    // balance, parking here is wrong; escape.
                    let current_worst = tc_s.max(tg_s);
                    let pred_worst = tc_pred.max(tg_pred);
                    if current_worst <= pred_worst * ESCAPE_FACTOR {
                        // Keep the current division (paper §V-B).
                        self.held += 1;
                        return self.share();
                    }
                }
            }
        }
        self.k = candidate_k;
        self.moves += 1;
        self.share()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ideal linear testbed: tc = r·C, tg = (1−r)·G.
    fn converge(mut ctl: DivisionController, c: f64, g: f64, iters: usize) -> Vec<f64> {
        let mut trace = vec![ctl.share()];
        for _ in 0..iters {
            let r = ctl.share();
            let next = ctl.update(r * c, (1.0 - r) * g);
            trace.push(next);
        }
        trace
    }

    #[test]
    fn converges_to_fifty_fifty_for_symmetric_sides() {
        // The hotspot case (§VII-B): equal full-side times → 50/50.
        let ctl = DivisionController::new(0.30, DivisionParams::default());
        let trace = converge(ctl, 100.0, 100.0, 20);
        assert!((trace.last().unwrap() - 0.50).abs() < 1e-12);
    }

    #[test]
    fn converges_to_twenty_eighty_for_kmeans_like_ratio() {
        // tc_full/tg_full ≈ 4.5 → balance near 0.18 → settles on the 0.20
        // grid point (paper: kmeans converges to 20/80).
        let ctl = DivisionController::new(0.30, DivisionParams::default());
        let trace = converge(ctl, 4.5, 1.0, 20);
        let settled = *trace.last().unwrap();
        assert!((settled - 0.20).abs() < 1e-12, "trace {trace:?}");
    }

    #[test]
    fn converges_regardless_of_initial_ratio() {
        // The paper's Fig. 7 claim: the initial division does not matter.
        for initial in [0.0, 0.10, 0.30, 0.50, 0.70, 0.90] {
            let ctl = DivisionController::new(initial, DivisionParams::default());
            let trace = converge(ctl, 1.0, 1.0, 40);
            assert!(
                (trace.last().unwrap() - 0.50).abs() < 1e-12,
                "from {initial}: {trace:?}"
            );
        }
    }

    #[test]
    fn safeguard_prevents_oscillation_on_off_grid_optimum() {
        // Optimum at 12.5 % (the paper's example): without the safeguard
        // the ratio ping-pongs 0.10 ↔ 0.15 forever; with it the ratio
        // freezes on one of the two.
        let params = DivisionParams::default();
        let mut ctl = DivisionController::new(0.10, params);
        let (c, g) = (7.0, 1.0); // balance r* = 1/8 = 0.125
        let mut trace = Vec::new();
        for _ in 0..30 {
            let r = ctl.share();
            trace.push(r);
            ctl.update(r * c, (1.0 - r) * g);
        }
        let tail = &trace[10..];
        assert!(
            tail.windows(2).all(|w| w[0] == w[1]),
            "ratio still moving late in the run: {tail:?}"
        );
        assert!(ctl.holds() > 0, "safeguard never engaged");
    }

    #[test]
    fn without_safeguard_the_same_case_oscillates() {
        let params = DivisionParams {
            safeguard: false,
            ..DivisionParams::default()
        };
        let mut ctl = DivisionController::new(0.10, params);
        let (c, g) = (7.0, 1.0);
        let mut trace = Vec::new();
        for _ in 0..30 {
            let r = ctl.share();
            trace.push(r);
            ctl.update(r * c, (1.0 - r) * g);
        }
        let tail = &trace[10..];
        assert!(
            tail.windows(2).any(|w| w[0] != w[1]),
            "expected oscillation without safeguard: {tail:?}"
        );
    }

    #[test]
    fn share_is_clamped_at_bounds() {
        let mut ctl = DivisionController::new(0.0, DivisionParams::default());
        // GPU always slower → r should rise; CPU always slower from r=0 is
        // impossible (tc=0), so drive from the top bound too.
        for _ in 0..40 {
            let r = ctl.share();
            ctl.update(r * 1.0, 1.0);
        }
        assert!(ctl.share() <= 0.90 + 1e-12);
        let mut ctl = DivisionController::new(0.90, DivisionParams::default());
        for _ in 0..40 {
            let r = ctl.share();
            ctl.update(r * 100.0, (1.0 - r) * 1.0);
        }
        assert!(ctl.share() >= 0.0);
    }

    #[test]
    fn equal_times_hold_the_ratio() {
        let mut ctl = DivisionController::new(0.40, DivisionParams::default());
        assert_eq!(ctl.update(5.0, 5.0), 0.40);
        assert_eq!(ctl.moves(), 0);
    }

    #[test]
    fn zero_cpu_share_with_slower_gpu_takes_work() {
        // From r = 0 (all-GPU), tc = 0 < tg: the controller must start
        // pulling work onto the CPU.
        let mut ctl = DivisionController::new(0.0, DivisionParams::default());
        let r = ctl.update(0.0, 10.0);
        assert!((r - 0.05).abs() < 1e-12);
    }

    #[test]
    fn paper_worst_case_convergence_is_ten_steps_from_fifty() {
        // §VII-B: "in the worst case, we need 10 iterations if we start
        // from the 50% division point" — 10 steps of 5 % reach 0 %.
        let ctl = DivisionController::new(0.50, DivisionParams::default());
        let trace = converge(ctl, 1000.0, 1.0, 10); // CPU vastly slower
        assert_eq!(*trace.last().unwrap(), 0.0);
    }

    #[test]
    #[should_panic(expected = "initial share outside")]
    fn invalid_initial_share_panics() {
        DivisionController::new(0.95, DivisionParams::default());
    }

    #[test]
    fn degenerate_times_hold_the_ratio() {
        let mut ctl = DivisionController::new(0.30, DivisionParams::default());
        // Establish some rate history first.
        ctl.update(3.0, 7.0);
        let settled = ctl.share();
        let moves = ctl.moves();
        for (tc, tg) in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (f64::INFINITY, 1.0),
            (1.0, f64::NEG_INFINITY),
            (-1.0, 1.0),
            (1.0, -1.0),
            (0.0, 0.0),
        ] {
            assert_eq!(ctl.update(tc, tg), settled, "({tc}, {tg}) must hold");
        }
        assert_eq!(ctl.moves(), moves, "no move may come from garbage timing");
    }

    #[test]
    fn smaller_steps_converge_slower() {
        let count_moves = |step: f64| -> usize {
            let mut ctl = DivisionController::new(
                0.50,
                DivisionParams {
                    step,
                    ..DivisionParams::default()
                },
            );
            let (c, g) = (4.0, 1.0);
            let mut n = 0;
            loop {
                let r = ctl.share();
                let before = r;
                ctl.update(r * c, (1.0 - r) * g);
                if ctl.share() == before {
                    break;
                }
                n += 1;
                assert!(n < 1000);
            }
            n
        };
        assert!(count_moves(0.01) > count_moves(0.05), "fine steps need more iterations");
    }
}

/// Model-based division — the "sophisticated global algorithm" integration
/// point of §V-B, in the spirit of Qilin's adaptive mapping (Luk et al.).
///
/// Instead of walking one 5 % step per iteration, the first iteration's
/// measurements calibrate per-unit-share rates for both sides, and the
/// controller *jumps* directly to the grid point nearest the predicted
/// time-balance ratio `r* = tg_rate / (tc_rate + tg_rate)`. Subsequent
/// iterations refine step-wise with the standard safeguard. Compared with
/// the paper's heuristic this converges in one move at the cost of trusting
/// the linear extrapolation globally.
#[derive(Debug, Clone)]
pub struct ModelBasedDivision {
    params: DivisionParams,
    initial: f64,
    inner: Option<DivisionController>,
}

impl ModelBasedDivision {
    /// Creates a controller that probes at `initial` and then jumps.
    pub fn new(initial: f64, params: DivisionParams) -> Self {
        assert!(params.min_share <= initial && initial <= params.max_share);
        ModelBasedDivision {
            params,
            initial,
            inner: None,
        }
    }

    /// Current CPU share.
    pub fn share(&self) -> f64 {
        self.inner.as_ref().map_or(self.initial, |c| c.share())
    }

    /// Whether the calibration jump has happened.
    pub fn jumped(&self) -> bool {
        self.inner.is_some()
    }

    /// One division decision. The first call performs the model jump;
    /// later calls refine step-wise.
    ///
    /// Degenerate measurements (non-finite or negative times) hold the
    /// current share and — before the jump — preserve the calibration
    /// opportunity for the next good iteration.
    pub fn update(&mut self, tc_s: f64, tg_s: f64) -> f64 {
        if !(tc_s.is_finite() && tg_s.is_finite()) || tc_s < 0.0 || tg_s < 0.0 {
            return self.share();
        }
        match &mut self.inner {
            Some(ctl) => ctl.update(tc_s, tg_s),
            None => {
                let r = self.initial;
                // Per-unit-share rates from the probe iteration. A probe at
                // a bound gives no information for that side; fall back to
                // step-wise refinement from the probe point.
                let target = if r > 0.0 && r < 1.0 && tc_s > 0.0 && tg_s > 0.0 {
                    let tc_rate = tc_s / r;
                    let tg_rate = tg_s / (1.0 - r);
                    (tg_rate / (tc_rate + tg_rate)).clamp(self.params.min_share, self.params.max_share)
                } else {
                    r
                };
                // Snap to the step grid.
                let snapped = (target / self.params.step).round() * self.params.step;
                let snapped = snapped.clamp(self.params.min_share, self.params.max_share);
                self.inner = Some(DivisionController::new(snapped, self.params));
                snapped
            }
        }
    }
}

#[cfg(test)]
mod model_based_tests {
    use super::*;

    #[test]
    fn jumps_to_the_balance_point_in_one_iteration() {
        // tc = r·C, tg = (1−r)·G with C/G = 4.5 → balance at 0.1818 →
        // nearest grid point 0.20.
        let mut ctl = ModelBasedDivision::new(0.50, DivisionParams::default());
        assert!(!ctl.jumped());
        let r = ctl.update(0.5 * 4.5, 0.5 * 1.0);
        assert!((r - 0.20).abs() < 1e-12, "jumped to {r}");
        assert!(ctl.jumped());
    }

    #[test]
    fn refines_stepwise_after_the_jump() {
        let mut ctl = ModelBasedDivision::new(0.50, DivisionParams::default());
        ctl.update(2.25, 0.5); // jump to 0.20
                               // The model was slightly wrong: at 0.20 the CPU is still slower.
        let r = ctl.update(1.2, 0.8);
        assert!((r - 0.15).abs() < 1e-12, "refined to {r}");
    }

    #[test]
    fn probe_at_zero_falls_back_to_stepwise() {
        let mut ctl = ModelBasedDivision::new(0.0, DivisionParams::default());
        let r = ctl.update(0.0, 10.0);
        assert_eq!(r, 0.0, "no information at the bound — stay for refinement");
        // Next update behaves step-wise.
        let r = ctl.update(0.0, 10.0);
        assert!((r - 0.05).abs() < 1e-12);
    }

    #[test]
    fn converges_faster_than_stepwise_from_a_bad_start() {
        let (c, g) = (1.0, 1.0); // balance at 0.50
        let run = |mut step: Box<dyn FnMut(f64, f64) -> f64>, start: f64| -> usize {
            let mut r = start;
            for i in 0..40 {
                let next = step(r * c, (1.0 - r) * g);
                if (next - 0.50).abs() < 1e-12 && (r - 0.50).abs() < 1e-12 {
                    return i;
                }
                r = next;
            }
            40
        };
        let mut model = ModelBasedDivision::new(0.05, DivisionParams::default());
        let mut stepwise = DivisionController::new(0.05, DivisionParams::default());
        let model_iters = run(Box::new(move |tc, tg| model.update(tc, tg)), 0.05);
        let step_iters = run(Box::new(move |tc, tg| stepwise.update(tc, tg)), 0.05);
        assert!(model_iters < step_iters, "model {model_iters} vs stepwise {step_iters}");
    }

    #[test]
    fn degenerate_probe_preserves_the_calibration() {
        let mut ctl = ModelBasedDivision::new(0.50, DivisionParams::default());
        assert_eq!(ctl.update(f64::NAN, 1.0), 0.50);
        assert!(!ctl.jumped(), "garbage probe must not consume the jump");
        // The next good iteration still calibrates and jumps.
        let r = ctl.update(0.5 * 4.5, 0.5 * 1.0);
        assert!((r - 0.20).abs() < 1e-12);
        assert!(ctl.jumped());
    }

    #[test]
    fn jump_respects_the_share_clamps() {
        // Balance at 0.98 — beyond max_share; must clamp to 0.90.
        let mut ctl = ModelBasedDivision::new(0.50, DivisionParams::default());
        let r = ctl.update(0.5 * 0.02, 0.5 * 1.0);
        assert!(r <= 0.90 + 1e-12, "jumped past the clamp: {r}");
    }
}
