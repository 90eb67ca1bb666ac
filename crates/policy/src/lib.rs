//! # greengpu-policy — pluggable Tier-2 frequency-selection policies
//!
//! The paper's Tier-2 learner is a single Weighted-Majority table
//! (`greengpu::wma`). This crate makes frequency selection *pluggable*:
//! every online learner over the `N×M` (core level, memory level) pair
//! grid implements one object-safe trait, [`FreqPolicy`], and the
//! coordinator, the hardened faulted runs, and the cluster nodes all
//! drive whichever policy they are handed.
//!
//! Shipped policy families (beyond the WMA adapter, which lives in the
//! `greengpu` crate next to the scaler it wraps):
//!
//! * **Switching-aware bandits** ([`bandit`]): EXP3- and UCB-style
//!   learners in the spirit of *Online GPU Energy Optimization with
//!   Switching-Aware Bandits* (arXiv:2410.11855). Each interval charges
//!   the Table-I loss of the chosen pair *plus* a configurable
//!   switching-cost penalty, and a hysteresis rule keeps them from
//!   thrashing between adjacent levels.
//! * **Deadline-aware selection** ([`deadline`]): minimizes predicted
//!   energy subject to a per-iteration time budget, in the spirit of
//!   *A Data-Driven Frequency Scaling Approach for Deadline-aware Energy
//!   Efficient Scheduling on GPUs* (arXiv:2004.08177), over a
//!   [`deadline::PairModel`] derived from the calibrated
//!   frequency/performance model in `greengpu-hw`.
//!
//! Every policy is deterministic under a fixed seed (randomized policies
//! draw from [`greengpu_sim::Pcg32`] streams), always returns an
//! in-range pair, and respects the *feasible-set mask* exactly — the
//! power-capping seam the cluster tier relies on. Per-interval telemetry
//! ([`telemetry::PolicyTelemetry`]) tracks cumulative loss, switch
//! count, empty-mask fallbacks, and regret against the static-best pair
//! in hindsight.

#![forbid(unsafe_code)]

pub mod bandit;
pub mod contextual;
pub mod deadline;
pub mod loss;
pub mod telemetry;

pub use bandit::{Exp3Params, Exp3Policy, SwitchingParams, UcbParams, UcbPolicy};
pub use contextual::Contextual;
pub use deadline::{DeadlineParams, DeadlinePolicy, PairModel};
pub use greengpu_phase::{PhaseDetector, PhaseDetectorParams, PhaseId, PhaseTracker};
pub use greengpu_sim::JsonValue;
pub use loss::{LossModel, LossParams};
pub use telemetry::{DecisionTracker, PolicyTelemetry};

/// An online frequency-selection policy over the `N×M` pair grid — the
/// pluggable Tier-2 seam.
///
/// The contract every implementation upholds (and the proptests in
/// `tests/proptest_policies.rs` pin):
///
/// 1. **In-range**: [`FreqPolicy::decide`] returns `(i, j)` with
///    `i < n_core`, `j < n_mem`.
/// 2. **Mask-respecting**: when at least one pair is feasible, the
///    returned pair satisfies `feasible(i, j)`. An *empty* feasible set
///    degrades to `(0, 0)` — the lowest-power pair, the closest
///    enforceable point to any cap — and is counted in the telemetry.
/// 3. **Deterministic**: two instances built with the same parameters
///    and seed produce identical decision sequences for identical
///    observation sequences.
/// 4. **Garbage-tolerant**: non-finite utilizations never corrupt
///    learner state; the previous decision is held (restricted to the
///    mask) and the rejection is counted.
pub trait FreqPolicy: Send {
    /// Stable policy name used in experiment tables and CSV columns.
    fn name(&self) -> &str;

    /// The `(n_core, n_mem)` grid shape this policy selects over.
    fn shape(&self) -> (usize, usize);

    /// One control interval: observe the utilizations, learn, and return
    /// the `(core_level, mem_level)` pair to enforce next, restricted to
    /// pairs for which `feasible` is true.
    fn decide(&mut self, u_core: f64, u_mem: f64, feasible: &dyn Fn(usize, usize) -> bool) -> (usize, usize);

    /// The pair the policy currently prefers, without observing or
    /// learning — what a fresh unmasked decision would enforce. Used by
    /// the cluster tier to estimate a node's desired power draw.
    fn preferred(&self) -> (usize, usize);

    /// Per-interval telemetry accumulated so far.
    fn telemetry(&self) -> &PolicyTelemetry;

    /// Resets all learner state and telemetry to the initial state.
    fn reset(&mut self);

    /// Serializes the learner's warm state (weights, counts, RNG
    /// position, current pair) for checkpointing: the JSON form of
    /// [`FreqPolicy::learner`]. Telemetry is *not* included — a restored
    /// policy reports fresh counters.
    fn snapshot(&self) -> JsonValue {
        self.learner().snapshot()
    }

    /// Restores learner state captured by [`FreqPolicy::snapshot`].
    /// Implementations validate the whole value *before* mutating any
    /// state, so a failed restore leaves the policy unchanged and the
    /// caller can fall back to a cold start. The default accepts
    /// anything and restores nothing.
    fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        let _ = state;
        Ok(())
    }

    /// Copies the learner's warm state — weights, counts, RNG position,
    /// current pair; telemetry excluded — into a typed value, for
    /// checkpoints kept in memory.
    fn learner(&self) -> Box<dyn LearnerState>;

    /// Restores a state captured by [`FreqPolicy::learner`] on a policy
    /// built from the same spec. A state of another policy type or grid
    /// shape is rejected and leaves the policy unchanged.
    fn load_learner(&mut self, state: &dyn LearnerState) -> Result<(), String>;

    /// A bit-exact fingerprint of every piece of state that can influence
    /// a future [`FreqPolicy::decide`] or [`FreqPolicy::preferred`]
    /// result, or `None` when the policy cannot certify one (the
    /// default). The event-driven fleet engine skips a node's control
    /// ticks only while this fingerprint is provably a fixed point, so:
    ///
    /// * telemetry-only counters must be *excluded* (they advance every
    ///   tick and would make quiescence undetectable);
    /// * anything that feeds decisions — weights, incumbent pairs, RNG
    ///   positions, visit counts — must be *included* (or the policy must
    ///   return `None`, the always-safe answer).
    ///
    /// Randomized/count-based policies (EXP3, UCB) keep the `None`
    /// default: their state moves on every decision, so no idle fixed
    /// point exists and nodes running them are simply never parked.
    fn decision_fingerprint(&self) -> Option<u64> {
        None
    }

    /// Downcast hook (e.g. to reach the wrapped `WmaScaler` behind the
    /// adapter in the `greengpu` crate).
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A typed copy of a policy's warm learner state, as returned by
/// [`FreqPolicy::learner`]. Checkpoints hold these in memory; the JSON
/// wire form is rendered only when a checkpoint is exported.
pub trait LearnerState: Send + 'static {
    /// The JSON wire form of this state: exactly what
    /// [`FreqPolicy::snapshot`] returned on the policy it was taken from.
    fn snapshot(&self) -> JsonValue;

    /// Downcast hook for [`FreqPolicy::load_learner`].
    fn as_any(&self) -> &dyn std::any::Any;
}

impl dyn LearnerState {
    /// Downcasts to a policy's own state type `S`, naming `S` on a
    /// mismatch.
    pub fn downcast<S: LearnerState>(&self) -> Result<&S, String> {
        self.as_any()
            .downcast_ref()
            .ok_or_else(|| format!("learner state is not a {}", std::any::type_name::<S>()))
    }
}

/// Shared checkpoint (de)serialization helpers used by every
/// [`FreqPolicy::snapshot`]/[`FreqPolicy::restore`] implementation (the
/// `greengpu` crate reuses them for the WMA scaler and the division
/// controller). All parsers validate *fully* before the caller mutates
/// anything, and every error names the offending field.
pub mod snap {
    use greengpu_sim::JsonValue;

    /// Encodes an optional `(i, j)` pair as `[i, j]` or `null`.
    pub fn pair(current: Option<(usize, usize)>) -> JsonValue {
        match current {
            Some((i, j)) => JsonValue::Arr(vec![JsonValue::usize(i), JsonValue::usize(j)]),
            None => JsonValue::Null,
        }
    }

    /// Looks up a required field of an object snapshot.
    pub fn field<'a>(v: &'a JsonValue, name: &str) -> Result<&'a JsonValue, String> {
        v.get(name).ok_or_else(|| format!("snapshot missing field {name:?}"))
    }

    /// Decodes an optional in-range pair encoded by [`pair`].
    pub fn parse_pair(
        v: &JsonValue,
        name: &str,
        n_core: usize,
        n_mem: usize,
    ) -> Result<Option<(usize, usize)>, String> {
        if v.is_null() {
            return Ok(None);
        }
        let arr = v.as_arr().ok_or_else(|| format!("{name} must be [i, j] or null"))?;
        if arr.len() != 2 {
            return Err(format!("{name} must have exactly 2 elements, got {}", arr.len()));
        }
        let i = arr[0].as_usize().ok_or_else(|| format!("{name}[0] must be an index"))?;
        let j = arr[1].as_usize().ok_or_else(|| format!("{name}[1] must be an index"))?;
        if i >= n_core || j >= n_mem {
            return Err(format!("{name} ({i}, {j}) out of {n_core}x{n_mem} grid"));
        }
        Ok(Some((i, j)))
    }

    /// Decodes a fixed-length array of finite `f64`s.
    pub fn parse_f64_vec(v: &JsonValue, name: &str, len: usize) -> Result<Vec<f64>, String> {
        let arr = v.as_arr().ok_or_else(|| format!("{name} must be an array"))?;
        if arr.len() != len {
            return Err(format!("{name} must have {len} elements, got {}", arr.len()));
        }
        arr.iter()
            .enumerate()
            .map(|(k, x)| x.as_f64().ok_or_else(|| format!("{name}[{k}] must be a finite number")))
            .collect()
    }

    /// Decodes a fixed-length array of `u64`s (exact, no float detour).
    pub fn parse_u64_vec(v: &JsonValue, name: &str, len: usize) -> Result<Vec<u64>, String> {
        let arr = v.as_arr().ok_or_else(|| format!("{name} must be an array"))?;
        if arr.len() != len {
            return Err(format!("{name} must have {len} elements, got {}", arr.len()));
        }
        arr.iter()
            .enumerate()
            .map(|(k, x)| {
                x.as_u64()
                    .ok_or_else(|| format!("{name}[{k}] must be a non-negative integer"))
            })
            .collect()
    }

    /// Decodes a required `u64` field.
    pub fn parse_u64(v: &JsonValue, name: &str) -> Result<u64, String> {
        field(v, name)?
            .as_u64()
            .ok_or_else(|| format!("{name} must be a non-negative integer"))
    }
}

/// Shared helper: hold `current` under the mask — keep it if feasible,
/// otherwise fall back to the lowest feasible pair, or `(0, 0)` when the
/// mask is empty (the caller counts the fallback).
pub(crate) fn hold_masked(
    current: (usize, usize),
    n_core: usize,
    n_mem: usize,
    feasible: &dyn Fn(usize, usize) -> bool,
) -> Option<(usize, usize)> {
    if feasible(current.0, current.1) {
        return Some(current);
    }
    (0..n_core)
        .flat_map(|i| (0..n_mem).map(move |j| (i, j)))
        .find(|&(i, j)| feasible(i, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_keeps_feasible_current_and_degrades_in_order() {
        assert_eq!(hold_masked((1, 2), 2, 3, &|_, _| true), Some((1, 2)));
        assert_eq!(hold_masked((1, 2), 2, 3, &|i, j| i == 0 && j == 1), Some((0, 1)));
        assert_eq!(hold_masked((1, 2), 2, 3, &|_, _| false), None);
    }
}
