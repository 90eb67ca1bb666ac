//! # greengpu-phase — online phase-change detection over utilization streams
//!
//! ML-training workloads cycle through forward/backward/optimizer phases
//! with sharply different compute/memory intensity (arXiv 2201.01684), so
//! a learner that conditions on *which* phase is running converges per
//! phase instead of averaging across them. This crate provides the
//! context signal: an online, deterministic [`PhaseDetector`] that turns
//! the `(u_core, u_mem)` stream every controller already observes into a
//! small discrete [`PhaseId`], plus a [`PhaseTracker`] measurement
//! harness scoring detection lag and false positives against announced
//! ground truth.
//!
//! The detector is a windowed mean-shift test with a phase *library*:
//!
//! 1. a ring buffer holds the last `window` observations;
//! 2. when the window mean drifts more than `threshold` (L1) from the
//!    current phase's signature and the detector has dwelt at least
//!    `min_dwell` ticks, a change fires;
//! 3. the new window mean is matched against the library of known phase
//!    signatures — a recurring phase (training's forward pass coming
//!    around again) is assigned its *existing* [`PhaseId`], and only a
//!    genuinely new signature allocates a fresh id (capped at
//!    `max_phases`, after which the nearest known phase absorbs it).
//!
//! Like every estimator in the suite the detector is hold-on-invalid:
//! a non-finite observation changes nothing and is counted. There is no
//! RNG anywhere — the emitted id sequence is a pure function of the
//! observation sequence.

#![forbid(unsafe_code)]

use greengpu_sim::JsonValue;

/// A small discrete phase label. Ids are dense (`0, 1, 2, …`) in order
/// of first appearance, so they index per-phase state tables directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhaseId(pub usize);

impl PhaseId {
    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Detector tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseDetectorParams {
    /// Observations per mean-shift window (≥ 1).
    pub window: usize,
    /// L1 distance in utilization units the window mean must drift from
    /// the current phase signature before a change fires (> 0). The two
    /// utilization axes contribute equally.
    pub threshold: f64,
    /// Minimum ticks between consecutive change decisions (≥ 1);
    /// suppresses re-triggering while the window still straddles a
    /// boundary. Values below `window` admit changes from mixed windows.
    pub min_dwell: usize,
    /// Library capacity: the maximum number of distinct [`PhaseId`]s
    /// ever emitted (≥ 1). Once full, unseen signatures map to the
    /// nearest known phase. 1 disables detection entirely (every tick is
    /// phase 0) — the detector-off ablation.
    pub max_phases: usize,
}

impl Default for PhaseDetectorParams {
    fn default() -> Self {
        // Sized for 3 s control intervals over training-style phases
        // lasting a handful of intervals: a 2-tick window keeps the
        // detection lag (and so the misrouted-interval cost under the
        // heavily perf-weighted Table-I loss) to a single interval,
        // while the purity gate and the 0.2 L1 threshold — well below
        // the ~0.5+ signature gaps between compute-heavy and
        // memory-heavy training stages, above within-phase jitter —
        // suppress boundary-straddling windows.
        PhaseDetectorParams {
            window: 2,
            threshold: 0.2,
            min_dwell: 2,
            max_phases: 8,
        }
    }
}

impl PhaseDetectorParams {
    /// The detector-off ablation: one phase forever, nothing ever fires.
    pub fn disabled() -> Self {
        PhaseDetectorParams {
            max_phases: 1,
            ..PhaseDetectorParams::default()
        }
    }

    /// Non-panicking range check naming the offending field.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("window must be at least 1".to_string());
        }
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return Err(format!("threshold must be finite and > 0, got {}", self.threshold));
        }
        if self.min_dwell == 0 {
            return Err("min_dwell must be at least 1".to_string());
        }
        if self.max_phases == 0 {
            return Err("max_phases must be at least 1".to_string());
        }
        Ok(())
    }
}

/// Online windowed mean-shift phase detector with a recurring-phase
/// library. See the crate docs for the algorithm.
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    params: PhaseDetectorParams,
    /// Ring buffer of the last `window` clamped observations.
    buf: Vec<(f64, f64)>,
    /// Valid entries in `buf` (saturates at `window`).
    filled: usize,
    /// Next write position in `buf`.
    pos: usize,
    /// Known phase signatures, indexed by [`PhaseId`]; frozen at the
    /// window mean that first established each phase.
    centroids: Vec<(f64, f64)>,
    /// The phase currently being emitted.
    current: usize,
    /// Ticks since the last change decision (or since start).
    dwell: usize,
    ticks: u64,
    changes: u64,
    invalid_held: u64,
}

/// L1 distance between two utilization points.
fn l1(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

impl PhaseDetector {
    /// Builds a detector, rejecting invalid parameters with the field
    /// name.
    pub fn new(params: PhaseDetectorParams) -> Result<Self, String> {
        params.try_validate()?;
        Ok(PhaseDetector {
            params,
            buf: vec![(0.0, 0.0); params.window],
            filled: 0,
            pos: 0,
            centroids: Vec::new(),
            current: 0,
            dwell: 0,
            ticks: 0,
            changes: 0,
            invalid_held: 0,
        })
    }

    /// The detector's parameters.
    pub fn params(&self) -> PhaseDetectorParams {
        self.params
    }

    /// The phase currently being emitted.
    pub fn current(&self) -> PhaseId {
        PhaseId(self.current)
    }

    /// Distinct phases discovered so far (0 before the first full
    /// window).
    pub fn n_phases(&self) -> usize {
        self.centroids.len()
    }

    /// The frozen signature of `id`, if discovered.
    pub fn signature(&self, id: PhaseId) -> Option<(f64, f64)> {
        self.centroids.get(id.0).copied()
    }

    /// Valid observations processed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Phase-change decisions fired.
    pub fn changes(&self) -> u64 {
        self.changes
    }

    /// Non-finite observations held (state untouched).
    pub fn invalid_held(&self) -> u64 {
        self.invalid_held
    }

    /// Mean of the valid window entries.
    fn window_mean(&self) -> (f64, f64) {
        let mut c = 0.0;
        let mut m = 0.0;
        for &(uc, um) in &self.buf[..self.filled] {
            c += uc;
            m += um;
        }
        let n = self.filled.max(1) as f64;
        (c / n, m / n)
    }

    /// One observation: classify the tick and return the phase to
    /// condition on. Non-finite inputs change nothing (hold-on-invalid).
    pub fn observe(&mut self, u_core: f64, u_mem: f64) -> PhaseId {
        if !(u_core.is_finite() && u_mem.is_finite()) {
            self.invalid_held += 1;
            return PhaseId(self.current);
        }
        let point = (u_core.clamp(0.0, 1.0), u_mem.clamp(0.0, 1.0));
        self.buf[self.pos] = point;
        self.pos = (self.pos + 1) % self.params.window;
        self.filled = (self.filled + 1).min(self.params.window);
        self.ticks = self.ticks.saturating_add(1);
        self.dwell = self.dwell.saturating_add(1);
        // Fast path: *re-recognizing* a known phase needs only one
        // sample. When the newest observation alone has left the
        // current signature and lies within the threshold of a
        // different known centroid, switch immediately — recurring
        // phases (training's cyclic stages) are re-entered with zero
        // lag, so the interval at a boundary is already routed to the
        // right per-phase learner. Discovering a *new* phase below
        // still demands a pure window.
        if self.dwell >= self.params.min_dwell
            && !self.centroids.is_empty()
            && l1(point, self.centroids[self.current]) > self.params.threshold
        {
            let mut nearest = self.current;
            let mut nearest_d = f64::INFINITY;
            for (k, &c) in self.centroids.iter().enumerate() {
                if k == self.current {
                    continue;
                }
                let d = l1(point, c);
                if d < nearest_d {
                    nearest_d = d;
                    nearest = k;
                }
            }
            if nearest_d <= self.params.threshold {
                self.current = nearest;
                self.changes = self.changes.saturating_add(1);
                self.dwell = 0;
                return PhaseId(self.current);
            }
        }
        if self.filled < self.params.window {
            return PhaseId(self.current); // warm-up: no signature yet
        }
        let mean = self.window_mean();
        // A window that straddles a phase boundary has a mean that
        // belongs to neither side; acting on it would freeze a spurious
        // "transition" centroid and double-fire per boundary. Only
        // classify when the window is pure: every point within the
        // threshold of the window mean.
        let pure = self.buf.iter().all(|&p| l1(p, mean) <= self.params.threshold);
        if self.centroids.is_empty() {
            if pure {
                // The first pure window establishes phase 0.
                self.centroids.push(mean);
            }
            return PhaseId(self.current);
        }
        let drift = l1(mean, self.centroids[self.current]);
        if pure && drift > self.params.threshold && self.dwell >= self.params.min_dwell {
            let next = self.classify(mean);
            if next != self.current {
                self.current = next;
                self.changes = self.changes.saturating_add(1);
            }
            self.dwell = 0;
        }
        PhaseId(self.current)
    }

    /// Maps a drifted window mean to a phase id: reuse the nearest known
    /// signature within the threshold, allocate a new id while the
    /// library has room, otherwise absorb into the nearest known phase.
    fn classify(&mut self, mean: (f64, f64)) -> usize {
        let mut nearest = self.current;
        let mut nearest_d = f64::INFINITY;
        for (k, &c) in self.centroids.iter().enumerate() {
            let d = l1(mean, c);
            if d < nearest_d {
                nearest_d = d;
                nearest = k;
            }
        }
        if nearest_d <= self.params.threshold {
            return nearest; // a recurring phase
        }
        if self.centroids.len() < self.params.max_phases {
            self.centroids.push(mean);
            return self.centroids.len() - 1;
        }
        nearest
    }

    /// Resets all state (library included) and counters.
    pub fn reset(&mut self) {
        self.buf.iter_mut().for_each(|p| *p = (0.0, 0.0));
        self.filled = 0;
        self.pos = 0;
        self.centroids.clear();
        self.current = 0;
        self.dwell = 0;
        self.ticks = 0;
        self.changes = 0;
        self.invalid_held = 0;
    }

    /// Serializes the decision-relevant state (window contents, library,
    /// current phase, dwell). Counters are telemetry and excluded — a
    /// restored detector classifies identically but reports fresh
    /// counts.
    pub fn snapshot(&self) -> JsonValue {
        self.state().snapshot()
    }

    /// A typed copy of the state [`PhaseDetector::snapshot`] serializes.
    pub fn state(&self) -> DetectorState {
        DetectorState {
            buf: self.buf.clone(),
            filled: self.filled,
            pos: self.pos,
            centroids: self.centroids.clone(),
            current: self.current,
            dwell: self.dwell,
        }
    }

    /// Restores a state captured by [`PhaseDetector::state`] on a
    /// detector with the same parameters. A state whose window or library
    /// does not fit this detector is rejected before anything mutates.
    pub fn set_state(&mut self, state: &DetectorState) -> Result<(), String> {
        if state.buf.len() != self.buf.len() || state.centroids.len() > self.params.max_phases {
            return Err(format!(
                "detector state (window {}, {} phases) does not fit window {}, max_phases {}",
                state.buf.len(),
                state.centroids.len(),
                self.buf.len(),
                self.params.max_phases
            ));
        }
        self.buf.clone_from(&state.buf);
        self.centroids.clone_from(&state.centroids);
        self.filled = state.filled;
        self.pos = state.pos;
        self.current = state.current;
        self.dwell = state.dwell;
        Ok(())
    }

    /// Restores a [`PhaseDetector::snapshot`]. Validates fully before
    /// mutating, naming the offending field, so a failed restore leaves
    /// the detector unchanged.
    pub fn restore(&mut self, state: &JsonValue) -> Result<(), String> {
        let buf = parse_points(state, "buf", Some(self.params.window))?;
        let centroids = parse_points(state, "centroids", None)?;
        let filled = parse_index(state, "filled")?;
        let pos = parse_index(state, "pos")?;
        let current = parse_index(state, "current")?;
        let dwell = parse_index(state, "dwell")?;
        if filled > self.params.window {
            return Err(format!("filled = {filled} exceeds window {}", self.params.window));
        }
        if pos >= self.params.window {
            return Err(format!("pos = {pos} out of window {}", self.params.window));
        }
        if centroids.len() > self.params.max_phases {
            return Err(format!(
                "centroids has {} phases, max_phases is {}",
                centroids.len(),
                self.params.max_phases
            ));
        }
        if current >= centroids.len().max(1) {
            return Err(format!("current = {current} out of {} phases", centroids.len()));
        }
        self.buf = buf;
        self.centroids = centroids;
        self.filled = filled;
        self.pos = pos;
        self.current = current;
        self.dwell = dwell;
        Ok(())
    }
}

/// The decision-relevant state of a [`PhaseDetector`] (its counters
/// excluded), held typed: what [`PhaseDetector::snapshot`] serializes.
#[derive(Debug)]
pub struct DetectorState {
    buf: Vec<(f64, f64)>,
    filled: usize,
    pos: usize,
    centroids: Vec<(f64, f64)>,
    current: usize,
    dwell: usize,
}

impl DetectorState {
    /// The JSON wire form of this state.
    pub fn snapshot(&self) -> JsonValue {
        let flat = |pts: &[(f64, f64)]| -> Vec<f64> { pts.iter().flat_map(|&(a, b)| [a, b]).collect() };
        JsonValue::Obj(vec![
            ("buf".to_string(), JsonValue::f64_array(&flat(&self.buf))),
            ("filled".to_string(), JsonValue::usize(self.filled)),
            ("pos".to_string(), JsonValue::usize(self.pos)),
            ("centroids".to_string(), JsonValue::f64_array(&flat(&self.centroids))),
            ("current".to_string(), JsonValue::usize(self.current)),
            ("dwell".to_string(), JsonValue::usize(self.dwell)),
        ])
    }
}

/// Decodes a flattened `(f64, f64)` point list, optionally of fixed
/// length.
fn parse_points(state: &JsonValue, name: &str, want_len: Option<usize>) -> Result<Vec<(f64, f64)>, String> {
    let v = state
        .get(name)
        .ok_or_else(|| format!("snapshot missing field {name:?}"))?;
    let arr = v.as_arr().ok_or_else(|| format!("{name} must be an array"))?;
    if arr.len() % 2 != 0 {
        return Err(format!("{name} must have an even number of entries, got {}", arr.len()));
    }
    if let Some(want) = want_len {
        if arr.len() != 2 * want {
            return Err(format!("{name} must have {} entries, got {}", 2 * want, arr.len()));
        }
    }
    let mut flat = Vec::with_capacity(arr.len());
    for (k, x) in arr.iter().enumerate() {
        flat.push(
            x.as_f64()
                .ok_or_else(|| format!("{name}[{k}] must be a finite number"))?,
        );
    }
    Ok(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

/// Decodes a non-negative integer field as a `usize`.
fn parse_index(state: &JsonValue, name: &str) -> Result<usize, String> {
    state
        .get(name)
        .ok_or_else(|| format!("snapshot missing field {name:?}"))?
        .as_usize()
        .ok_or_else(|| format!("{name} must be a non-negative integer"))
}

/// Measurement harness around a [`PhaseDetector`]: feed it the same
/// observations the detector sees, announce ground-truth phase changes
/// as they happen, and read back detection lag and false-positive
/// counts. Used by the synthetic-trace tests and the `training`
/// experiment's detector-quality table.
#[derive(Debug, Clone)]
pub struct PhaseTracker {
    detector: PhaseDetector,
    tick: u64,
    /// Announced true changes not yet matched by a detection (tick
    /// stamps, oldest first).
    pending: Vec<u64>,
    true_changes: u64,
    detected_changes: u64,
    matched: u64,
    total_lag_ticks: u64,
    false_positives: u64,
}

impl PhaseTracker {
    /// Wraps a detector.
    pub fn new(detector: PhaseDetector) -> Self {
        PhaseTracker {
            detector,
            tick: 0,
            pending: Vec::new(),
            true_changes: 0,
            detected_changes: 0,
            matched: 0,
            total_lag_ticks: 0,
            false_positives: 0,
        }
    }

    /// The wrapped detector.
    pub fn detector(&self) -> &PhaseDetector {
        &self.detector
    }

    /// Announces that the *next* observation comes from a new true
    /// phase.
    pub fn note_true_change(&mut self) {
        self.pending.push(self.tick);
        self.true_changes = self.true_changes.saturating_add(1);
    }

    /// One observation; classifies the tick and scores any detection
    /// against the pending ground truth.
    pub fn observe(&mut self, u_core: f64, u_mem: f64) -> PhaseId {
        self.tick = self.tick.saturating_add(1);
        let before = self.detector.changes();
        let id = self.detector.observe(u_core, u_mem);
        if self.detector.changes() > before {
            self.detected_changes = self.detected_changes.saturating_add(1);
            if self.pending.is_empty() {
                self.false_positives = self.false_positives.saturating_add(1);
            } else {
                // A detection clears the whole backlog — it means the
                // detector caught up; lag is measured to the *oldest*
                // outstanding change.
                let announced = self.pending[0];
                self.total_lag_ticks = self.total_lag_ticks.saturating_add(self.tick - announced);
                self.matched = self.matched.saturating_add(self.pending.len() as u64);
                self.pending.clear();
            }
        }
        id
    }

    /// Announced true changes.
    pub fn true_changes(&self) -> u64 {
        self.true_changes
    }

    /// Detector change decisions.
    pub fn detected_changes(&self) -> u64 {
        self.detected_changes
    }

    /// Detections with no outstanding true change.
    pub fn false_positives(&self) -> u64 {
        self.false_positives
    }

    /// True changes never matched by a detection (so far).
    pub fn missed(&self) -> u64 {
        self.pending.len() as u64
    }

    /// Mean ticks from an announced change to the detection that
    /// cleared it (0 when nothing has matched).
    pub fn mean_lag_ticks(&self) -> f64 {
        if self.matched == 0 {
            0.0
        } else {
            self.total_lag_ticks as f64 / self.matched as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> PhaseDetector {
        PhaseDetector::new(PhaseDetectorParams::default()).expect("valid default params")
    }

    /// A synthetic step trace: `reps` ticks at each signature, cycling.
    fn step_trace(signatures: &[(f64, f64)], reps: usize, cycles: usize) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        for _ in 0..cycles {
            for &s in signatures {
                for _ in 0..reps {
                    out.push(s);
                }
            }
        }
        out
    }

    const SIGS: [(f64, f64); 3] = [(0.8, 0.3), (0.3, 0.8), (0.15, 0.15)];

    #[test]
    fn bad_params_name_the_offending_field() {
        let bad = PhaseDetectorParams {
            window: 0,
            ..PhaseDetectorParams::default()
        };
        assert!(PhaseDetector::new(bad).unwrap_err().contains("window"));
        let bad = PhaseDetectorParams {
            threshold: f64::NAN,
            ..PhaseDetectorParams::default()
        };
        assert!(PhaseDetector::new(bad).unwrap_err().contains("threshold"));
        let bad = PhaseDetectorParams {
            min_dwell: 0,
            ..PhaseDetectorParams::default()
        };
        assert!(PhaseDetector::new(bad).unwrap_err().contains("min_dwell"));
        let bad = PhaseDetectorParams {
            max_phases: 0,
            ..PhaseDetectorParams::default()
        };
        assert!(PhaseDetector::new(bad).unwrap_err().contains("max_phases"));
    }

    #[test]
    fn detection_is_deterministic() {
        let trace = step_trace(&SIGS, 8, 3);
        let mut a = detector();
        let mut b = detector();
        for &(uc, um) in &trace {
            assert_eq!(a.observe(uc, um), b.observe(uc, um));
        }
        assert_eq!(a.changes(), b.changes());
    }

    #[test]
    fn step_trace_phases_are_detected_with_bounded_lag() {
        let mut d = detector();
        let mut ids = Vec::new();
        for &(uc, um) in &step_trace(&SIGS, 10, 2) {
            ids.push(d.observe(uc, um));
        }
        // All three signatures discovered, each segment's tail settled
        // on a stable id: the last 4 ticks of every 10-tick segment
        // agree.
        assert_eq!(d.n_phases(), 3);
        for seg in 0..6 {
            let tail: Vec<PhaseId> = ids[seg * 10 + 6..(seg + 1) * 10].to_vec();
            assert!(tail.windows(2).all(|w| w[0] == w[1]), "segment {seg} tail {tail:?}");
        }
    }

    #[test]
    fn recurring_phases_reuse_their_id() {
        let mut d = detector();
        let mut ids = Vec::new();
        for &(uc, um) in &step_trace(&SIGS, 10, 3) {
            ids.push(d.observe(uc, um));
        }
        // The id emitted at the end of each segment must repeat across
        // cycles — phase 0's second visit is labelled like its first.
        let settled = |seg: usize| ids[seg * 10 + 9];
        for seg in 0..3 {
            assert_eq!(settled(seg), settled(seg + 3), "cycle 1 vs 2, stage {seg}");
            assert_eq!(settled(seg), settled(seg + 6), "cycle 1 vs 3, stage {seg}");
        }
        assert_eq!(d.n_phases(), 3, "library must not grow on revisits");
    }

    #[test]
    fn non_finite_observations_hold_state() {
        let mut a = detector();
        let mut b = detector();
        let trace = step_trace(&SIGS, 8, 1);
        for (k, &(uc, um)) in trace.iter().enumerate() {
            a.observe(uc, um);
            b.observe(uc, um);
            if k % 3 == 0 {
                let before = b.current();
                assert_eq!(b.observe(f64::NAN, 0.5), before);
                assert_eq!(b.observe(0.5, f64::INFINITY), before);
            }
        }
        // b saw interleaved garbage but must end bit-identical to a.
        assert_eq!(a.current(), b.current());
        assert_eq!(a.n_phases(), b.n_phases());
        assert_eq!(a.changes(), b.changes());
        assert_eq!(b.invalid_held(), 16);
        assert_eq!(a.snapshot().to_string(), b.snapshot().to_string());
    }

    #[test]
    fn max_phases_caps_the_library() {
        let params = PhaseDetectorParams {
            max_phases: 2,
            ..PhaseDetectorParams::default()
        };
        let mut d = PhaseDetector::new(params).expect("valid params");
        for &(uc, um) in &step_trace(&SIGS, 10, 2) {
            let id = d.observe(uc, um);
            assert!(id.index() < 2, "id {id:?} escaped the cap");
        }
        assert_eq!(d.n_phases(), 2);
    }

    #[test]
    fn disabled_detector_never_changes_phase() {
        let mut d = PhaseDetector::new(PhaseDetectorParams::disabled()).expect("valid params");
        for &(uc, um) in &step_trace(&SIGS, 10, 3) {
            assert_eq!(d.observe(uc, um), PhaseId(0));
        }
        assert_eq!(d.changes(), 0, "one-phase library cannot fire a change");
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact() {
        let trace = step_trace(&SIGS, 7, 2);
        let mut a = detector();
        for &(uc, um) in &trace[..30] {
            a.observe(uc, um);
        }
        let snap = a.snapshot();
        let mut b = detector();
        b.restore(&snap).expect("restore own snapshot");
        assert_eq!(snap.to_string(), b.snapshot().to_string(), "round trip must be exact");
        for &(uc, um) in &trace[30..] {
            assert_eq!(a.observe(uc, um), b.observe(uc, um), "futures must agree");
        }
    }

    #[test]
    fn restore_rejects_garbage_naming_the_field() {
        let mut d = detector();
        let err = d.restore(&JsonValue::Obj(vec![])).unwrap_err();
        assert!(err.contains("buf"), "{err}");
        let mut bad = detector();
        bad.observe(0.5, 0.5);
        let mut tampered = bad.snapshot();
        if let JsonValue::Obj(fields) = &mut tampered {
            for (k, v) in fields.iter_mut() {
                if k == "pos" {
                    *v = JsonValue::usize(99);
                }
            }
        }
        let err = d.restore(&tampered).unwrap_err();
        assert!(err.contains("pos"), "{err}");
    }

    #[test]
    fn reset_restores_the_initial_state() {
        let mut d = detector();
        for &(uc, um) in &step_trace(&SIGS, 8, 1) {
            d.observe(uc, um);
        }
        assert!(d.n_phases() > 0);
        d.reset();
        assert_eq!(d.n_phases(), 0);
        assert_eq!(d.ticks(), 0);
        let fresh = detector();
        assert_eq!(d.snapshot().to_string(), fresh.snapshot().to_string());
    }

    #[test]
    fn tracker_scores_lag_and_false_positives() {
        let mut t = PhaseTracker::new(detector());
        // Two true segments with an announced boundary.
        for _ in 0..12 {
            t.observe(0.8, 0.3);
        }
        t.note_true_change();
        for _ in 0..12 {
            t.observe(0.2, 0.8);
        }
        assert_eq!(t.true_changes(), 1);
        assert_eq!(t.detected_changes(), 1, "the step must be detected");
        assert_eq!(t.false_positives(), 0);
        assert_eq!(t.missed(), 0);
        let lag = t.mean_lag_ticks();
        assert!((1.0..=6.0).contains(&lag), "lag {lag} outside the window+dwell bound");
    }

    #[test]
    fn tracker_counts_unannounced_detections_as_false_positives() {
        let mut t = PhaseTracker::new(detector());
        for _ in 0..10 {
            t.observe(0.8, 0.3);
        }
        // A real shift the harness never announced.
        for _ in 0..10 {
            t.observe(0.2, 0.8);
        }
        assert_eq!(t.detected_changes(), 1);
        assert_eq!(t.false_positives(), 1);
    }
}
