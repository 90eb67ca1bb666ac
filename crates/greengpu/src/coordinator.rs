//! The two-tier GreenGPU controller (paper §IV, Fig. 3).
//!
//! Wires the WMA GPU scaler, the ondemand CPU governor, and the division
//! controller into one [`Controller`] the runtime can drive. The frequency
//! scaling tier runs on a short fixed period (3 s in the paper's trace);
//! the division tier runs once per iteration, which the workloads size to
//! be ≳ 40× longer so the DVFS loop settles inside each division interval
//! and the tiers do not destructively interact.

use crate::division::{DivisionController, DivisionParams, DivisionState, ModelBasedDivision};
use crate::governors::CpuGovernor;
use crate::policy::WmaPolicy;
use crate::wma::{WmaParams, WmaScaler};
use greengpu_hw::{
    CleanSensors, DirectActuator, FaultPlan, FaultyActuator, FaultySensor, FreqActuator, Platform, SensorSource,
};
use greengpu_policy::{FreqPolicy, LearnerState, PolicyTelemetry};
use greengpu_runtime::{Controller, IterationInfo};
use greengpu_sim::{SimDuration, SimTime};

/// Format version written into every controller checkpoint; restores
/// reject any other version (bump on incompatible schema changes).
/// Version 2: the contextual policies' nested detector/inner snapshots
/// joined the policy-state schema.
pub const CHECKPOINT_VERSION: u64 = 2;

/// A controller's learner state held typed in memory — the policy's warm
/// state and the step-wise division state, telemetry excluded. The
/// versioned JSON wire form is rendered only on export
/// ([`LearnerCheckpoint::snapshot`]); restores from outside go through
/// the strict [`GreenGpuController::restore`].
pub struct LearnerCheckpoint {
    policy: String,
    state: Box<dyn LearnerState>,
    division: Option<DivisionState>,
}

impl LearnerCheckpoint {
    /// The versioned JSON checkpoint string: byte-identical to what
    /// [`GreenGpuController::snapshot`] returned when this was captured.
    pub fn snapshot(&self) -> String {
        use greengpu_sim::JsonValue;
        JsonValue::Obj(vec![
            ("version".to_string(), JsonValue::u64(CHECKPOINT_VERSION)),
            ("policy".to_string(), JsonValue::str(&self.policy)),
            ("state".to_string(), self.state.snapshot()),
            (
                "division".to_string(),
                self.division.map_or(JsonValue::Null, |d| d.snapshot()),
            ),
        ])
        .to_string()
    }
}

/// Which division algorithm tier 1 runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivisionAlgo {
    /// The paper's one-step-per-iteration heuristic with the oscillation
    /// safeguard (§V-B).
    Stepwise,
    /// The Qilin-style model jump: calibrate on the first iteration, jump
    /// to the predicted balance, then refine step-wise (the §V-B
    /// "sophisticated global algorithm" integration).
    ModelBased,
}

/// Which CPU governor tier 2 runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GovernorKind {
    /// The paper's choice: the Linux ondemand governor.
    Ondemand,
    /// Pin the peak P-state.
    Performance,
    /// Pin the lowest P-state.
    Powersave,
    /// The Linux conservative governor (one step per sample).
    Conservative,
    /// Utilization-proportional selection (Wu et al.-style).
    Proportional,
}

impl GovernorKind {
    fn build(self) -> CpuGovernor {
        match self {
            GovernorKind::Ondemand => CpuGovernor::default(),
            GovernorKind::Performance => CpuGovernor::Performance,
            GovernorKind::Powersave => CpuGovernor::Powersave,
            GovernorKind::Conservative => CpuGovernor::conservative(),
            GovernorKind::Proportional => CpuGovernor::proportional(),
        }
    }
}

/// Hardening knobs: how the controller reacts to sensor garbage and
/// failed actuations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessParams {
    /// Read-back verification retries per actuation before it counts as
    /// failed.
    pub max_retries: u32,
    /// Consecutive failed actuations before the controller falls back to
    /// best-performance (peak clocks, division frozen).
    pub fallback_after: u32,
}

impl Default for RobustnessParams {
    fn default() -> Self {
        RobustnessParams {
            max_retries: 2,
            fallback_after: 5,
        }
    }
}

/// Which tiers are enabled — the axes of the paper's §VII comparisons.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreenGpuConfig {
    /// Tier-1 workload division on/off.
    pub division: bool,
    /// Tier-2 GPU core+memory scaling on/off.
    pub gpu_scaling: bool,
    /// Tier-2 CPU ondemand governor on/off.
    pub cpu_scaling: bool,
    /// Initial CPU share for the division tier (paper traces use 30 %).
    pub initial_share: f64,
    /// Frequency-scaling invocation period (paper trace: 3 s).
    pub dvfs_period: SimDuration,
    /// Division tuning.
    pub division_params: DivisionParams,
    /// WMA tuning.
    pub wma_params: WmaParams,
    /// Division algorithm (paper heuristic or model-based jump).
    pub division_algo: DivisionAlgo,
    /// CPU governor (the paper uses ondemand).
    pub governor: GovernorKind,
    /// Sensor/actuation hardening knobs.
    pub robustness: RobustnessParams,
}

impl Default for GreenGpuConfig {
    fn default() -> Self {
        GreenGpuConfig {
            division: true,
            gpu_scaling: true,
            cpu_scaling: true,
            initial_share: 0.30,
            dvfs_period: SimDuration::from_secs(3),
            division_params: DivisionParams::default(),
            wma_params: WmaParams::default(),
            division_algo: DivisionAlgo::Stepwise,
            governor: GovernorKind::Ondemand,
            robustness: RobustnessParams::default(),
        }
    }
}

impl GreenGpuConfig {
    /// The full holistic configuration (both tiers).
    pub fn holistic() -> Self {
        GreenGpuConfig::default()
    }

    /// Division tier only — the paper's *Division* baseline (frequency
    /// scaling disabled; clocks stay wherever the platform pinned them).
    pub fn division_only() -> Self {
        GreenGpuConfig {
            gpu_scaling: false,
            cpu_scaling: false,
            ..GreenGpuConfig::default()
        }
    }

    /// Frequency-scaling tier only — the paper's *Frequency-scaling*
    /// baseline (all work stays on the GPU).
    pub fn scaling_only() -> Self {
        GreenGpuConfig {
            division: false,
            initial_share: 0.0,
            ..GreenGpuConfig::default()
        }
    }
}

/// Tier-1 implementation selected by [`DivisionAlgo`].
enum DivisionImpl {
    Stepwise(DivisionController),
    ModelBased(ModelBasedDivision),
}

impl DivisionImpl {
    fn update(&mut self, tc: f64, tg: f64) -> f64 {
        match self {
            DivisionImpl::Stepwise(c) => c.update(tc, tg),
            DivisionImpl::ModelBased(c) => c.update(tc, tg),
        }
    }

    fn share(&self) -> f64 {
        match self {
            DivisionImpl::Stepwise(c) => c.share(),
            DivisionImpl::ModelBased(c) => c.share(),
        }
    }
}

/// The assembled two-tier controller.
///
/// Sensing and actuation go through the [`SensorSource`]/[`FreqActuator`]
/// seam, so the same controller runs against the clean testbed or a
/// fault-injected one. The controller is hardened against bad providers:
/// non-finite utilizations are rejected (holding the last-known-good
/// sample), out-of-range ones are clamped, division updates ignore
/// degenerate iteration times, and every actuation is verified by
/// read-back with bounded retry — after
/// [`RobustnessParams::fallback_after`] consecutive verification failures
/// the controller permanently falls back to best-performance (peak
/// clocks, division frozen) so a broken actuation path degrades to the
/// paper's default baseline instead of stranding low clocks.
pub struct GreenGpuController {
    config: GreenGpuConfig,
    /// The pluggable Tier-2 GPU frequency policy. Defaults to the
    /// paper's WMA scaler (via [`WmaPolicy`]); the policy constructors
    /// accept any [`FreqPolicy`] — switching-aware bandits, the
    /// deadline selector, or an external implementation.
    policy: Box<dyn FreqPolicy>,
    governor: CpuGovernor,
    division: DivisionImpl,
    sensors: Box<dyn SensorSource>,
    actuator: Box<dyn FreqActuator>,
    power_cap_w: Option<f64>,
    cap_masked_intervals: u64,
    last_good_gpu: Option<(f64, f64)>,
    last_good_cpu: Option<f64>,
    consecutive_failures: u32,
    fallback: bool,
    sensor_rejects: u64,
    actuation_failures: u64,
    actuation_retries: u64,
}

impl GreenGpuController {
    /// Builds a controller for a platform with `n_core`×`n_mem` GPU levels
    /// on clean (fault-free) sensors and actuation.
    pub fn new(config: GreenGpuConfig, n_core_levels: usize, n_mem_levels: usize) -> Self {
        GreenGpuController::with_providers(
            config,
            n_core_levels,
            n_mem_levels,
            Box::new(CleanSensors::new()),
            Box::new(DirectActuator),
        )
    }

    /// Builds a controller over explicit sensor/actuator providers,
    /// running the default WMA policy built from `config.wma_params`.
    pub fn with_providers(
        config: GreenGpuConfig,
        n_core_levels: usize,
        n_mem_levels: usize,
        sensors: Box<dyn SensorSource>,
        actuator: Box<dyn FreqActuator>,
    ) -> Self {
        let policy = Box::new(WmaPolicy::new(n_core_levels, n_mem_levels, config.wma_params));
        GreenGpuController::with_policy_providers(config, policy, sensors, actuator)
    }

    /// Builds a controller that drives an arbitrary [`FreqPolicy`] over
    /// explicit sensor/actuator providers — the pluggable Tier-2 seam.
    /// The policy's grid shape determines the level table the controller
    /// selects over; `config.wma_params` is ignored (the policy already
    /// carries its own tuning).
    pub fn with_policy_providers(
        config: GreenGpuConfig,
        policy: Box<dyn FreqPolicy>,
        sensors: Box<dyn SensorSource>,
        actuator: Box<dyn FreqActuator>,
    ) -> Self {
        let division = match config.division_algo {
            DivisionAlgo::Stepwise => {
                DivisionImpl::Stepwise(DivisionController::new(config.initial_share, config.division_params))
            }
            DivisionAlgo::ModelBased => {
                DivisionImpl::ModelBased(ModelBasedDivision::new(config.initial_share, config.division_params))
            }
        };
        GreenGpuController {
            policy,
            governor: config.governor.build(),
            division,
            sensors,
            actuator,
            power_cap_w: None,
            cap_masked_intervals: 0,
            last_good_gpu: None,
            last_good_cpu: None,
            consecutive_failures: 0,
            fallback: false,
            sensor_rejects: 0,
            actuation_failures: 0,
            actuation_retries: 0,
            config,
        }
    }

    /// Builds a controller whose sensors and actuation are wrapped in the
    /// seeded fault injectors configured by `plan`.
    pub fn faulted(config: GreenGpuConfig, n_core_levels: usize, n_mem_levels: usize, plan: &FaultPlan) -> Self {
        GreenGpuController::with_providers(
            config,
            n_core_levels,
            n_mem_levels,
            Box::new(FaultySensor::new(plan)),
            Box::new(FaultyActuator::new(plan)),
        )
    }

    /// Builds a controller driving an arbitrary policy on clean
    /// sensors/actuation.
    pub fn with_policy(config: GreenGpuConfig, policy: Box<dyn FreqPolicy>) -> Self {
        GreenGpuController::with_policy_providers(
            config,
            policy,
            Box::new(CleanSensors::new()),
            Box::new(DirectActuator),
        )
    }

    /// Builds a controller driving an arbitrary policy behind the seeded
    /// fault injectors configured by `plan`.
    pub fn with_policy_faulted(config: GreenGpuConfig, policy: Box<dyn FreqPolicy>, plan: &FaultPlan) -> Self {
        GreenGpuController::with_policy_providers(
            config,
            policy,
            Box::new(FaultySensor::new(plan)),
            Box::new(FaultyActuator::new(plan)),
        )
    }

    /// Builds a controller for the default 6×6 testbed.
    pub fn for_testbed(config: GreenGpuConfig) -> Self {
        GreenGpuController::new(config, 6, 6)
    }

    /// Builds a fault-injected controller for the default 6×6 testbed.
    pub fn for_testbed_faulted(config: GreenGpuConfig, plan: &FaultPlan) -> Self {
        GreenGpuController::faulted(config, 6, 6, plan)
    }

    /// The WMA scaler, when the active policy is the WMA adapter
    /// (inspection/tests); `None` under any other [`FreqPolicy`].
    pub fn wma(&self) -> Option<&WmaScaler> {
        self.policy.as_any().downcast_ref::<WmaPolicy>().map(WmaPolicy::scaler)
    }

    /// The active Tier-2 frequency policy.
    pub fn policy(&self) -> &dyn FreqPolicy {
        self.policy.as_ref()
    }

    /// The pair the active policy would enforce right now — what the
    /// cluster tier uses to estimate a node's desired power draw.
    pub fn desired_pair(&self) -> (usize, usize) {
        self.policy.preferred()
    }

    /// The active policy's per-interval telemetry (cumulative loss,
    /// switches, regret, fallback counts).
    pub fn policy_telemetry(&self) -> &PolicyTelemetry {
        self.policy.telemetry()
    }

    /// The step-wise division controller, when that algorithm is selected
    /// (inspection/tests).
    pub fn division(&self) -> Option<&DivisionController> {
        match &self.division {
            DivisionImpl::Stepwise(c) => Some(c),
            DivisionImpl::ModelBased(_) => None,
        }
    }

    /// The CPU governor (inspection/tests).
    pub fn governor(&self) -> &CpuGovernor {
        &self.governor
    }

    /// Serializes the controller's learner state — the Tier-2 policy's
    /// warm state plus the Tier-1 division ratio — as a versioned JSON
    /// checkpoint string. Sensor/actuator state, hardening counters, and
    /// telemetry are *not* checkpointed: a restarted node gets fresh
    /// providers and fresh counters, only the learned knowledge survives.
    pub fn snapshot(&self) -> String {
        self.learner_checkpoint().snapshot()
    }

    /// A typed, in-memory copy of the state [`Self::snapshot`]
    /// serializes, for checkpoints that stay inside the process: taking
    /// one copies the learner's tables instead of rendering JSON.
    pub fn learner_checkpoint(&self) -> LearnerCheckpoint {
        LearnerCheckpoint {
            policy: self.policy.name().to_string(),
            state: self.policy.learner(),
            division: match &self.division {
                DivisionImpl::Stepwise(c) => Some(c.state()),
                // The model-based jump recalibrates from its first
                // iteration; there is no warm state worth carrying
                // across a restart.
                DivisionImpl::ModelBased(_) => None,
            },
        }
    }

    /// Restores a checkpoint captured by [`Self::learner_checkpoint`] on
    /// a controller built from the same recipe. A checkpoint for another
    /// policy or division algorithm is rejected by name.
    pub fn load_learner_checkpoint(&mut self, checkpoint: &LearnerCheckpoint) -> Result<(), String> {
        if checkpoint.policy != self.policy.name() {
            return Err(format!(
                "checkpoint is for policy {:?}, controller runs {:?}",
                checkpoint.policy,
                self.policy.name()
            ));
        }
        if matches!(self.division, DivisionImpl::Stepwise(_)) != checkpoint.division.is_some() {
            return Err("checkpoint division state does not match the division algorithm".to_string());
        }
        self.policy.load_learner(checkpoint.state.as_ref())?;
        if let (DivisionImpl::Stepwise(c), Some(state)) = (&mut self.division, &checkpoint.division) {
            c.set_state(state);
        }
        Ok(())
    }

    /// Restores a checkpoint produced by [`GreenGpuController::snapshot`].
    ///
    /// Rejects (with a field-naming error) anything unparsable, any
    /// version other than [`CHECKPOINT_VERSION`], and a policy name that
    /// does not match the live policy. Each layer validates its value
    /// before mutating, so a rejected checkpoint leaves a *fresh*
    /// controller unchanged; on the node-restart path a failure means the
    /// whole controller is discarded for a cold start anyway, so partial
    /// restoration across layers is harmless.
    pub fn restore(&mut self, checkpoint: &str) -> Result<(), String> {
        use greengpu_policy::snap;
        use greengpu_sim::JsonValue;
        let v = JsonValue::parse(checkpoint)?;
        let version = snap::parse_u64(&v, "version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} is not the supported version {CHECKPOINT_VERSION}"
            ));
        }
        let name = snap::field(&v, "policy")?
            .as_str()
            .ok_or_else(|| "policy must be a string".to_string())?;
        if name != self.policy.name() {
            return Err(format!(
                "checkpoint is for policy {name:?}, controller runs {:?}",
                self.policy.name()
            ));
        }
        self.policy.restore(snap::field(&v, "state")?)?;
        let division = snap::field(&v, "division")?;
        match (&mut self.division, division.is_null()) {
            (DivisionImpl::Stepwise(c), false) => c.restore(division)?,
            (DivisionImpl::Stepwise(_), true) => {
                return Err("division must be present for a step-wise controller".to_string());
            }
            (DivisionImpl::ModelBased(_), true) => {}
            (DivisionImpl::ModelBased(_), false) => {
                return Err("division must be null for a model-based controller".to_string());
            }
        }
        Ok(())
    }

    /// Whether the best-performance fallback has engaged.
    pub fn fallback_engaged(&self) -> bool {
        self.fallback
    }

    /// Readings rejected as non-finite (held at last-known-good).
    pub fn sensor_rejects(&self) -> u64 {
        self.sensor_rejects
    }

    /// Actuations whose read-back never verified (after retries).
    pub fn actuation_failures(&self) -> u64 {
        self.actuation_failures
    }

    /// Total read-back verification retries issued.
    pub fn actuation_retries(&self) -> u64 {
        self.actuation_retries
    }

    /// Total faults injected by the providers (0 on clean providers).
    pub fn injection_count(&self) -> usize {
        self.sensors.injection_log().len() + self.actuator.injection_log().len()
    }

    /// The division tier's current CPU share.
    pub fn division_share(&self) -> f64 {
        self.division.share()
    }

    /// Sets (or clears) the GPU board power cap in watts.
    ///
    /// While a cap is set, each DVFS tick restricts the WMA argmax to
    /// frequency pairs whose modeled worst-case board power
    /// (`GpuSpec::power_at_levels_w(core, mem, 1.0, 1.0)`) fits under the
    /// cap. The WMA weight update itself still runs over the full table,
    /// so a transient cap never corrupts what the learner has learned.
    /// The cluster tier re-apportions a fleet budget into these per-node
    /// caps every control interval.
    ///
    /// The best-performance fallback deliberately ignores the cap: a node
    /// whose actuation path is broken pins peak clocks, and the cluster
    /// tier accounts for that as a cap violation and routes around it.
    pub fn set_power_cap_w(&mut self, cap: Option<f64>) {
        self.power_cap_w = cap;
    }

    /// The current GPU board power cap, if any.
    pub fn power_cap_w(&self) -> Option<f64> {
        self.power_cap_w
    }

    /// DVFS intervals in which the cap actually excluded at least one
    /// pair from the argmax (inspection/telemetry).
    pub fn cap_masked_intervals(&self) -> u64 {
        self.cap_masked_intervals
    }

    /// Issues a GPU reclock through the actuator and verifies it by
    /// read-back, retrying up to the configured bound; a persistent
    /// mismatch counts toward the fallback threshold.
    fn actuate_gpu_verified(&mut self, platform: &mut Platform, now: SimTime, core: usize, mem: usize) {
        let mut attempts = 0;
        loop {
            self.actuator.set_gpu_levels(platform, now, core, mem);
            let applied = platform.gpu().core().current_level() == core && platform.gpu().mem().current_level() == mem;
            if applied {
                self.consecutive_failures = 0;
                return;
            }
            if attempts >= self.config.robustness.max_retries {
                break;
            }
            attempts += 1;
            self.actuation_retries += 1;
        }
        self.record_actuation_failure();
    }

    /// Issues a CPU P-state change through the actuator with the same
    /// read-back verification.
    fn actuate_cpu_verified(&mut self, platform: &mut Platform, now: SimTime, level: usize) {
        let mut attempts = 0;
        loop {
            self.actuator.set_cpu_level(platform, now, level);
            if platform.cpu().domain().current_level() == level {
                self.consecutive_failures = 0;
                return;
            }
            if attempts >= self.config.robustness.max_retries {
                break;
            }
            attempts += 1;
            self.actuation_retries += 1;
        }
        self.record_actuation_failure();
    }

    fn record_actuation_failure(&mut self) {
        self.actuation_failures += 1;
        self.consecutive_failures += 1;
        if self.consecutive_failures >= self.config.robustness.fallback_after {
            self.fallback = true;
        }
    }

    /// Sense half of the GPU tick: poll, reject non-finite readings,
    /// clamp, and refresh the last-known-good window. Returns the
    /// utilizations a decision would consume (the fresh reading, or the
    /// held last-good on a lost poll).
    fn sense_gpu(&mut self, platform: &Platform, now: SimTime) -> Option<(f64, f64)> {
        let reading = self.sensors.poll_gpu(platform.gpu(), now);
        if reading.u_core.is_finite() && reading.u_mem.is_finite() {
            let good = (reading.u_core.clamp(0.0, 1.0), reading.u_mem.clamp(0.0, 1.0));
            self.last_good_gpu = Some(good);
            Some(good)
        } else {
            // Lost poll: hold the last-known-good window if any.
            self.sensor_rejects += 1;
            self.last_good_gpu
        }
    }

    /// Decide/actuate half of the GPU tick: build the cap mask, consult
    /// the policy, and enforce the chosen pair.
    fn decide_actuate_gpu(&mut self, platform: &mut Platform, now: SimTime, u_core: f64, u_mem: f64) {
        let (core_lvl, mem_lvl) = match self.power_cap_w {
            Some(cap) => {
                let spec = platform.gpu().spec();
                let n_core = spec.core_levels_mhz.len();
                let n_mem = spec.mem_levels_mhz.len();
                let feasible = |i: usize, j: usize| spec.power_at_levels_w(i, j, 1.0, 1.0) <= cap;
                let masked = (0..n_core).any(|i| (0..n_mem).any(|j| !feasible(i, j)));
                if masked {
                    self.cap_masked_intervals += 1;
                }
                self.policy.decide(u_core, u_mem, &feasible)
            }
            None => self.policy.decide(u_core, u_mem, &|_, _| true),
        };
        self.actuate_gpu_verified(platform, now, core_lvl, mem_lvl);
    }

    /// Sense half of the CPU tick, mirroring [`Self::sense_gpu`].
    fn sense_cpu(&mut self, platform: &Platform, now: SimTime) -> Option<f64> {
        let reading = self.sensors.poll_cpu(platform.cpu(), now);
        if reading.util.is_finite() {
            let good = reading.util.clamp(0.0, 1.0);
            self.last_good_cpu = Some(good);
            Some(good)
        } else {
            self.sensor_rejects += 1;
            self.last_good_cpu
        }
    }

    /// Govern half of the CPU tick: ask the governor for a target P-state
    /// and enforce it.
    fn govern_cpu(&mut self, platform: &mut Platform, now: SimTime, util: f64) {
        if let Some(level) = self.governor.desired_level(platform, util) {
            self.governor.note_transition();
            self.actuate_cpu_verified(platform, now, level);
        }
    }

    /// One DVFS tick on the event-driven fleet engine's *parked* fast
    /// path. Sensing always runs in full — the sensor windows (and
    /// reject counters) must advance exactly as on
    /// [`Controller::on_dvfs_tick`] — but the decide/actuate half of
    /// each domain is skipped when the freshly resolved utilization is
    /// bit-equal to the previous tick's. With the policy at a decision
    /// fixed point (certified by the caller via
    /// [`Self::decision_fingerprint`]) and an unchanged cap, the same
    /// observation reproduces the same weights and the same (already
    /// enforced) levels, so the skip is an identity. The moment either
    /// domain resolves anything else, its full half runs and `false`
    /// comes back so the caller un-parks the node.
    ///
    /// Returns `true` when both domains skipped (the node may stay
    /// parked).
    pub fn on_dvfs_tick_quiescent(&mut self, platform: &mut Platform, now: SimTime) -> bool {
        if self.fallback {
            // Fallback re-pins peak clocks every tick; never quiescent.
            self.on_dvfs_tick(platform, now);
            return false;
        }
        let mut quiet = true;
        if self.config.gpu_scaling {
            let prev = self.last_good_gpu;
            let utils = self.sense_gpu(platform, now);
            if let Some((u_core, u_mem)) = utils {
                if prev != utils {
                    quiet = false;
                    self.decide_actuate_gpu(platform, now, u_core, u_mem);
                }
            }
        }
        if self.config.cpu_scaling && !self.fallback {
            let prev = self.last_good_cpu;
            let util = self.sense_cpu(platform, now);
            if let Some(util) = util {
                if prev != Some(util) {
                    quiet = false;
                    self.govern_cpu(platform, now, util);
                }
            }
        }
        quiet
    }

    /// A bit-exact fingerprint of every piece of controller state that
    /// can influence a future decision, or `None` when no fixed point
    /// can be certified (fallback engaged, or the policy declines — see
    /// [`FreqPolicy::decision_fingerprint`]). The fleet's event-driven
    /// engine parks a node only after two consecutive identical
    /// fingerprints, then drives it with
    /// [`Self::on_dvfs_tick_quiescent`].
    pub fn decision_fingerprint(&self) -> Option<u64> {
        if self.fallback {
            return None;
        }
        let policy_fp = self.policy.decision_fingerprint()?;
        let mut h = greengpu_sim::Fnv64::new();
        h.push_u64(policy_fp);
        match self.last_good_gpu {
            Some((c, m)) => {
                h.push_bool(true);
                h.push_f64(c);
                h.push_f64(m);
            }
            None => h.push_bool(false),
        }
        match self.last_good_cpu {
            Some(u) => {
                h.push_bool(true);
                h.push_f64(u);
            }
            None => h.push_bool(false),
        }
        h.push_u64(u64::from(self.consecutive_failures));
        match self.power_cap_w {
            Some(cap) => {
                h.push_bool(true);
                h.push_f64(cap);
            }
            None => h.push_bool(false),
        }
        Some(h.finish())
    }
}

impl Controller for GreenGpuController {
    fn initial_share(&self) -> f64 {
        if self.config.division {
            self.config.initial_share
        } else {
            0.0
        }
    }

    fn checkpoint(&self) -> Option<String> {
        Some(self.snapshot())
    }

    fn restore_checkpoint(&mut self, checkpoint: &str) -> Result<(), String> {
        self.restore(checkpoint)
    }

    fn dvfs_period(&self) -> Option<SimDuration> {
        if self.config.gpu_scaling || self.config.cpu_scaling {
            Some(self.config.dvfs_period)
        } else {
            None
        }
    }

    fn on_dvfs_tick(&mut self, platform: &mut Platform, now: SimTime) {
        if self.fallback {
            // Best-performance fallback: keep commanding peak clocks in
            // case the actuation path recovers intermittently; decisions
            // no longer consume (possibly garbage) sensor data.
            let core_peak = platform.gpu().core().peak_level();
            let mem_peak = platform.gpu().mem().peak_level();
            self.actuator.set_gpu_levels(platform, now, core_peak, mem_peak);
            let cpu_peak = platform.cpu().domain().peak_level();
            self.actuator.set_cpu_level(platform, now, cpu_peak);
            return;
        }
        if self.config.gpu_scaling {
            if let Some((u_core, u_mem)) = self.sense_gpu(platform, now) {
                self.decide_actuate_gpu(platform, now, u_core, u_mem);
            }
        }
        if self.config.cpu_scaling && !self.fallback {
            if let Some(util) = self.sense_cpu(platform, now) {
                self.govern_cpu(platform, now, util);
            }
        }
    }

    fn on_iteration_end(&mut self, info: &IterationInfo, _platform: &mut Platform, _now: SimTime) -> f64 {
        if !self.config.division {
            return 0.0;
        }
        if self.fallback {
            // Division frozen in fallback: no moves on a broken platform.
            return self.division.share();
        }
        let (tc_s, tg_s) = self.sensors.observe_iteration(info.tc_s, info.tg_s);
        self.division.update(tc_s, tg_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_enable_the_right_tiers() {
        let h = GreenGpuConfig::holistic();
        assert!(h.division && h.gpu_scaling && h.cpu_scaling);
        let d = GreenGpuConfig::division_only();
        assert!(d.division && !d.gpu_scaling && !d.cpu_scaling);
        let s = GreenGpuConfig::scaling_only();
        assert!(!s.division && s.gpu_scaling);
    }

    #[test]
    fn scaling_only_pins_share_to_zero() {
        let ctl = GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
        assert_eq!(ctl.initial_share(), 0.0);
    }

    #[test]
    fn division_only_disables_the_dvfs_loop() {
        let ctl = GreenGpuController::for_testbed(GreenGpuConfig::division_only());
        assert_eq!(ctl.dvfs_period(), None);
    }

    #[test]
    fn holistic_uses_three_second_period() {
        let ctl = GreenGpuController::for_testbed(GreenGpuConfig::holistic());
        assert_eq!(ctl.dvfs_period(), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn dvfs_tick_actuates_gpu_levels_from_sensors() {
        let mut platform = Platform::default_testbed();
        let mut ctl = GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
        // Saturate both domains for a window, then tick: the scaler must
        // push both levels to the peak.
        platform.set_gpu_activity(SimTime::ZERO, 1.0, 1.0);
        ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3));
        assert_eq!(platform.gpu().core().current_level(), 5);
        assert_eq!(platform.gpu().mem().current_level(), 5);
    }

    #[test]
    fn power_cap_masks_the_enforced_pair() {
        let mut platform = Platform::default_testbed();
        let mut ctl = GreenGpuController::for_testbed(GreenGpuConfig::scaling_only());
        let spec = platform.gpu().spec().clone();
        // A cap between the floor pair and the peak pair: saturated
        // utilization would normally drive both levels to the peak, but
        // the cap must keep the enforced pair's modeled power under it.
        let cap = 0.7 * spec.power_at_levels_w(5, 5, 1.0, 1.0);
        ctl.set_power_cap_w(Some(cap));
        platform.set_gpu_activity(SimTime::ZERO, 1.0, 1.0);
        for k in 1..=5 {
            ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(3 * k));
        }
        let (i, j) = (
            platform.gpu().core().current_level(),
            platform.gpu().mem().current_level(),
        );
        assert!(
            spec.power_at_levels_w(i, j, 1.0, 1.0) <= cap,
            "enforced pair ({i},{j}) exceeds the cap"
        );
        assert!((i, j) != (5, 5), "cap had no effect");
        assert!(ctl.cap_masked_intervals() > 0);
        // Lifting the cap restores the uncapped policy.
        ctl.set_power_cap_w(None);
        ctl.on_dvfs_tick(&mut platform, SimTime::from_secs(30));
        assert_eq!(platform.gpu().core().current_level(), 5);
        assert_eq!(platform.gpu().mem().current_level(), 5);
    }

    #[test]
    fn iteration_end_moves_division() {
        let mut platform = Platform::default_testbed();
        let mut ctl = GreenGpuController::for_testbed(GreenGpuConfig::holistic());
        let info = IterationInfo {
            index: 0,
            cpu_share: 0.30,
            tc_s: 10.0,
            tg_s: 2.0,
        };
        let next = ctl.on_iteration_end(&info, &mut platform, SimTime::from_secs(10));
        assert_eq!(next, 0.25, "slower CPU sheds one step");
    }
}

#[cfg(test)]
mod governor_integration_tests {
    use super::*;
    use crate::baselines::run_with_config;
    use greengpu_runtime::{CommMode, RunConfig};
    use greengpu_workloads::streamcluster::StreamCluster;

    fn async_cfg() -> RunConfig {
        let mut cfg = RunConfig::sweep();
        cfg.comm_mode = CommMode::Async;
        cfg
    }

    #[test]
    fn powersave_governor_floors_the_cpu() {
        let cfg = GreenGpuConfig {
            governor: GovernorKind::Powersave,
            ..GreenGpuConfig::scaling_only()
        };
        let report = run_with_config(&mut StreamCluster::paper(1), cfg, async_cfg());
        assert_eq!(report.platform.cpu().domain().current_level(), 0);
    }

    #[test]
    fn performance_governor_pins_the_peak() {
        let cfg = GreenGpuConfig {
            governor: GovernorKind::Performance,
            ..GreenGpuConfig::scaling_only()
        };
        let report = run_with_config(&mut StreamCluster::paper(1), cfg, async_cfg());
        assert_eq!(report.platform.cpu().domain().current_level(), 3);
    }

    #[test]
    fn throttling_governors_save_cpu_energy_under_async_comm() {
        let run = |kind: GovernorKind| {
            let cfg = GreenGpuConfig {
                governor: kind,
                ..GreenGpuConfig::scaling_only()
            };
            run_with_config(&mut StreamCluster::paper(2), cfg, async_cfg())
        };
        let perf = run(GovernorKind::Performance);
        for kind in [
            GovernorKind::Ondemand,
            GovernorKind::Conservative,
            GovernorKind::Proportional,
        ] {
            let throttled = run(kind);
            assert!(
                throttled.cpu_energy_j < perf.cpu_energy_j,
                "{kind:?}: {} vs performance {}",
                throttled.cpu_energy_j,
                perf.cpu_energy_j
            );
            // Same GPU-side work and time regardless of the CPU governor.
            assert_eq!(throttled.total_time, perf.total_time);
        }
    }

    #[test]
    fn model_based_division_through_the_coordinator() {
        use greengpu_workloads::hotspot::Hotspot;
        let cfg = GreenGpuConfig {
            division_algo: DivisionAlgo::ModelBased,
            gpu_scaling: false,
            cpu_scaling: false,
            ..GreenGpuConfig::default()
        };
        let report = run_with_config(&mut Hotspot::paper(3), cfg, RunConfig::sweep());
        // The jump reaches the balance region by iteration 2.
        let second = &report.iterations[1];
        assert!(
            (0.45..=0.60).contains(&second.cpu_share),
            "model jump landed at {}",
            second.cpu_share
        );
    }
}
