//! One fleet node: a single-node GreenGPU testbed plus its hardened
//! controller, wrapped with job progress tracking and cap enforcement.
//!
//! A node owns the same [`Platform`] the single-node experiments run on
//! and drives it with the same [`GreenGpuController`] (scaling tier, with
//! the PR-1 hardening: NaN rejection, read-back-verified actuation,
//! best-performance fallback). The cluster tier only adds what a
//! datacenter agent would: a service-profile table to convert frequency
//! pairs into job progress, a power-cap input, and counters.
//!
//! Job service is piecewise-linear: between control events the frequency
//! pair is constant, so a job advances at `dt / (size · T(pair))` of its
//! total work per elapsed `dt`. The controller may re-clock the card at
//! every tick; progress carries over, only the rate changes — exactly how
//! a real run would respond to DVFS.

use crate::job::{JobRecord, JobSpec};
use crate::lifecycle::NodeState;
use crate::power::{mw, MilliWatts, NodeDemand};
use crate::profile::ServiceProfile;
use crate::telemetry::NameTable;
use greengpu::{GreenGpuConfig, GreenGpuController, LearnerCheckpoint, PairModel, PolicySpec};
use greengpu_hw::{
    calib, BlackoutSensors, CleanSensors, CpuSpec, DirectActuator, FaultPlan, FaultyActuator, FaultySensor,
    FreqActuator, GpuSpec, Platform, SensorSource,
};
use greengpu_runtime::Controller as _;
use greengpu_sim::{Fnv64, SimDuration, SimTime, SplitMix64};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// Static description of one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's card.
    pub gpu: GpuSpec,
    /// The node's host CPU.
    pub cpu: CpuSpec,
    /// Optional sensor/actuation fault plan (PR-1 seam).
    pub fault: Option<FaultPlan>,
    /// Tier-2 frequency policy the node's controller runs (the paper's
    /// WMA by default; any [`PolicySpec`] variant works — the cap seam
    /// goes through the policy's feasible-set mask either way).
    pub freq_policy: PolicySpec,
}

impl NodeConfig {
    /// The default paper testbed node.
    pub fn default_node() -> Self {
        NodeConfig {
            gpu: calib::geforce_8800_gtx(),
            cpu: calib::phenom_ii_x2(),
            fault: None,
            freq_policy: PolicySpec::default(),
        }
    }

    /// A down-clocked heterogeneous variant (≈70 % clocks).
    pub fn downclocked() -> Self {
        let mut gpu = calib::geforce_8800_gtx();
        gpu.core_levels_mhz = gpu.core_levels_mhz.iter().map(|f| f * 0.7).collect();
        gpu.mem_levels_mhz = gpu.mem_levels_mhz.iter().map(|f| f * 0.7).collect();
        gpu.name = format!("{} (down-clocked)", gpu.name);
        NodeConfig {
            gpu,
            cpu: calib::phenom_ii_x2(),
            fault: None,
            freq_policy: PolicySpec::default(),
        }
    }

    /// Attaches a fault plan.
    pub fn with_fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Selects the Tier-2 frequency policy.
    pub fn with_freq_policy(mut self, spec: PolicySpec) -> Self {
        self.freq_policy = spec;
        self
    }
}

/// The mix's mean predicted (time, energy) per frequency pair — the
/// [`PairModel`] a deadline-aware node selects over. Averaging across the
/// profiled workloads gives the node one budget surface for a mixed
/// stream; a single-workload mix degenerates to that workload's exact
/// profile.
fn mix_pair_model(gpu: &GpuSpec, profiles: &BTreeMap<String, ServiceProfile>) -> Result<PairModel, String> {
    if profiles.is_empty() {
        return Err("deadline policy needs a non-empty workload mix".to_string());
    }
    let n_core = gpu.core_levels_mhz.len();
    let n_mem = gpu.mem_levels_mhz.len();
    let k = profiles.len() as f64;
    let mut time_s = vec![0.0; n_core * n_mem];
    let mut energy_j = vec![0.0; n_core * n_mem];
    for prof in profiles.values() {
        for i in 0..n_core {
            for j in 0..n_mem {
                time_s[i * n_mem + j] += prof.time_s(i, j) / k;
                energy_j[i * n_mem + j] += prof.energy_j(gpu, i, j, 1.0) / k;
            }
        }
    }
    PairModel::from_grids(n_core, n_mem, time_s, energy_j)
}

/// A job in service.
#[derive(Debug, Clone)]
struct RunningJob {
    spec: JobSpec,
    started: SimTime,
    /// Completed fraction of the whole run in `[0, 1)`.
    progress: f64,
    /// GPU energy attributed so far, joules (pair energy prorated by
    /// per-window progress, so DVFS changes mid-job are accounted).
    energy_j: f64,
    /// Interned profile id (index into `Node::profile_seq`), resolved
    /// once at dispatch so the per-window hot path never re-keys the
    /// profile map by workload `String`.
    profile: u32,
}

/// A lifecycle transition surfaced to the fleet supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// The supervisor finished rebuilding the controller; `warm` is true
    /// when the last checkpoint restored cleanly.
    RestartComplete {
        /// Whether learner state was restored from a checkpoint.
        warm: bool,
    },
    /// The node served its probation and is fully `Up` again.
    ProbationCleared,
}

/// One completed post-restart learner recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Whether the restart restored a checkpoint (warm) or cold-started.
    pub warm: bool,
    /// Control ticks from restart completion until the policy's desired
    /// pair matched the pre-crash pair again (0 = immediately on
    /// restore).
    pub intervals: u64,
}

/// A node's stored learner checkpoint.
enum Checkpoint {
    /// Taken from the live controller: restored by typed copy, and
    /// rendered to the versioned JSON only if someone reads it.
    Typed {
        state: LearnerCheckpoint,
        json: OnceCell<String>,
    },
    /// Loaded verbatim from outside: restored through the strict JSON
    /// parser, so a corrupt string still cold-starts the node.
    Json(String),
}

/// One live node.
pub struct Node {
    id: usize,
    platform: Platform,
    ctl: GreenGpuController,
    profiles: BTreeMap<String, ServiceProfile>,
    /// Workload names interned in sorted order; ids index `profile_seq`.
    profile_names: NameTable,
    /// Profiles in interned-id order — the per-window hot path resolves
    /// a job's profile by `u32` id, never by `String` key.
    profile_seq: Vec<ServiceProfile>,
    cap_w: f64,
    job: Option<RunningJob>,
    busy_s: f64,
    completed: u64,
    cap_violations: u64,
    // --- controller rebuild recipe (crash restarts re-run it) ---
    policy_spec: PolicySpec,
    fault: Option<FaultPlan>,
    blackouts: Vec<(SimTime, SimTime)>,
    policy_seed: u64,
    model: Option<PairModel>,
    // --- failure lifecycle ---
    state: NodeState,
    /// When the current `Crashed`/`Restarting` phase ends.
    state_until: SimTime,
    probation_left: u64,
    restart_s: f64,
    probation_intervals: u64,
    checkpoint: Option<Checkpoint>,
    thermal_until: SimTime,
    thermal_active: bool,
    /// The cap this node was *parked* under by the event-driven engine,
    /// if any: the node proved two consecutive control ticks identical
    /// (see [`Node::park_fingerprint`]) and subsequent ticks take the
    /// quiescent fast path until anything observable changes.
    parked_cap: Option<MilliWatts>,
    /// Pre-crash desired pair, pending recovery measurement.
    pending_target: Option<(usize, usize)>,
    /// In-flight recovery: (target pair, warm flag, ticks so far).
    recovering: Option<((usize, usize), bool, u64)>,
    recoveries: Vec<RecoveryRecord>,
    crashes: u64,
    warm_restarts: u64,
    cold_restarts: u64,
    restore_failures: u64,
    thermal_events: u64,
}

impl Node {
    /// Builds a node with service profiles for `workloads` (unknown names
    /// panic — the mix is validated config, not user input). The card
    /// starts at peak clocks (the best-performance baseline state); the
    /// controller takes over from the first tick.
    pub fn new(id: usize, cfg: &NodeConfig, workloads: &[String], profile_seed: u64) -> Self {
        match Node::try_new(id, cfg, workloads, profile_seed) {
            Ok(node) => node,
            Err(msg) => panic!("node {id}: {msg}"),
        }
    }

    /// [`Node::new`] with a prebuilt profile table (see
    /// [`Node::try_new_with_profiles`] for the caller contract).
    pub fn new_with_profiles(
        id: usize,
        cfg: &NodeConfig,
        profiles: BTreeMap<String, ServiceProfile>,
        profile_seed: u64,
    ) -> Self {
        match Node::try_new_with_profiles(id, cfg, profiles, profile_seed) {
            Ok(node) => node,
            Err(msg) => panic!("node {id}: {msg}"),
        }
    }

    /// Non-panicking constructor: validates the policy spec (naming the
    /// offending field) and the workload mix, then builds the node. The
    /// deadline policy's [`PairModel`] is derived from the mix's mean
    /// per-pair service time/energy grids — the same tables the
    /// energy-aware placement estimates use; randomized policies draw
    /// per-node streams derived from `(profile_seed, id)`.
    pub fn try_new(id: usize, cfg: &NodeConfig, workloads: &[String], profile_seed: u64) -> Result<Self, String> {
        let profiles: BTreeMap<String, ServiceProfile> = workloads
            .iter()
            .map(|name| {
                ServiceProfile::build(name, profile_seed, &cfg.gpu)
                    .map(|p| (name.clone(), p))
                    .ok_or_else(|| format!("unknown workload {name:?} in mix"))
            })
            .collect::<Result<_, String>>()?;
        Node::try_new_with_profiles(id, cfg, profiles, profile_seed)
    }

    /// Like [`Node::try_new`], but takes a prebuilt profile table. The
    /// caller guarantees the profiles were built for `cfg.gpu` with this
    /// fleet's `profile_seed` — the fleet constructor builds one table
    /// per distinct GPU spec and shares it across that spec's nodes, so
    /// an N-node homogeneous fleet profiles its mix once, not N times.
    pub fn try_new_with_profiles(
        id: usize,
        cfg: &NodeConfig,
        profiles: BTreeMap<String, ServiceProfile>,
        profile_seed: u64,
    ) -> Result<Self, String> {
        cfg.freq_policy.try_validate()?;
        let n_core = cfg.gpu.core_levels_mhz.len();
        let n_mem = cfg.gpu.mem_levels_mhz.len();
        let platform = Platform::new(
            cfg.gpu.clone(),
            cfg.cpu.clone(),
            n_core - 1,
            n_mem - 1,
            cfg.cpu.levels_mhz.len() - 1,
        );
        let model = match &cfg.freq_policy {
            PolicySpec::Deadline(_) => Some(mix_pair_model(&cfg.gpu, &profiles)?),
            _ => None,
        };
        let policy_seed = SplitMix64::new(profile_seed.wrapping_add(id as u64)).next_u64();
        // Intern the workload names once (sorted map order, so ids are
        // deterministic) — jobs carry the `u32` id from dispatch on.
        let mut profile_names = NameTable::new();
        let mut profile_seq = Vec::with_capacity(profiles.len());
        for (name, prof) in &profiles {
            profile_names.intern(name);
            profile_seq.push(prof.clone());
        }
        let mut node = Node {
            id,
            platform,
            // Placeholder until the recipe fields are in place below; the
            // real controller is installed right after.
            ctl: GreenGpuController::with_policy(
                GreenGpuConfig::scaling_only(),
                cfg.freq_policy.build(n_core, n_mem, policy_seed, model.as_ref())?,
            ),
            profiles,
            profile_names,
            profile_seq,
            cap_w: f64::INFINITY,
            job: None,
            busy_s: 0.0,
            completed: 0,
            cap_violations: 0,
            policy_spec: cfg.freq_policy.clone(),
            fault: cfg.fault,
            blackouts: Vec::new(),
            policy_seed,
            model,
            state: NodeState::Up,
            state_until: SimTime::ZERO,
            probation_left: 0,
            restart_s: 2.0,
            probation_intervals: 3,
            checkpoint: None,
            thermal_until: SimTime::ZERO,
            thermal_active: false,
            parked_cap: None,
            pending_target: None,
            recovering: None,
            recoveries: Vec::new(),
            crashes: 0,
            warm_restarts: 0,
            cold_restarts: 0,
            restore_failures: 0,
            thermal_events: 0,
        };
        node.ctl = node.build_controller()?;
        Ok(node)
    }

    /// Rebuilds the controller from the stored recipe: fresh policy (from
    /// the spec and the node's derived seed), fresh sensor/actuator
    /// providers (re-wrapping the fault injectors and blackout windows).
    /// Used at construction and on every crash restart — a restart gets
    /// fresh providers; only checkpointed learner state survives.
    fn build_controller(&self) -> Result<GreenGpuController, String> {
        let spec = self.platform.gpu().spec();
        let n_core = spec.core_levels_mhz.len();
        let n_mem = spec.mem_levels_mhz.len();
        let policy = self
            .policy_spec
            .build(n_core, n_mem, self.policy_seed, self.model.as_ref())?;
        let sensors: Box<dyn SensorSource> = match &self.fault {
            Some(plan) => Box::new(FaultySensor::new(plan)),
            None => Box::new(CleanSensors::new()),
        };
        let sensors: Box<dyn SensorSource> = if self.blackouts.is_empty() {
            sensors
        } else {
            Box::new(BlackoutSensors::new(sensors, self.blackouts.clone()))
        };
        let actuator: Box<dyn FreqActuator> = match &self.fault {
            Some(plan) => Box::new(FaultyActuator::new(plan)),
            None => Box::new(DirectActuator),
        };
        Ok(GreenGpuController::with_policy_providers(
            GreenGpuConfig::scaling_only(),
            policy,
            sensors,
            actuator,
        ))
    }

    /// Node id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the node can take a job right now.
    pub fn is_idle(&self) -> bool {
        self.job.is_none()
    }

    /// Whether the controller is still operating (fallback not engaged).
    /// The scheduler routes around unhealthy nodes.
    pub fn healthy(&self) -> bool {
        !self.ctl.fallback_engaged()
    }

    /// Where the node is in the failure lifecycle.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// When the current `Crashed`/`Restarting` phase ends — the instant
    /// the event-driven engine's wake agenda must next run this node's
    /// lifecycle FSM. Meaningless (stale) while `Up`/`Probation`.
    pub fn state_until(&self) -> SimTime {
        self.state_until
    }

    /// Whether the node is currently parked on the control quiescent
    /// fast path (see [`Node::control_tick_parkable`]).
    pub fn is_parked(&self) -> bool {
        self.parked_cap.is_some()
    }

    /// The cap this node is parked under, if parked. While this equals
    /// the cap the apportioner would hand the node this interval, the
    /// entire control tick is an identity (the parked fast path would
    /// re-read constant-zero idle utilizations and rewrite every field
    /// with the same bits), so the event engine skips it outright.
    pub fn parked_under(&self) -> Option<MilliWatts> {
        self.parked_cap
    }

    /// Whether the node is controllable this interval (`Up` or
    /// `Probation`). Dead nodes take no control ticks and no work.
    pub fn is_alive(&self) -> bool {
        matches!(self.state, NodeState::Up | NodeState::Probation)
    }

    /// Configures the restart duration and probation length (the fleet
    /// applies its [`crate::LifecycleParams`] here at construction).
    pub fn set_lifecycle(&mut self, restart_s: f64, probation_intervals: u64) {
        assert!(restart_s.is_finite() && restart_s > 0.0);
        assert!(probation_intervals > 0);
        self.restart_s = restart_s;
        self.probation_intervals = probation_intervals;
    }

    /// Installs telemetry-blackout windows by rebuilding the controller
    /// with [`BlackoutSensors`]-wrapped providers. Call before the first
    /// control tick — the rebuild discards learner state.
    pub fn set_blackouts(&mut self, windows: Vec<(SimTime, SimTime)>) {
        self.blackouts = windows;
        // The recipe was validated at construction; if the rebuild fails
        // anyway, hold the existing controller rather than abort the fleet.
        match self.build_controller() {
            Ok(ctl) => self.ctl = ctl,
            Err(_) => self.restore_failures += 1,
        }
    }

    /// Copies the controller's learner state, typed, as the node's
    /// current checkpoint (the fleet calls this every checkpoint period).
    pub fn take_checkpoint(&mut self) {
        self.checkpoint = Some(Checkpoint::Typed {
            state: self.ctl.learner_checkpoint(),
            json: OnceCell::new(),
        });
    }

    /// Replaces the stored checkpoint verbatim — the corruption-injection
    /// seam for tests; a garbage string is rejected at restore time and
    /// the restart falls back to a cold start (counted).
    pub fn load_checkpoint(&mut self, checkpoint: String) {
        self.checkpoint = Some(Checkpoint::Json(checkpoint));
    }

    /// The stored checkpoint as its versioned JSON string, if any. A
    /// checkpoint taken in memory is rendered on the first call and
    /// cached.
    pub fn checkpoint_data(&self) -> Option<&str> {
        match self.checkpoint.as_ref()? {
            Checkpoint::Typed { state, json } => Some(json.get_or_init(|| state.snapshot())),
            Checkpoint::Json(s) => Some(s),
        }
    }

    /// Crashes the node at `now`: the in-flight job (returned for retry)
    /// and all live learner state are lost, the card drops to floor
    /// clocks with zero activity (the PSU-trickle draw of a dark board is
    /// the floor idle power), and the node stays dark for `outage_s`.
    /// No-op returning `None` when the node is already down.
    pub fn crash(&mut self, now: SimTime, outage_s: f64) -> Option<JobSpec> {
        if !self.is_alive() {
            return None;
        }
        self.crashes += 1;
        self.parked_cap = None;
        // The recovery target is what the learner preferred just before
        // dying — reaching it again is the warm-vs-cold regret metric.
        self.pending_target = Some(self.ctl.desired_pair());
        self.recovering = None;
        let lost = self.job.take().map(|run| run.spec);
        self.platform.set_gpu_levels(now, 0, 0);
        self.platform.set_cpu_level(now, 0);
        self.refresh_activity(now);
        self.state = NodeState::Crashed;
        self.state_until = now + SimDuration::from_secs_f64(outage_s);
        lost
    }

    /// A rack-level power loss hits a node that is already down: any
    /// restart progress is lost and the node goes (back) to `Crashed`
    /// until at least `now + outage_s`. Not a new crash — there is no
    /// job or live learner state left to lose — the dark window just
    /// stretches, and never shortens an already-longer one. No-op on an
    /// alive node (use [`Node::crash`]).
    pub fn extend_outage(&mut self, now: SimTime, outage_s: f64) {
        if self.is_alive() {
            return;
        }
        self.state = NodeState::Crashed;
        self.state_until = self.state_until.max(now + SimDuration::from_secs_f64(outage_s));
    }

    /// Enters a thermal emergency: for `duration_s` the node is pinned to
    /// its floor pair by the (modeled) hardware throttle — the controller
    /// is bypassed and the node's power demand collapses to the floor.
    pub fn thermal_emergency(&mut self, now: SimTime, duration_s: f64) {
        self.thermal_events += 1;
        self.parked_cap = None;
        self.thermal_until = now + SimDuration::from_secs_f64(duration_s);
        self.thermal_active = true;
    }

    /// Whether the thermal throttle was active at the last lifecycle tick.
    pub fn thermal_active(&self) -> bool {
        self.thermal_active
    }

    /// One supervisor tick: advances the failure FSM (at most one
    /// transition per tick, so recovery time is measured in whole control
    /// intervals) and refreshes the thermal-throttle flag. Returns the
    /// transitions that fired, for the fleet's breaker and counters.
    pub fn lifecycle_tick(&mut self, now: SimTime) -> Vec<LifecycleEvent> {
        self.thermal_active = now < self.thermal_until;
        let mut events = Vec::new();
        match self.state {
            NodeState::Crashed if now >= self.state_until => {
                self.state = NodeState::Restarting;
                self.state_until = now + SimDuration::from_secs_f64(self.restart_s);
            }
            NodeState::Restarting if now >= self.state_until => {
                let warm = self.perform_restart(now);
                self.state = NodeState::Probation;
                self.probation_left = self.probation_intervals;
                events.push(LifecycleEvent::RestartComplete { warm });
            }
            NodeState::Probation => {
                self.probation_left = self.probation_left.saturating_sub(1);
                if self.probation_left == 0 {
                    self.state = NodeState::Up;
                    events.push(LifecycleEvent::ProbationCleared);
                }
            }
            _ => {}
        }
        events
    }

    /// The supervisor restart: rebuild the controller from the recipe and
    /// try to restore the last checkpoint. Returns whether the restart
    /// was warm. A checkpoint that fails to parse or validate is
    /// *discarded* (cold start, `restore_failures` counted) — resuming
    /// from garbage would be worse than re-exploring.
    fn perform_restart(&mut self, now: SimTime) -> bool {
        // The recipe was validated at construction; if the rebuild fails
        // anyway, keep the pre-crash controller and report a cold restart.
        let Ok(mut ctl) = self.build_controller() else {
            self.restore_failures += 1;
            self.cold_restarts += 1;
            return false;
        };
        let restored = match &self.checkpoint {
            Some(Checkpoint::Typed { state, .. }) => Some(ctl.load_learner_checkpoint(state)),
            Some(Checkpoint::Json(s)) => Some(ctl.restore(s)),
            None => None,
        };
        let warm = match restored {
            Some(Ok(())) => {
                self.warm_restarts += 1;
                true
            }
            Some(Err(_)) => {
                self.restore_failures += 1;
                self.checkpoint = None;
                self.cold_restarts += 1;
                false
            }
            None => {
                self.cold_restarts += 1;
                false
            }
        };
        self.ctl = ctl;
        self.refresh_activity(now);
        if let Some(target) = self.pending_target.take() {
            if self.ctl.desired_pair() == target {
                // A warm restore can put the argmax back instantly.
                self.recoveries.push(RecoveryRecord { warm, intervals: 0 });
            } else {
                self.recovering = Some((target, warm, 0));
            }
        }
        warm
    }

    /// Crashes suffered so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Restarts that restored a checkpoint.
    pub fn warm_restarts(&self) -> u64 {
        self.warm_restarts
    }

    /// Restarts that cold-started (no checkpoint, or a rejected one).
    pub fn cold_restarts(&self) -> u64 {
        self.cold_restarts
    }

    /// Checkpoints that failed to restore (subset of cold restarts).
    pub fn restore_failures(&self) -> u64 {
        self.restore_failures
    }

    /// Thermal emergencies entered so far.
    pub fn thermal_events(&self) -> u64 {
        self.thermal_events
    }

    /// Completed post-restart recoveries, in order.
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// Current power cap, watts.
    pub fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// Cumulative busy (serving) seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_s
    }

    /// Jobs completed on this node.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Intervals whose enforced pair exceeded the cap.
    pub fn cap_violations(&self) -> u64 {
        self.cap_violations
    }

    /// The node's whole profile table (the fleet shares it across nodes
    /// with the same GPU spec).
    pub(crate) fn profile_table(&self) -> &BTreeMap<String, ServiceProfile> {
        &self.profiles
    }

    /// The service profile for a mix workload.
    pub fn profile(&self, workload: &str) -> Option<&ServiceProfile> {
        self.profiles.get(workload)
    }

    /// The underlying platform (meters, traces).
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The controller (inspection/tests).
    pub fn controller(&self) -> &GreenGpuController {
        &self.ctl
    }

    /// Modeled worst-case board power of the currently enforced pair.
    pub fn enforced_pair_power_w(&self) -> f64 {
        let (c, m) = self.current_pair();
        self.platform.gpu().spec().power_at_levels_w(c, m, 1.0, 1.0)
    }

    /// The currently enforced (core, mem) levels.
    pub fn current_pair(&self) -> (usize, usize) {
        (
            self.platform.gpu().core().current_level(),
            self.platform.gpu().mem().current_level(),
        )
    }

    fn spec_powers(&self) -> (f64, f64) {
        let spec = self.platform.gpu().spec();
        let (nc, nm) = (spec.core_levels_mhz.len(), spec.mem_levels_mhz.len());
        (
            spec.power_at_levels_w(0, 0, 1.0, 1.0),
            spec.power_at_levels_w(nc - 1, nm - 1, 1.0, 1.0),
        )
    }

    /// What this node asks of the apportioner right now. A crashed node
    /// demands *nothing* — its milliwatts flow back to the live nodes the
    /// same interval the crash lands (the reclamation criterion). A
    /// restarting node holds only its floor; a thermally throttled node
    /// desires its floor but keeps its real peak (the throttle could lift
    /// mid-interval).
    pub fn demand(&self) -> NodeDemand {
        let (floor_w, peak_w) = self.spec_powers();
        match self.state {
            NodeState::Crashed => {
                return NodeDemand {
                    floor_mw: 0,
                    desired_mw: 0,
                    peak_mw: 0,
                    busy: false,
                };
            }
            NodeState::Restarting => {
                return NodeDemand {
                    floor_mw: mw(floor_w),
                    desired_mw: mw(floor_w),
                    peak_mw: mw(floor_w),
                    busy: false,
                };
            }
            NodeState::Up | NodeState::Probation => {}
        }
        if self.thermal_active {
            return NodeDemand {
                floor_mw: mw(floor_w),
                desired_mw: mw(floor_w),
                peak_mw: mw(peak_w),
                busy: self.job.is_some(),
            };
        }
        let desired_w = if self.ctl.fallback_engaged() {
            // Fallback pins peak clocks; budget accordingly.
            peak_w
        } else {
            let (c, m) = self.ctl.desired_pair();
            self.platform.gpu().spec().power_at_levels_w(c, m, 1.0, 1.0)
        };
        NodeDemand {
            floor_mw: mw(floor_w),
            desired_mw: mw(desired_w),
            peak_mw: mw(peak_w),
            busy: self.job.is_some(),
        }
    }

    /// Re-applies the activity signature of the current (job, pair) state
    /// from `at` onward.
    fn refresh_activity(&mut self, at: SimTime) {
        let n_cores = self.platform.cpu().spec().n_cores;
        match &self.job {
            Some(run) => {
                let (c, m) = self.current_pair();
                let (uc, um) = self
                    .profile_seq
                    .get(run.profile as usize)
                    .map_or((0.0, 0.0), |prof| (prof.u_core(c, m), prof.u_mem(c, m)));
                self.platform.set_gpu_activity(at, uc, um);
                self.platform.set_cpu_activity(at, 1.0, n_cores);
            }
            None => {
                self.platform.set_gpu_activity(at, 0.0, 0.0);
                self.platform.set_cpu_activity(at, 0.0, 0);
            }
        }
    }

    /// Starts serving `job` at `now`. Panics if the node is busy.
    pub fn dispatch(&mut self, job: JobSpec, now: SimTime) {
        assert!(self.job.is_none(), "node {} is busy", self.id);
        if self.parked_cap.is_some() {
            // A deep-parked node (the event engine skips its control
            // ticks entirely) may not have sensed for many intervals;
            // catch the sensor window up to `now` while the utilization
            // traces are still constant-zero, before the job makes them
            // move. For a node that was ticked this interval the sensor
            // window already ends at `now`, so the poll re-reads the
            // same instantaneous zeros — an exact identity.
            self.ctl.on_dvfs_tick_quiescent(&mut self.platform, now);
        }
        self.parked_cap = None;
        // Resolve the interned profile id once; `advance` and
        // `refresh_activity` index by it from here on.
        let profile = self.profile_names.get(&job.workload).unwrap_or(u32::MAX);
        self.job = Some(RunningJob {
            spec: job,
            started: now,
            progress: 0.0,
            energy_j: 0.0,
            profile,
        });
        self.refresh_activity(now);
    }

    /// Advances job service from `from` to `to` at the current frequency
    /// pair, returning the completion record if the job finishes inside
    /// the window.
    pub fn advance(&mut self, from: SimTime, to: SimTime) -> Option<JobRecord> {
        let dt = to.saturating_since(from).as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        let run = self.job.as_mut()?;
        let (c, m) = (
            self.platform.gpu().core().current_level(),
            self.platform.gpu().mem().current_level(),
        );
        let prof = self.profile_seq.get(run.profile as usize)?;
        let full_s = prof.time_s(c, m) * run.spec.size;
        // The whole-run energy at this window's pair; progress made here
        // attributes a proportional slice of it to the job.
        let full_e = prof.energy_j(self.platform.gpu().spec(), c, m, run.spec.size);
        let need_s = (1.0 - run.progress) * full_s;
        if need_s <= dt * (1.0 + 1e-12) {
            // Completes inside this window, at the exact instant.
            let finished = from + SimDuration::from_secs_f64(need_s.max(0.0));
            self.busy_s += need_s.max(0.0);
            let mut run = self.job.take()?;
            run.energy_j += (1.0 - run.progress) * full_e;
            let missed_deadline = run.spec.deadline.is_some_and(|d| finished > d);
            let record = JobRecord {
                node: self.id,
                started: run.started,
                finished,
                missed_deadline,
                gpu_energy_j: run.energy_j,
                spec: run.spec,
            };
            self.completed += 1;
            self.refresh_activity(finished);
            Some(record)
        } else {
            run.progress += dt / full_s;
            run.energy_j += (dt / full_s) * full_e;
            self.busy_s += dt;
            None
        }
    }

    /// One control interval: install the cap, run the hardened controller
    /// (sense → masked policy decision → verified actuation), refresh the activity
    /// signature for the possibly new pair, and check cap compliance.
    /// Returns how far (watts) the enforced pair exceeds the cap — 0.0
    /// when compliant; a fallback node pinning peak clocks is the
    /// expected violator.
    pub fn control_tick(&mut self, now: SimTime, cap: MilliWatts) -> f64 {
        self.cap_w = cap as f64 / 1000.0;
        if self.thermal_active {
            // Hardware throttle: floor clocks, controller bypassed. The
            // learner neither observes nor is blamed for these intervals.
            self.platform.set_gpu_levels(now, 0, 0);
            self.platform.set_cpu_level(now, 0);
            self.refresh_activity(now);
            let over = (self.enforced_pair_power_w() - self.cap_w).max(0.0);
            if over > 1e-9 {
                self.cap_violations += 1;
            }
            return over;
        }
        self.ctl.set_power_cap_w(Some(self.cap_w));
        self.ctl.on_dvfs_tick(&mut self.platform, now);
        self.refresh_activity(now);
        if self.recovering.is_some() {
            // Count intervals until the learner's argmax matches the
            // pre-crash pair again (the warm-vs-cold regret metric).
            let desired = self.ctl.desired_pair();
            let mut done = None;
            if let Some((target, warm, ticks)) = self.recovering.as_mut() {
                *ticks += 1;
                if desired == *target {
                    done = Some(RecoveryRecord {
                        warm: *warm,
                        intervals: *ticks,
                    });
                }
            }
            if let Some(rec) = done {
                self.recoveries.push(rec);
                self.recovering = None;
            }
        }
        let over = (self.enforced_pair_power_w() - self.cap_w).max(0.0);
        if over > 1e-9 {
            self.cap_violations += 1;
        }
        over
    }

    /// A bit-exact fingerprint of everything a control tick on an idle,
    /// healthy node can read or write, or `None` whenever the node is in
    /// any configuration where ticks are not provably idempotent: busy,
    /// fault-injected (the injectors hold RNG streams that must advance
    /// on every actuation), blacked out, off-`Up`, throttled,
    /// mid-recovery, or running a policy that declines to certify a
    /// fixed point (see [`GreenGpuController::decision_fingerprint`]).
    /// The event-driven engine parks a node only after two consecutive
    /// ticks under the same cap return the same `Some(..)` — the second
    /// tick *proves* the first one's decision was a fixed point.
    pub fn park_fingerprint(&self) -> Option<u64> {
        if self.fault.is_some()
            || !self.blackouts.is_empty()
            || self.job.is_some()
            || self.state != NodeState::Up
            || self.thermal_active
            || self.recovering.is_some()
            || self.pending_target.is_some()
        {
            return None;
        }
        let ctl_fp = self.ctl.decision_fingerprint()?;
        let mut h = Fnv64::new();
        h.push_u64(ctl_fp);
        let (c, m) = self.current_pair();
        h.push_usize(c);
        h.push_usize(m);
        h.push_usize(self.platform.cpu().domain().current_level());
        Some(h.finish())
    }

    /// [`Node::control_tick`] with the event-driven engine's parking
    /// protocol layered on. Behaviorally identical to `control_tick` on
    /// every externally observable output (enforced levels, cap
    /// violations, sensor windows, learner state); the only skipped work
    /// is decide/actuate halves that are provably identities.
    ///
    /// * **Parked** (same cap, still idle/`Up`/cool): run the quiescent
    ///   tick — sensing happens in full so the sensor windows advance
    ///   exactly as a normal tick's would; decide/actuate is skipped
    ///   while each domain re-observes its previous utilization. Any
    ///   divergence un-parks and finishes the tick normally.
    /// * **Not parked**: run `control_tick`, then park when the node is
    ///   compliant and this tick's fingerprint matches the previous
    ///   tick's (two-consecutive-identical-ticks criterion — the first
    ///   idle tick after activity never parks because the learner state
    ///   still moved).
    pub fn control_tick_parkable(&mut self, now: SimTime, cap: MilliWatts) -> f64 {
        if let Some(parked) = self.parked_cap {
            if parked == cap && self.job.is_none() && self.state == NodeState::Up && !self.thermal_active {
                // Cap unchanged, so these two writes are identities.
                self.cap_w = cap as f64 / 1000.0;
                self.ctl.set_power_cap_w(Some(self.cap_w));
                if self.ctl.on_dvfs_tick_quiescent(&mut self.platform, now) {
                    // Fully quiescent: levels unchanged, cap was met at
                    // park time, so the overage is exactly 0.0.
                    return 0.0;
                }
                // A domain diverged (and already ran its full half);
                // finish the tick tail exactly as control_tick would.
                // `recovering` is None while parked (park_fingerprint
                // requires it), so no recovery bookkeeping is due.
                self.parked_cap = None;
                self.refresh_activity(now);
                let over = (self.enforced_pair_power_w() - self.cap_w).max(0.0);
                if over > 1e-9 {
                    self.cap_violations += 1;
                }
                return over;
            }
            self.parked_cap = None;
        }
        let before = self.park_fingerprint();
        let over = self.control_tick(now, cap);
        if before.is_some() && over <= 0.0 && before == self.park_fingerprint() {
            self.parked_cap = Some(cap);
        }
        over
    }

    /// Oracle-style placement estimate: (service seconds, GPU joules) for
    /// running `workload` of `size` here under the current cap.
    pub fn estimate(&self, workload: &str, size: f64) -> Option<(f64, f64)> {
        let prof = self.profiles.get(workload)?;
        Some(prof.best_under_cap(self.platform.gpu().spec(), self.cap_w, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix() -> Vec<String> {
        vec!["hotspot".to_string(), "kmeans".to_string()]
    }

    fn job(workload: &str, size: f64) -> JobSpec {
        JobSpec {
            id: 0,
            workload: workload.to_string(),
            arrival: SimTime::ZERO,
            size,
            deadline: None,
            tenant: 0,
        }
    }

    #[test]
    fn job_completes_at_the_profiled_time() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        let expect = node.profile("hotspot").unwrap().peak_time_s() * 2.0;
        node.dispatch(job("hotspot", 2.0), SimTime::ZERO);
        assert!(!node.is_idle());
        // Advance well past the service time in two windows.
        let half = SimTime::from_secs_f64(expect / 2.0);
        assert!(node.advance(SimTime::ZERO, half).is_none());
        let rec = node
            .advance(half, SimTime::from_secs_f64(expect * 3.0))
            .expect("job must finish");
        assert!((rec.finished.saturating_since(SimTime::ZERO).as_secs_f64() - expect).abs() < 1e-6);
        assert!(node.is_idle());
        assert_eq!(node.completed(), 1);
    }

    #[test]
    fn capped_ticks_keep_the_pair_under_the_cap() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.dispatch(job("kmeans", 5.0), SimTime::ZERO);
        let cap_w = 0.75 * node.platform().gpu().spec().peak_power_w();
        let cap = mw(cap_w);
        let mut t = SimTime::ZERO;
        for k in 1..=10 {
            let next = SimTime::from_secs(k);
            node.advance(t, next);
            let over = node.control_tick(next, cap);
            assert_eq!(over, 0.0, "clean node violated its cap at tick {k}");
            t = next;
        }
        assert_eq!(node.cap_violations(), 0);
        assert!(node.enforced_pair_power_w() <= cap as f64 / 1000.0);
    }

    #[test]
    fn demand_reports_floor_and_peak() {
        let node = Node::new(3, &NodeConfig::default_node(), &mix(), 1);
        let d = node.demand();
        assert!(d.floor_mw < d.peak_mw);
        assert!(!d.busy);
        assert!(d.desired_mw >= d.floor_mw && d.desired_mw <= d.peak_mw);
    }

    #[test]
    fn nodes_run_any_freq_policy_under_a_cap() {
        use greengpu::{DeadlineParams, Exp3Params, UcbParams};
        let specs = [
            PolicySpec::Exp3(Exp3Params::default()),
            PolicySpec::Ucb(UcbParams::default()),
            PolicySpec::Deadline(DeadlineParams {
                time_budget_s: 120.0,
                ..DeadlineParams::default()
            }),
        ];
        for spec in specs {
            let cfg = NodeConfig::default_node().with_freq_policy(spec.clone());
            let mut node = Node::try_new(0, &cfg, &mix(), 1).expect("buildable");
            node.dispatch(job("kmeans", 5.0), SimTime::ZERO);
            let cap = mw(0.75 * node.platform().gpu().spec().peak_power_w());
            let mut t = SimTime::ZERO;
            for k in 1..=8 {
                let next = SimTime::from_secs(k);
                node.advance(t, next);
                let over = node.control_tick(next, cap);
                assert_eq!(over, 0.0, "{} node violated its cap at tick {k}", spec.kind());
                t = next;
            }
            assert_eq!(node.cap_violations(), 0);
            let d = node.demand();
            assert!(d.desired_mw >= d.floor_mw && d.desired_mw <= d.peak_mw);
        }
    }

    #[test]
    fn try_new_rejects_bad_specs_and_unknown_mixes() {
        use greengpu::WmaParams;
        let bad = NodeConfig::default_node().with_freq_policy(PolicySpec::Wma(WmaParams {
            beta: 0.0,
            ..WmaParams::default()
        }));
        let err = Node::try_new(0, &bad, &mix(), 1).err().expect("must refuse");
        assert!(err.contains("beta"), "{err}");
        let err = Node::try_new(0, &NodeConfig::default_node(), &["nope".to_string()], 1)
            .err()
            .expect("must refuse");
        assert!(err.contains("nope"), "{err}");
    }

    #[test]
    fn estimates_cover_the_mix() {
        let node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        let (t, e) = node.estimate("kmeans", 1.0).unwrap();
        assert!(t > 0.0 && e > 0.0);
        assert!(node.estimate("nbody", 1.0).is_none(), "not in the mix");
    }

    /// Warms a node up under a cap for `ticks` one-second intervals.
    fn warm_up(node: &mut Node, ticks: u64) -> SimTime {
        let cap = mw(0.8 * node.platform().gpu().spec().peak_power_w());
        node.dispatch(job("kmeans", 50.0), SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for k in 1..=ticks {
            let next = SimTime::from_secs(k);
            node.advance(t, next);
            node.control_tick(next, cap);
            t = next;
        }
        t
    }

    #[test]
    fn crash_zeroes_demand_and_walks_the_fsm_back_to_up() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.set_lifecycle(2.0, 2);
        let t = warm_up(&mut node, 5);
        assert_eq!(node.state(), NodeState::Up);

        let lost = node.crash(t, 3.0).expect("busy node loses its job");
        assert_eq!(lost.workload, "kmeans");
        assert_eq!(node.state(), NodeState::Crashed);
        assert!(!node.is_alive());
        assert!(node.is_idle(), "the in-flight job is gone");
        let d = node.demand();
        assert_eq!(
            (d.floor_mw, d.desired_mw, d.peak_mw),
            (0, 0, 0),
            "dark node demands nothing"
        );

        // Crashing again while down is a no-op.
        assert!(node.crash(t, 3.0).is_none());
        assert_eq!(node.crashes(), 1);

        // Outage 3 s → Restarting, restart 2 s → Probation (2 ticks) → Up.
        let mut now = t;
        let mut seen = Vec::new();
        for _ in 0..10 {
            now += SimDuration::from_secs_f64(1.0);
            seen.extend(node.lifecycle_tick(now));
            if node.state() == NodeState::Up {
                break;
            }
        }
        assert_eq!(node.state(), NodeState::Up);
        assert_eq!(
            seen,
            vec![
                LifecycleEvent::RestartComplete { warm: false },
                LifecycleEvent::ProbationCleared
            ]
        );
        assert_eq!(node.cold_restarts(), 1, "no checkpoint was ever taken");
        assert_eq!(node.warm_restarts(), 0);
    }

    #[test]
    fn checkpointed_restart_is_warm_and_restores_the_argmax() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.set_lifecycle(1.0, 1);
        let t = warm_up(&mut node, 20);
        let pre_crash = node.controller().desired_pair();
        node.take_checkpoint();
        node.crash(t, 1.0);

        let mut now = t;
        while node.state() != NodeState::Probation {
            now += SimDuration::from_secs_f64(1.0);
            node.lifecycle_tick(now);
        }
        assert_eq!(node.warm_restarts(), 1);
        assert_eq!(node.cold_restarts(), 0);
        assert_eq!(
            node.controller().desired_pair(),
            pre_crash,
            "warm restore puts the learner's argmax back"
        );
        assert_eq!(
            node.recoveries(),
            &[RecoveryRecord {
                warm: true,
                intervals: 0
            }]
        );
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_cold_start() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        node.set_lifecycle(1.0, 1);
        let t = warm_up(&mut node, 5);
        node.take_checkpoint();
        let cp = node.checkpoint_data().unwrap().to_string();
        // Truncation makes the JSON unparseable.
        node.load_checkpoint(cp[..cp.len() / 2].to_string());
        node.crash(t, 1.0);
        let mut now = t;
        while node.state() != NodeState::Probation {
            now += SimDuration::from_secs_f64(1.0);
            node.lifecycle_tick(now);
        }
        assert_eq!(node.restore_failures(), 1);
        assert_eq!(node.cold_restarts(), 1);
        assert_eq!(node.warm_restarts(), 0);
        assert!(node.checkpoint_data().is_none(), "garbage checkpoint is discarded");
    }

    #[test]
    fn thermal_emergency_pins_the_floor_then_lifts() {
        let mut node = Node::new(0, &NodeConfig::default_node(), &mix(), 1);
        let t = warm_up(&mut node, 5);
        let cap = mw(0.8 * node.platform().gpu().spec().peak_power_w());
        node.thermal_emergency(t, 2.5);
        let mut now = t;
        for _ in 0..2 {
            let prev = now;
            now += SimDuration::from_secs_f64(1.0);
            node.lifecycle_tick(now);
            assert!(node.thermal_active());
            node.advance(prev, now);
            let over = node.control_tick(now, cap);
            assert_eq!(node.current_pair(), (0, 0), "throttle pins floor clocks");
            assert_eq!(over, 0.0);
            let d = node.demand();
            assert_eq!(d.desired_mw, d.floor_mw, "throttled node desires only its floor");
        }
        // 2.5 s elapse → the throttle lifts on the next lifecycle tick.
        now += SimDuration::from_secs_f64(1.0);
        node.lifecycle_tick(now);
        assert!(!node.thermal_active());
        assert_eq!(node.thermal_events(), 1);
    }
}
