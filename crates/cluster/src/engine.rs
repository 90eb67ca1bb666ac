//! The fleet execution engines: one event spine, three drivers.
//!
//! [`crate::run_fleet`] builds the simulation state (nodes, arrival and
//! chaos schedules, scheduler, breakers, retry queue) and hands it to
//! one of three engines selected by [`FleetConfig::engine`]:
//!
//! * [`EngineKind::Serial`] — the reference implementation: every node
//!   advances at every spine event and takes a full control tick every
//!   interval. Simple, obviously correct, `O(nodes)` work per event.
//! * [`EngineKind::EventDriven`] — the same spine, but idle nodes cost
//!   (nearly) nothing: job service advances over a **busy list** instead
//!   of the whole fleet, dead (`Crashed`/`Restarting`) nodes sleep on a
//!   min-heap **wake agenda** keyed by `(state_until, node_id)` until
//!   their next lifecycle transition is actually due, and idle healthy
//!   nodes whose controller state is provably a fixed point are
//!   **parked** ([`crate::Node::park_fingerprint`]) so their control
//!   ticks degrade to a sense-only quiescent check.
//! * [`EngineKind::Parallel`] — the event-driven engine plus
//!   deterministic data-parallelism on the two per-tick fan-outs (job
//!   advance, control ticks): a single-threaded sequencer assigns
//!   monotonic tickets with SplitMix64-derived per-ticket seeds, the
//!   workers of `greengpu_runtime::parallel::run_ticketed_mut` each own
//!   a disjoint contiguous slice of nodes, and a single-threaded
//!   committer folds the results back in strict ticket order.
//!
//! **Equivalence contract.** All three engines produce byte-identical
//! telemetry (trace CSV, [`crate::FleetReport`] counters,
//! [`crate::CrashRecord`]s) for the same config and seed — pinned by
//! `tests/engine_equivalence.rs`. The event-driven optimizations only
//! skip work that is provably an identity:
//!
//! * an idle node's [`crate::Node::advance`] returns without touching
//!   any state, so advancing only the busy list is exact — and every
//!   busy node still advances at *every* spine event, because job
//!   progress accumulates per-window (`progress += dt / full_s` is not
//!   associative over window splits);
//! * a dead node's [`crate::Node::lifecycle_tick`] is an identity before
//!   `state_until` (the only divergence, a stale thermal flag, is
//!   unreadable in those states and refreshed on wake);
//! * a parked node's quiescent tick senses in full (sensor windows and
//!   reject counters advance exactly as a real tick's would) and skips
//!   only a decide/actuate half that would re-derive the already
//!   enforced levels from an unchanged observation;
//! * a node parked under *exactly* the cap it is being handed skips the
//!   whole control tick (**deep park**): an idle node's utilization
//!   traces are constant zero, so the sense the skip drops would read
//!   bitwise `0.0` over any window — the only state left behind is the
//!   sensors' poll cursor, which [`crate::Node::dispatch`] catches up
//!   (while the traces are still flat) before a job can move them;
//! * a parked node's power demand, and the whole `apportion` call when
//!   no demand moved, reuse last tick's values — both are pure functions
//!   of state the park fingerprint freezes;
//! * a continuously-parked node's periodic checkpoint skips the JSON
//!   re-serialization: the learner state it would snapshot is bit-frozen
//!   while parked, so the stored bytes are already identical.
//!
//! The skipped work that is *not* bit-preserved is confined to
//! unobservable telemetry: per-policy decision-tracker counters, the
//! WMA scaler's interval count inside checkpoint payloads, CPU-governor
//! transition tallies, the controller's `cap_masked_intervals`, and the
//! sensors' last-poll cursor between deep-parked ticks. None of these
//! reach the trace CSV or the report.

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::dispatch::TenantDispatcher;
use crate::fleet::{CrashRecord, DomainOutageRecord, FleetConfig};
use crate::job::{JobRecord, JobSpec};
use crate::lifecycle::{LifecycleParams, NodeState};
use crate::node::{LifecycleEvent, Node};
use crate::power::{apportion, BudgetTree, MilliWatts, NodeDemand};
use crate::retry::RetryQueue;
use crate::scheduler::Scheduler;
use crate::telemetry::{GeoTraceRow, TraceRow};
use crate::topology::TopologyIndex;
use greengpu_hw::{ChaosEvent, ChaosKind, DomainChaosEvent, DomainChaosKind};
use greengpu_runtime::parallel::{run_ticketed_mut, SplitTelemetry};
use greengpu_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which fleet engine executes the run. All three are equivalent —
/// byte-identical outputs per seed — and stay selectable so the serial
/// reference remains available as the differential-testing oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The reference engine: advance every node at every event, full
    /// control ticks everywhere.
    #[default]
    Serial,
    /// Discrete-event engine: busy-list advance, wake agenda for dead
    /// nodes, quiescent parking for idle fixed-point nodes.
    EventDriven,
    /// The event-driven engine with deterministic ticketed fan-out of
    /// the per-tick node batches across worker threads.
    Parallel {
        /// Worker thread count (>= 1; 1 behaves like `EventDriven`).
        workers: usize,
    },
}

impl EngineKind {
    /// Parses a CLI flag value (`serial` | `event` | `parallel`);
    /// `workers` only applies to `parallel`.
    pub fn from_flag(name: &str, workers: usize) -> Result<EngineKind, String> {
        match name {
            "serial" => Ok(EngineKind::Serial),
            "event" => Ok(EngineKind::EventDriven),
            "parallel" => {
                if workers == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                Ok(EngineKind::Parallel { workers })
            }
            other => Err(format!("unknown engine {other:?} (serial | event | parallel)")),
        }
    }

    /// Short stable label for benchmark and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Serial => "serial",
            EngineKind::EventDriven => "event",
            EngineKind::Parallel { .. } => "parallel",
        }
    }
}

/// Event payloads on the fleet spine.
pub(crate) enum Event {
    /// Index into the pre-generated arrival vector.
    Arrival(usize),
    /// A control tick.
    Tick,
    /// Index into the pre-generated chaos event vector (crashes and
    /// thermal emergencies; blackouts are installed at setup).
    Chaos(usize),
    /// Index into the pre-generated *correlated* domain chaos vector
    /// (rack power losses, zone thermal emergencies, zone partitions) —
    /// only present on hierarchical runs.
    Domain(usize),
}

/// Everything the hierarchy adds to a run: the cascading budget tree,
/// per-level circuit breakers, the correlated-failure schedule, and the
/// audit/telemetry it produces. `run_fleet` builds one when the config
/// has a topology and keeps ownership, so report assembly reads the
/// fields straight out after the drive returns; the engines see it as
/// `Option<&mut GeoState>` (flat runs pass `None` and keep their exact
/// pre-hierarchy behavior, byte for byte).
pub(crate) struct GeoState<'a> {
    pub index: &'a TopologyIndex,
    pub domain_events: &'a [DomainChaosEvent],
    pub tree: BudgetTree,
    pub rack_breakers: Vec<CircuitBreaker>,
    pub zone_breakers: Vec<CircuitBreaker>,
    pub domain_records: Vec<DomainOutageRecord>,
    pub rows: Vec<GeoTraceRow>,
    pub rack_losses: u64,
    pub zone_thermal_emergencies: u64,
    pub zone_partitions: u64,
    pub interior_cap_violations: u64,
}

impl<'a> GeoState<'a> {
    /// Fresh hierarchy state over `index`, breakers per rack and zone at
    /// the lifecycle's per-level cooldowns (same backoff cap as the node
    /// breakers).
    pub fn new(index: &'a TopologyIndex, domain_events: &'a [DomainChaosEvent], lc: &LifecycleParams) -> Self {
        GeoState {
            index,
            domain_events,
            tree: BudgetTree::new(index),
            rack_breakers: (0..index.n_racks())
                .map(|_| CircuitBreaker::new(lc.rack_breaker_cooldown_s, lc.breaker_max_backoff_exp))
                .collect(),
            zone_breakers: (0..index.n_zones())
                .map(|_| CircuitBreaker::new(lc.zone_breaker_cooldown_s, lc.breaker_max_backoff_exp))
                .collect(),
            domain_records: Vec::new(),
            rows: Vec::new(),
            rack_losses: 0,
            zone_thermal_emergencies: 0,
            zone_partitions: 0,
            interior_cap_violations: 0,
        }
    }
}

/// Everything `run_fleet` needs back from an engine to assemble the
/// [`crate::FleetReport`].
pub(crate) struct DriveOutcome {
    pub completed: Vec<JobRecord>,
    pub deadline_misses: u64,
    pub rows: Vec<TraceRow>,
    pub crash_records: Vec<CrashRecord>,
    pub jobs_lost: u64,
    /// Telemetry-blackout events that reached the runtime spine. Setup
    /// installs blackouts into the sensor stacks, so this should be 0;
    /// a stray one is counted and ignored rather than aborting the run
    /// (the fleet's panic-freedom contract).
    pub stray_blackout_events: u64,
}

/// Read-only inputs shared by every engine.
pub(crate) struct DriveInputs<'a> {
    pub cfg: &'a FleetConfig,
    pub jobs: &'a [JobSpec],
    pub chaos_events: &'a [ChaosEvent],
    pub budget_mw: MilliWatts,
    /// Root for the parallel engine's per-fan-out ticket seed streams.
    pub ticket_root: u64,
}

/// Smallest batch worth fanning out to worker threads; below this the
/// scoped-thread setup costs more than the work.
const PAR_MIN_BATCH: usize = 32;

/// Runs the configured engine over the spine to the horizon.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    inp: &DriveInputs,
    spine: EventQueue<Event>,
    nodes: &mut [Node],
    scheduler: &mut Scheduler,
    breakers: &mut [CircuitBreaker],
    retry: &mut RetryQueue,
    dispatcher: &mut TenantDispatcher,
    geo: Option<&mut GeoState>,
) -> DriveOutcome {
    match inp.cfg.engine {
        EngineKind::Serial => drive_serial(inp, spine, nodes, scheduler, breakers, retry, dispatcher, geo),
        EngineKind::EventDriven => drive_event(inp, spine, nodes, scheduler, breakers, retry, dispatcher, geo, 1),
        EngineKind::Parallel { workers } => {
            drive_event(inp, spine, nodes, scheduler, breakers, retry, dispatcher, geo, workers)
        }
    }
}

/// Mutable per-run bookkeeping shared by the engines' chaos handlers.
struct ChaosSideEffects<'a> {
    retry: &'a mut RetryQueue,
    breakers: &'a mut [CircuitBreaker],
    crash_records: &'a mut Vec<CrashRecord>,
    last_caps: &'a [MilliWatts],
    /// Node → rack map (empty on flat runs) — lost jobs remember the
    /// rack they died in so the retry soft-avoids it.
    rack_of: &'a [usize],
    jobs_lost: &'a mut u64,
    stray_blackout_events: &'a mut u64,
}

/// Applies one spine chaos event. Returns the id of a node that just
/// crashed (entered `Crashed`), for the event engine's wake agenda.
fn apply_chaos(nodes: &mut [Node], ev: &ChaosEvent, t: SimTime, fx: &mut ChaosSideEffects) -> Option<usize> {
    match ev.kind {
        ChaosKind::Crash { outage_s } => {
            if nodes[ev.node].is_alive() {
                if let Some(job) = nodes[ev.node].crash(t, outage_s) {
                    *fx.jobs_lost += 1;
                    fx.retry.job_lost(job, t, fx.rack_of.get(ev.node).copied());
                }
                fx.breakers[ev.node].record_failure(t);
                fx.crash_records.push(CrashRecord {
                    node: ev.node,
                    at_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
                    cap_before_mw: fx.last_caps[ev.node],
                    cap_after_mw: None,
                });
                return Some(ev.node);
            }
        }
        ChaosKind::ThermalEmergency { duration_s } => {
            if nodes[ev.node].is_alive() {
                nodes[ev.node].thermal_emergency(t, duration_s);
            }
        }
        ChaosKind::TelemetryBlackout { .. } => {
            // Blackouts are installed into the sensor stacks at setup; a
            // stray runtime one is a schedule bug, not a reason to lose
            // the whole fleet run — count it and carry on.
            *fx.stray_blackout_events += 1;
        }
    }
    None
}

/// Applies one correlated domain event, pushing any node that crashed
/// into `crashed` (for the event engine's wake agenda). Shared verbatim
/// by all engines so the hierarchy's side effects cannot drift.
fn apply_domain_event(
    nodes: &mut [Node],
    i: usize,
    t: SimTime,
    g: &mut GeoState,
    fx: &mut ChaosSideEffects,
    crashed: &mut Vec<usize>,
) {
    let ev = g.domain_events[i];
    match ev.kind {
        DomainChaosKind::RackPowerLoss { outage_s } => {
            let rack = ev.domain;
            let zone = g.index.zone_of_rack[rack];
            let at_s = t.saturating_since(SimTime::ZERO).as_secs_f64();
            let rack_cap_before: MilliWatts = g.index.rack_nodes[rack].iter().map(|&n| fx.last_caps[n]).sum();
            let sibling_before: MilliWatts = g.index.zone_nodes[zone]
                .iter()
                .filter(|&&n| g.index.rack_of[n] != rack)
                .map(|&n| fx.last_caps[n])
                .sum();
            for &n in &g.index.rack_nodes[rack] {
                if nodes[n].is_alive() {
                    if let Some(job) = nodes[n].crash(t, outage_s) {
                        *fx.jobs_lost += 1;
                        fx.retry.job_lost(job, t, Some(rack));
                    }
                    fx.breakers[n].record_failure(t);
                    fx.crash_records.push(CrashRecord {
                        node: n,
                        at_s,
                        cap_before_mw: fx.last_caps[n],
                        cap_after_mw: None,
                    });
                    crashed.push(n);
                } else {
                    // A node already down (independent crash, or an
                    // earlier loss of the same rack) loses its restart
                    // progress too — the whole rack is unpowered, so
                    // *every* node in the domain stays at 0 mW demand
                    // through the next apportionment.
                    nodes[n].extend_outage(t, outage_s);
                }
            }
            g.rack_breakers[rack].record_failure(t);
            g.rack_losses += 1;
            g.domain_records.push(DomainOutageRecord {
                rack,
                zone,
                at_s,
                rack_cap_before_mw: rack_cap_before,
                rack_cap_after_mw: None,
                zone_cap_before_mw: g.tree.zone_caps()[zone],
                zone_cap_after_mw: None,
                sibling_caps_before_mw: sibling_before,
                sibling_caps_after_mw: None,
            });
        }
        DomainChaosKind::ZoneThermal { duration_s } => {
            for &n in &g.index.zone_nodes[ev.domain] {
                if nodes[n].is_alive() {
                    nodes[n].thermal_emergency(t, duration_s);
                }
            }
            g.zone_thermal_emergencies += 1;
        }
        DomainChaosKind::ZonePartition { duration_s } => {
            // The zone is unreachable for a known window: its breaker
            // opens for exactly that window (no backoff escalation —
            // see `CircuitBreaker::force_open_until`). The nodes keep
            // running; their sensor blackout windows were installed at
            // setup from the same schedule.
            g.zone_breakers[ev.domain].force_open_until(t + SimDuration::from_secs_f64(duration_s));
            g.zone_partitions += 1;
        }
    }
}

/// Fills the pending `*_after` halves of domain outage records from the
/// caps the first post-event tree tick produced — the hierarchical
/// counterpart of the per-node `CrashRecord` fill.
fn fill_domain_records(g: &mut GeoState, leaf_caps: &[MilliWatts]) {
    let index = g.index;
    let zone_caps = g.tree.zone_caps();
    for rec in g.domain_records.iter_mut().filter(|r| r.rack_cap_after_mw.is_none()) {
        rec.rack_cap_after_mw = Some(index.rack_nodes[rec.rack].iter().map(|&n| leaf_caps[n]).sum());
        rec.zone_cap_after_mw = Some(zone_caps[rec.zone]);
        rec.sibling_caps_after_mw = Some(
            index.zone_nodes[rec.zone]
                .iter()
                .filter(|&&n| index.rack_of[n] != rec.rack)
                .map(|&n| leaf_caps[n])
                .sum(),
        );
    }
}

/// Appends one control interval's interior-node telemetry: a row per
/// region, then per zone, then per rack — caps and the demand each split
/// saw from the budget tree, live-node counts, breaker states.
fn push_geo_rows(g: &mut GeoState, nodes: &[Node], t: SimTime, interval: u64) {
    let index = g.index;
    let time_s = t.saturating_since(SimTime::ZERO).as_secs_f64();
    let mut rack_up = vec![0usize; index.n_racks()];
    let mut zone_up = vec![0usize; index.n_zones()];
    let mut region_up = vec![0usize; index.n_regions()];
    for (n, node) in nodes.iter().enumerate() {
        if node.is_alive() {
            rack_up[index.rack_of[n]] += 1;
            zone_up[index.zone_of[n]] += 1;
            region_up[index.region_of[n]] += 1;
        }
    }
    let to_w = |mw: MilliWatts| mw as f64 / 1000.0;
    for (d, &cap) in g.tree.region_caps().iter().enumerate() {
        g.rows.push(GeoTraceRow {
            interval,
            time_s,
            level: "region",
            domain: d,
            cap_w: to_w(cap),
            demand_w: to_w(g.tree.region_desired()[d]),
            up_nodes: region_up[d],
            breaker_open: 0,
        });
    }
    for (d, &cap) in g.tree.zone_caps().iter().enumerate() {
        g.rows.push(GeoTraceRow {
            interval,
            time_s,
            level: "zone",
            domain: d,
            cap_w: to_w(cap),
            demand_w: to_w(g.tree.zone_desired()[d]),
            up_nodes: zone_up[d],
            breaker_open: usize::from(g.zone_breakers[d].state() == BreakerState::Open),
        });
    }
    for (d, &cap) in g.tree.rack_caps().iter().enumerate() {
        g.rows.push(GeoTraceRow {
            interval,
            time_s,
            level: "rack",
            domain: d,
            cap_w: to_w(cap),
            demand_w: to_w(g.tree.rack_desired()[d]),
            up_nodes: rack_up[d],
            breaker_open: usize::from(g.rack_breakers[d].state() == BreakerState::Open),
        });
    }
}

/// The dispatch mask on a hierarchical run: a node takes work only when
/// its own breaker *and* its rack's *and* its zone's allow it — dispatch
/// routes around an open zone exactly like an open node.
fn mask_domains(allowed: &mut [bool], g: &GeoState) {
    for (n, a) in allowed.iter_mut().enumerate() {
        *a = *a
            && g.rack_breakers[g.index.rack_of[n]].allows_dispatch()
            && g.zone_breakers[g.index.zone_of[n]].allows_dispatch();
    }
}

/// The reference engine: the original fleet loop, verbatim. Every node
/// advances at every event; every live node takes a full control tick.
#[allow(clippy::too_many_arguments)]
fn drive_serial(
    inp: &DriveInputs,
    mut spine: EventQueue<Event>,
    nodes: &mut [Node],
    scheduler: &mut Scheduler,
    breakers: &mut [CircuitBreaker],
    retry: &mut RetryQueue,
    dispatcher: &mut TenantDispatcher,
    mut geo: Option<&mut GeoState>,
) -> DriveOutcome {
    let cfg = inp.cfg;
    let end = SimTime::ZERO + cfg.horizon;
    // Owned copy so the chaos handlers can hold it alongside a mutable
    // borrow of the geo state (empty on flat runs — dispatch and the
    // retry queue treat that as "no topology").
    let rack_of: Vec<usize> = geo.as_deref().map_or_else(Vec::new, |g| g.index.rack_of.clone());
    let mut last_completed: Vec<u64> = vec![0; nodes.len()];
    let mut last_caps: Vec<MilliWatts> = vec![0; nodes.len()];
    let mut crash_records: Vec<CrashRecord> = Vec::new();
    let mut jobs_lost = 0u64;
    let mut stray_blackout_events = 0u64;
    let mut completed: Vec<JobRecord> = Vec::new();
    let mut deadline_misses = 0u64;
    let mut rows = Vec::new();
    let mut t = SimTime::ZERO;
    let mut interval = 0u64;
    let mut tick_no = 0u64;

    while let Some((at, event)) = spine.pop() {
        for node in nodes.iter_mut() {
            if let Some(record) = node.advance(t, at) {
                if record.missed_deadline {
                    deadline_misses += 1;
                }
                completed.push(record);
            }
        }
        t = at;
        match event {
            Event::Arrival(i) => {
                dispatcher.on_arrival(inp.jobs[i].clone(), scheduler, t);
            }
            Event::Chaos(i) => {
                let mut fx = ChaosSideEffects {
                    retry,
                    breakers,
                    crash_records: &mut crash_records,
                    last_caps: &last_caps,
                    rack_of: &rack_of,
                    jobs_lost: &mut jobs_lost,
                    stray_blackout_events: &mut stray_blackout_events,
                };
                apply_chaos(nodes, &inp.chaos_events[i], t, &mut fx);
            }
            Event::Domain(i) => {
                if let Some(g) = geo.as_deref_mut() {
                    let mut fx = ChaosSideEffects {
                        retry,
                        breakers,
                        crash_records: &mut crash_records,
                        last_caps: &last_caps,
                        rack_of: &rack_of,
                        jobs_lost: &mut jobs_lost,
                        stray_blackout_events: &mut stray_blackout_events,
                    };
                    apply_domain_event(nodes, i, t, g, &mut fx, &mut Vec::new());
                }
            }
            Event::Tick => {
                // 1. Failure FSMs and breaker clocks. A cleared probation
                // or a completion since the last tick closes the breaker
                // (and, on hierarchical runs, its rack's and zone's).
                for i in 0..nodes.len() {
                    for ev in nodes[i].lifecycle_tick(t) {
                        if ev == LifecycleEvent::ProbationCleared {
                            breakers[i].record_success();
                        }
                    }
                }
                for b in breakers.iter_mut() {
                    b.tick(t);
                }
                if let Some(g) = geo.as_deref_mut() {
                    for b in g.rack_breakers.iter_mut().chain(g.zone_breakers.iter_mut()) {
                        b.tick(t);
                    }
                }
                for (i, node) in nodes.iter().enumerate() {
                    if node.completed() > last_completed[i] {
                        breakers[i].record_success();
                        if let Some(g) = geo.as_deref_mut() {
                            g.rack_breakers[g.index.rack_of[i]].record_success();
                            g.zone_breakers[g.index.zone_of[i]].record_success();
                        }
                        last_completed[i] = node.completed();
                    }
                }
                // 2. Caps from the *current* demands: a node crashed since
                // the last tick demands nothing, so its budget is already
                // back in the pool here — at the rack level on
                // hierarchical runs (the zone and region splits lag one
                // report each; see `BudgetTree`).
                let demands: Vec<_> = nodes.iter().map(Node::demand).collect();
                let caps = match geo.as_deref_mut() {
                    Some(g) => {
                        let caps = g.tree.tick(inp.budget_mw, &demands);
                        g.interior_cap_violations += g.tree.cap_violations(inp.budget_mw, &caps);
                        fill_domain_records(g, &caps);
                        caps
                    }
                    None => apportion(inp.budget_mw, &demands),
                };
                for rec in crash_records.iter_mut().filter(|r| r.cap_after_mw.is_none()) {
                    rec.cap_after_mw = Some(caps[rec.node]);
                }
                last_caps.copy_from_slice(&caps);
                // 3. Control ticks on live nodes only.
                let mut max_over_w = 0.0f64;
                for (node, &cap) in nodes.iter_mut().zip(&caps) {
                    if node.is_alive() {
                        max_over_w = max_over_w.max(node.control_tick(t, cap));
                    }
                }
                // 4. Deferred best-effort jobs whose green window (or
                // horizon) arrived re-enter first, then retries re-enter
                // ahead of fresh arrivals (reversed so the earliest-ready
                // job ends up frontmost), then dispatch behind the
                // breaker mask (per-node ∧ rack ∧ zone).
                dispatcher.release_due(scheduler, t);
                for r in retry.drain_ready(t).into_iter().rev() {
                    scheduler.requeue_front(r.job, r.avoid_rack);
                }
                let mut allowed: Vec<bool> = breakers.iter().map(CircuitBreaker::allows_dispatch).collect();
                if let Some(g) = geo.as_deref() {
                    mask_domains(&mut allowed, g);
                }
                scheduler.dispatch(nodes, &allowed, &rack_of, t);
                // 5. Periodic learner checkpoints on fully-Up nodes.
                if let Some(k) = cfg.lifecycle.checkpoint_period {
                    if tick_no > 0 && tick_no.is_multiple_of(k) {
                        for node in nodes.iter_mut() {
                            if node.state() == NodeState::Up {
                                node.take_checkpoint();
                            }
                        }
                    }
                }
                tick_no += 1;
                if t > SimTime::ZERO {
                    interval += 1;
                    rows.push(trace_row(
                        cfg,
                        nodes,
                        scheduler,
                        breakers,
                        retry,
                        &caps,
                        t,
                        interval,
                        &completed,
                        deadline_misses,
                        max_over_w,
                    ));
                    if let Some(g) = geo.as_deref_mut() {
                        push_geo_rows(g, nodes, t, interval);
                    }
                    dispatcher.note_interval(t, interval);
                }
            }
        }
    }
    // Account service up to the horizon.
    for node in nodes.iter_mut() {
        if let Some(record) = node.advance(t, end) {
            if record.missed_deadline {
                deadline_misses += 1;
            }
            completed.push(record);
        }
    }

    DriveOutcome {
        completed,
        deadline_misses,
        rows,
        crash_records,
        jobs_lost,
        stray_blackout_events,
    }
}

/// The discrete-event engine (and, with `workers > 1`, the parallel
/// engine). See the module docs for the equivalence argument behind
/// each skipped batch of work.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn drive_event(
    inp: &DriveInputs,
    mut spine: EventQueue<Event>,
    nodes: &mut [Node],
    scheduler: &mut Scheduler,
    breakers: &mut [CircuitBreaker],
    retry: &mut RetryQueue,
    dispatcher: &mut TenantDispatcher,
    mut geo: Option<&mut GeoState>,
    workers: usize,
) -> DriveOutcome {
    let cfg = inp.cfg;
    let end = SimTime::ZERO + cfg.horizon;
    let n = nodes.len();
    let rack_of: Vec<usize> = geo.as_deref().map_or_else(Vec::new, |g| g.index.rack_of.clone());
    let mut last_completed: Vec<u64> = vec![0; n];
    let mut last_caps: Vec<MilliWatts> = vec![0; n];
    let mut crash_records: Vec<CrashRecord> = Vec::new();
    let mut jobs_lost = 0u64;
    let mut stray_blackout_events = 0u64;
    let mut completed: Vec<JobRecord> = Vec::new();
    let mut deadline_misses = 0u64;
    let mut rows = Vec::new();
    let mut t = SimTime::ZERO;
    let mut interval = 0u64;
    let mut tick_no = 0u64;

    // Busy list: ids of nodes with a job in service, ascending — the
    // only nodes `advance` can do anything to. Rebuilt in id order
    // after every dispatch; completions drop out as they land.
    let mut busy: Vec<usize> = Vec::new();
    // Wake agenda for dead nodes: `lifecycle_tick` is an identity on a
    // `Crashed`/`Restarting` node before its `state_until`, so such
    // nodes sleep here and are woken at the first tick at/after it.
    let mut agenda: BinaryHeap<Reverse<(SimTime, usize)>> = BinaryHeap::new();
    let mut dormant: Vec<bool> = vec![false; n];
    // Ticketed fan-out plumbing (only exercised with `workers > 1`).
    let telemetry = SplitTelemetry::new();
    let mut fanout_roots = SplitMix64::new(inp.ticket_root);
    // Deep-park caches: a parked node's demand is a pure function of
    // state the park fingerprint freezes, so last tick's value is
    // bit-reusable; and when no demand moved, `apportion` (a pure
    // function of budget + demands) would reproduce last tick's caps.
    let mut prev_demands: Vec<NodeDemand> = Vec::new();
    let mut caps: Vec<MilliWatts> = Vec::new();

    // Advances service on the busy list from `from` to `to`, streaming
    // completions out in node-id order (busy is ascending), exactly as
    // the serial engine's advance-everyone loop would.
    let advance_busy = |nodes: &mut [Node],
                        busy: &mut Vec<usize>,
                        from: SimTime,
                        to: SimTime,
                        completed: &mut Vec<JobRecord>,
                        deadline_misses: &mut u64,
                        fanout_roots: &mut SplitMix64| {
        if busy.is_empty() {
            return;
        }
        if workers > 1 && busy.len() >= PAR_MIN_BATCH {
            // Fan the whole fleet out (contiguous disjoint slices per
            // worker); idle nodes are no-ops. The committer replays the
            // results in ticket (= node-id) order.
            let out = run_ticketed_mut(&telemetry, workers, fanout_roots.next_u64(), nodes, |_, node| {
                let record = node.advance(from, to);
                let still_busy = !node.is_idle();
                (record, still_busy)
            });
            busy.clear();
            for (i, (record, still_busy)) in out.into_iter().enumerate() {
                if let Some(record) = record {
                    if record.missed_deadline {
                        *deadline_misses += 1;
                    }
                    completed.push(record);
                }
                if still_busy {
                    busy.push(i);
                }
            }
        } else {
            let mut still = Vec::with_capacity(busy.len());
            for &i in busy.iter() {
                if let Some(record) = nodes[i].advance(from, to) {
                    if record.missed_deadline {
                        *deadline_misses += 1;
                    }
                    completed.push(record);
                }
                if !nodes[i].is_idle() {
                    still.push(i);
                }
            }
            *busy = still;
        }
    };

    while let Some((at, event)) = spine.pop() {
        advance_busy(
            nodes,
            &mut busy,
            t,
            at,
            &mut completed,
            &mut deadline_misses,
            &mut fanout_roots,
        );
        t = at;
        match event {
            Event::Arrival(i) => {
                dispatcher.on_arrival(inp.jobs[i].clone(), scheduler, t);
            }
            Event::Chaos(i) => {
                let mut fx = ChaosSideEffects {
                    retry,
                    breakers,
                    crash_records: &mut crash_records,
                    last_caps: &last_caps,
                    rack_of: &rack_of,
                    jobs_lost: &mut jobs_lost,
                    stray_blackout_events: &mut stray_blackout_events,
                };
                if let Some(crashed) = apply_chaos(nodes, &inp.chaos_events[i], t, &mut fx) {
                    // The node just went dark; sleep it until its next
                    // lifecycle transition is due. Its stale busy-list
                    // entry (job already taken) drops out on the next
                    // advance.
                    dormant[crashed] = true;
                    agenda.push(Reverse((nodes[crashed].state_until(), crashed)));
                }
            }
            Event::Domain(i) => {
                if let Some(g) = geo.as_deref_mut() {
                    let mut fx = ChaosSideEffects {
                        retry,
                        breakers,
                        crash_records: &mut crash_records,
                        last_caps: &last_caps,
                        rack_of: &rack_of,
                        jobs_lost: &mut jobs_lost,
                        stray_blackout_events: &mut stray_blackout_events,
                    };
                    let mut crashed = Vec::new();
                    apply_domain_event(nodes, i, t, g, &mut fx, &mut crashed);
                    for id in crashed {
                        dormant[id] = true;
                        agenda.push(Reverse((nodes[id].state_until(), id)));
                    }
                }
            }
            Event::Tick => {
                // 1. Failure FSMs and breaker clocks — skipping dormant
                // nodes, waking the ones whose transition is due.
                while let Some(&Reverse((wake_at, id))) = agenda.peek() {
                    if wake_at > t {
                        break;
                    }
                    agenda.pop();
                    dormant[id] = false;
                }
                for i in 0..n {
                    if dormant[i] {
                        continue;
                    }
                    for ev in nodes[i].lifecycle_tick(t) {
                        if ev == LifecycleEvent::ProbationCleared {
                            breakers[i].record_success();
                        }
                    }
                    if matches!(nodes[i].state(), NodeState::Crashed | NodeState::Restarting) {
                        // Still (or newly) dark: back to sleep until the
                        // next transition instant.
                        dormant[i] = true;
                        agenda.push(Reverse((nodes[i].state_until(), i)));
                    }
                }
                for b in breakers.iter_mut() {
                    b.tick(t);
                }
                if let Some(g) = geo.as_deref_mut() {
                    for b in g.rack_breakers.iter_mut().chain(g.zone_breakers.iter_mut()) {
                        b.tick(t);
                    }
                }
                for (i, node) in nodes.iter().enumerate() {
                    if node.completed() > last_completed[i] {
                        breakers[i].record_success();
                        if let Some(g) = geo.as_deref_mut() {
                            g.rack_breakers[g.index.rack_of[i]].record_success();
                            g.zone_breakers[g.index.zone_of[i]].record_success();
                        }
                        last_completed[i] = node.completed();
                    }
                }
                // 2. Caps from the current demands (identical to serial).
                // A parked node's demand is frozen by the park
                // fingerprint, so reuse last tick's value; and when no
                // demand moved at all, `apportion` would reproduce last
                // tick's caps bit-for-bit, so skip it too. The budget
                // *tree* ticks unconditionally — its lagged upward
                // reports advance every interval even when no demand
                // moved, so the skip would freeze the cascade mid-flight.
                let demands: Vec<NodeDemand> = nodes
                    .iter()
                    .enumerate()
                    .map(|(i, node)| {
                        if node.is_parked() && i < prev_demands.len() {
                            prev_demands[i]
                        } else {
                            node.demand()
                        }
                    })
                    .collect();
                if let Some(g) = geo.as_deref_mut() {
                    caps = g.tree.tick(inp.budget_mw, &demands);
                    g.interior_cap_violations += g.tree.cap_violations(inp.budget_mw, &caps);
                    fill_domain_records(g, &caps);
                } else if caps.is_empty() || demands != prev_demands {
                    caps = apportion(inp.budget_mw, &demands);
                }
                prev_demands = demands;
                for rec in crash_records.iter_mut().filter(|r| r.cap_after_mw.is_none()) {
                    rec.cap_after_mw = Some(caps[rec.node]);
                }
                last_caps.copy_from_slice(&caps);
                // 3. Control ticks on live nodes — through the parking
                // protocol, and fanned out when the fleet is big enough.
                // A node parked under exactly the cap it is being handed
                // is skipped outright (deep park): the fast path would
                // only re-read constant-zero idle utilizations and
                // rewrite every field with the same bits, and returns
                // 0.0 overage by the park invariant.
                let mut max_over_w = 0.0f64;
                if workers > 1 && n >= PAR_MIN_BATCH {
                    let caps_ref: &[MilliWatts] = &caps;
                    let overs = run_ticketed_mut(&telemetry, workers, fanout_roots.next_u64(), nodes, |tk, node| {
                        let cap = caps_ref[tk.index];
                        if node.is_alive() && node.parked_under() != Some(cap) {
                            node.control_tick_parkable(t, cap)
                        } else {
                            0.0
                        }
                    });
                    for over in overs {
                        max_over_w = max_over_w.max(over);
                    }
                } else {
                    for (node, &cap) in nodes.iter_mut().zip(&caps) {
                        if node.is_alive() && node.parked_under() != Some(cap) {
                            max_over_w = max_over_w.max(node.control_tick_parkable(t, cap));
                        }
                    }
                }
                // 4. Deferral releases, then retries, then dispatch
                // behind the breaker mask (identical to serial).
                dispatcher.release_due(scheduler, t);
                for r in retry.drain_ready(t).into_iter().rev() {
                    scheduler.requeue_front(r.job, r.avoid_rack);
                }
                let mut allowed: Vec<bool> = breakers.iter().map(CircuitBreaker::allows_dispatch).collect();
                if let Some(g) = geo.as_deref() {
                    mask_domains(&mut allowed, g);
                }
                scheduler.dispatch(nodes, &allowed, &rack_of, t);
                // Dispatch may have put jobs on idle nodes; rebuild the
                // busy list in id order.
                busy.clear();
                busy.extend(nodes.iter().enumerate().filter(|(_, n)| !n.is_idle()).map(|(i, _)| i));
                // 5. Periodic learner checkpoints on fully-Up nodes.
                if let Some(k) = cfg.lifecycle.checkpoint_period {
                    if tick_no > 0 && tick_no.is_multiple_of(k) {
                        for node in nodes.iter_mut() {
                            if node.state() == NodeState::Up {
                                node.take_checkpoint();
                            }
                        }
                    }
                }
                tick_no += 1;
                if t > SimTime::ZERO {
                    interval += 1;
                    rows.push(trace_row(
                        cfg,
                        nodes,
                        scheduler,
                        breakers,
                        retry,
                        &caps,
                        t,
                        interval,
                        &completed,
                        deadline_misses,
                        max_over_w,
                    ));
                    if let Some(g) = geo.as_deref_mut() {
                        push_geo_rows(g, nodes, t, interval);
                    }
                    dispatcher.note_interval(t, interval);
                }
            }
        }
    }
    // Account service up to the horizon.
    advance_busy(
        nodes,
        &mut busy,
        t,
        end,
        &mut completed,
        &mut deadline_misses,
        &mut fanout_roots,
    );

    DriveOutcome {
        completed,
        deadline_misses,
        rows,
        crash_records,
        jobs_lost,
        stray_blackout_events,
    }
}

/// One per-interval telemetry row — shared verbatim by all engines so
/// the CSV bytes cannot drift between them.
#[allow(clippy::too_many_arguments)]
fn trace_row(
    cfg: &FleetConfig,
    nodes: &[Node],
    scheduler: &Scheduler,
    breakers: &[CircuitBreaker],
    retry: &RetryQueue,
    caps: &[MilliWatts],
    t: SimTime,
    interval: u64,
    completed: &[JobRecord],
    deadline_misses: u64,
    max_over_w: f64,
) -> TraceRow {
    let window_start = SimTime::ZERO + cfg.control_period.mul_f64((interval - 1) as f64);
    let dt = t.saturating_since(window_start).as_secs_f64().max(1e-12);
    // Integrate each node's two meters once; `g + c` is exactly what
    // `Platform::total_energy_j` returns, and both sums keep node order.
    let energy_j: Vec<(f64, f64)> = nodes
        .iter()
        .map(|n| {
            let g = n.platform().gpu_energy_j(window_start, t);
            (g, g + n.platform().cpu_energy_j(window_start, t))
        })
        .collect();
    let gpu_power_w: f64 = energy_j.iter().map(|&(g, _)| g).sum::<f64>() / dt;
    let total_power_w: f64 = energy_j.iter().map(|&(_, total)| total).sum::<f64>() / dt;
    TraceRow {
        interval,
        time_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
        queue_depth: scheduler.depth(),
        busy_nodes: nodes.iter().filter(|n| !n.is_idle()).count(),
        healthy_nodes: nodes.iter().filter(|n| n.healthy()).count(),
        gpu_power_w,
        total_power_w,
        fleet_cap_w: caps.iter().sum::<u64>() as f64 / 1000.0,
        budget_w: cfg.budget_w,
        completed: completed.len() as u64,
        rejected: scheduler.rejected(),
        deadline_misses,
        cap_violations: nodes.iter().map(Node::cap_violations).sum(),
        max_pair_over_cap_w: max_over_w,
        up_nodes: nodes.iter().filter(|n| n.is_alive()).count(),
        open_breakers: breakers.iter().filter(|b| b.state() == BreakerState::Open).count(),
        retry_depth: retry.pending_len(),
        dead_lettered: retry.dead_letter_total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Policy;
    use greengpu_sim::SimDuration;

    /// Regression for the old `unreachable!("blackouts are installed at
    /// setup")` panic: a telemetry-blackout event that reaches the
    /// runtime spine (a schedule bug by construction — `run_fleet`
    /// filters them out) must be counted and ignored, never abort the
    /// fleet. Exercised on all three engines by driving the loop
    /// directly with a hand-built spine.
    #[test]
    fn stray_blackout_event_is_a_counted_noop() {
        for engine in [
            EngineKind::Serial,
            EngineKind::EventDriven,
            EngineKind::Parallel { workers: 2 },
        ] {
            let cfg = crate::FleetConfig::homogeneous(2, 0.9, Policy::LeastLoaded, SimDuration::from_secs(3), 11)
                .with_engine(engine);
            let mix: Vec<String> = cfg.arrivals.mix.iter().map(|(n, _)| n.clone()).collect();
            let mut nodes: Vec<Node> = cfg
                .nodes
                .iter()
                .enumerate()
                .map(|(i, nc)| Node::new(i, nc, &mix, 1234))
                .collect();
            let chaos_events = vec![ChaosEvent {
                at: SimTime::ZERO + SimDuration::from_secs(1),
                node: 0,
                kind: ChaosKind::TelemetryBlackout { duration_s: 1.0 },
            }];
            let mut spine: EventQueue<Event> = EventQueue::new();
            let mut tick_at = SimTime::ZERO;
            let end = SimTime::ZERO + cfg.horizon;
            while tick_at <= end {
                spine.schedule(tick_at, Event::Tick);
                tick_at += cfg.control_period;
            }
            spine.schedule(chaos_events[0].at, Event::Chaos(0));
            let mut scheduler = Scheduler::new(cfg.policy, cfg.queue_capacity);
            let mut breakers: Vec<CircuitBreaker> = (0..nodes.len())
                .map(|_| CircuitBreaker::new(cfg.lifecycle.breaker_cooldown_s, cfg.lifecycle.breaker_max_backoff_exp))
                .collect();
            let mut retry = RetryQueue::new(
                cfg.lifecycle.max_retries,
                cfg.lifecycle.retry_backoff_s,
                cfg.lifecycle.dead_letter_capacity,
            );
            let mut dispatcher = TenantDispatcher::passthrough();
            let inputs = DriveInputs {
                cfg: &cfg,
                jobs: &[],
                chaos_events: &chaos_events,
                budget_mw: 1_000_000,
                ticket_root: 5,
            };
            let outcome = drive(
                &inputs,
                spine,
                &mut nodes,
                &mut scheduler,
                &mut breakers,
                &mut retry,
                &mut dispatcher,
                None,
            );
            assert_eq!(outcome.stray_blackout_events, 1, "engine {engine:?}");
            assert_eq!(outcome.rows.len(), 3, "engine {engine:?} still ran to the horizon");
        }
    }

    #[test]
    fn engine_flag_parsing_round_trips() {
        assert_eq!(EngineKind::from_flag("serial", 1), Ok(EngineKind::Serial));
        assert_eq!(EngineKind::from_flag("event", 4), Ok(EngineKind::EventDriven));
        assert_eq!(
            EngineKind::from_flag("parallel", 4),
            Ok(EngineKind::Parallel { workers: 4 })
        );
        assert!(EngineKind::from_flag("parallel", 0).is_err());
        assert!(EngineKind::from_flag("turbo", 1).is_err());
        assert_eq!(EngineKind::Parallel { workers: 4 }.label(), "parallel");
        assert_eq!(EngineKind::default(), EngineKind::Serial);
    }
}
