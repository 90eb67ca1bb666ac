//! A replay of the serial fleet engine's tick through the cluster
//! crate's public API, with a span around each layer.
//!
//! `run_fleet` with `EngineKind::Serial` runs the reference loop inside
//! the crate, where nothing can time its steps from outside. This module
//! rebuilds the same run from the public pieces — `Node`, `Scheduler`,
//! `CircuitBreaker`, `RetryQueue`, `TenantDispatcher`, `apportion` /
//! `BudgetTree::tick`, `generate_arrivals`, `ChaosPlan::schedule*` — in
//! the same order, and records a [`Span`](crate::spans::Span) per control
//! interval and layer. The benchmark's tests hold the replay to the real
//! serial run: same trace CSV bytes and the same completed, admitted and
//! rejected counts.
//!
//! Left out because nothing downstream of them feeds back into the run:
//! the per-crash and per-outage cap audits (`CrashRecord`,
//! `DomainOutageRecord`) and the serving layer (the benchmark's fleets
//! are single-stream).

use crate::spans::{Layer, Recorder};
use greengpu_cluster::job::generate_arrivals;
use greengpu_cluster::power::{mw_floor, MilliWatts};
use greengpu_cluster::{
    apportion, BreakerState, BudgetTree, CircuitBreaker, FleetConfig, FleetTrace, GeoTrace, GeoTraceRow,
    LifecycleEvent, Node, NodeDemand, NodeState, RetryQueue, Scheduler, ServiceProfile, TenantDispatcher,
    TopologyIndex, TraceRow,
};
use greengpu_hw::{ChaosEvent, ChaosKind, DomainChaosEvent, DomainChaosKind};
use greengpu_sim::{EventQueue, SimDuration, SimTime, SplitMix64};
use std::collections::BTreeMap;
use std::time::Instant;

/// Spine events, in the serial engine's scheduling order.
enum Event {
    Arrival(usize),
    Tick,
    Chaos(usize),
    Domain(usize),
}

/// What a replay produced, for the faithfulness checks and the layer
/// metrics.
pub struct ReplayOutcome {
    /// Jobs completed by the horizon.
    pub completed: u64,
    /// Jobs admitted by the scheduler.
    pub admitted: u64,
    /// Jobs rejected by admission.
    pub rejected: u64,
    /// Whole-fleet energy over the horizon, joules.
    pub total_energy_j: f64,
    /// Per-interval fleet telemetry, row for row as the engine's.
    pub trace: FleetTrace,
    /// Per-interval interior-node telemetry (empty on flat fleets).
    pub geo_trace: GeoTrace,
    /// Wall seconds spent building the nodes.
    pub node_build_s: f64,
    /// `Node::advance` calls made on a node holding a job.
    pub busy_advances: u64,
    /// Checkpoints serialized.
    pub checkpoints: u64,
    /// Bytes of those checkpoints.
    pub checkpoint_bytes: u64,
    /// Restarts that restored a checkpoint.
    pub warm_restarts: u64,
    /// Restarts that started cold.
    pub cold_restarts: u64,
    /// Crashes that landed on live nodes.
    pub crashes: u64,
    /// Correlated rack power losses applied.
    pub rack_losses: u64,
    /// Re-dispatches queued by the retry machinery.
    pub jobs_retried: u64,
    /// Node circuit-breaker openings.
    pub breaker_trips: u64,
    /// Jobs that exhausted their retries.
    pub dead_lettered: u64,
    /// Interior budget-tree nodes whose children's caps summed past
    /// their own.
    pub interior_cap_violations: u64,
    /// Mean queueing delay of completed jobs, simulated seconds.
    pub queue_wait_mean_s: f64,
    /// Wall seconds of the whole replay, node build included.
    pub wall_s: f64,
}

/// The hierarchy's share of the replay state (hierarchical fleets only).
struct Geo {
    index: TopologyIndex,
    events: Vec<DomainChaosEvent>,
    tree: BudgetTree,
    rack_breakers: Vec<CircuitBreaker>,
    zone_breakers: Vec<CircuitBreaker>,
    rows: Vec<GeoTraceRow>,
    rack_losses: u64,
    interior_cap_violations: u64,
}

/// Replays `cfg` to its horizon on the serial tick, recording spans into
/// `rec`. Fails on a config the replay does not cover (a serving layer)
/// or that `FleetConfig::try_validate` rejects.
pub fn replay(cfg: &FleetConfig, rec: &mut Recorder) -> Result<ReplayOutcome, String> {
    cfg.try_validate()?;
    if cfg.serving.is_some() {
        return Err("the replay covers single-stream fleets only".to_string());
    }
    let wall = Instant::now();
    let mix: Vec<String> = cfg.arrivals.mix.iter().map(|(n, _)| n.clone()).collect();
    let mut root = SplitMix64::new(cfg.seed);
    let profile_seed = root.next_u64();
    let arrival_seed = root.next_u64();

    // Nodes, sharing one profile table per distinct card as `run_fleet`
    // does.
    let build = Instant::now();
    let mut tables: BTreeMap<String, BTreeMap<String, ServiceProfile>> = BTreeMap::new();
    let mut nodes: Vec<Node> = Vec::with_capacity(cfg.nodes.len());
    for (i, nc) in cfg.nodes.iter().enumerate() {
        let profiles = tables.entry(format!("{:?}", nc.gpu)).or_insert_with(|| {
            mix.iter()
                .map(|name| {
                    let p = ServiceProfile::build(name, profile_seed, &nc.gpu);
                    (
                        name.clone(),
                        p.unwrap_or_else(|| panic!("mix workload {name} has no profile")),
                    )
                })
                .collect()
        });
        let mut node = Node::try_new_with_profiles(i, nc, profiles.clone(), profile_seed)?;
        node.set_lifecycle(cfg.lifecycle.restart_s, cfg.lifecycle.probation_intervals);
        nodes.push(node);
    }
    let node_build_s = build.elapsed().as_secs_f64();

    // Chaos: blackout windows (and zone partitions' sensor darkness) go
    // into the sensor stacks now; crashes, thermals and domain events go
    // on the spine.
    let index = cfg.topology.as_ref().map(|t| t.index());
    let mut chaos_events: Vec<ChaosEvent> = Vec::new();
    let mut domain_events: Vec<DomainChaosEvent> = Vec::new();
    if let Some(plan) = &cfg.chaos {
        let mut per_node: Vec<Vec<(SimTime, SimTime)>> = vec![Vec::new(); nodes.len()];
        for ev in plan.schedule(nodes.len(), cfg.horizon.as_secs_f64()) {
            match ev.kind {
                ChaosKind::TelemetryBlackout { duration_s } => {
                    per_node[ev.node].push((ev.at, ev.at + SimDuration::from_secs_f64(duration_s)));
                }
                ChaosKind::Crash { .. } | ChaosKind::ThermalEmergency { .. } => chaos_events.push(ev),
            }
        }
        if let Some(idx) = &index {
            domain_events = plan.schedule_domains(idx.n_racks(), idx.n_zones(), cfg.horizon.as_secs_f64());
            for ev in &domain_events {
                if let DomainChaosKind::ZonePartition { duration_s } = ev.kind {
                    let until = ev.at + SimDuration::from_secs_f64(duration_s);
                    for &n in &idx.zone_nodes[ev.domain] {
                        per_node[n].push((ev.at, until));
                    }
                }
            }
            for windows in &mut per_node {
                windows.sort();
            }
        }
        for (node, windows) in nodes.iter_mut().zip(per_node) {
            if !windows.is_empty() {
                node.set_blackouts(windows);
            }
        }
    }

    let floor_mw: MilliWatts = nodes.iter().map(|n| n.demand().floor_mw).sum();
    let budget_mw = mw_floor(cfg.budget_w);
    if budget_mw < floor_mw {
        return Err(format!(
            "budget {budget_mw} mW cannot cover the fleet floor {floor_mw} mW"
        ));
    }
    let ref_time_s: BTreeMap<String, f64> = mix
        .iter()
        .map(|name| {
            (
                name.clone(),
                nodes[0].profile(name).map_or(1.0, ServiceProfile::peak_time_s),
            )
        })
        .collect();
    let jobs = generate_arrivals(arrival_seed, &cfg.arrivals, cfg.horizon, &ref_time_s);

    let mut spine: EventQueue<Event> = EventQueue::new();
    let end = SimTime::ZERO + cfg.horizon;
    let mut tick_at = SimTime::ZERO;
    while tick_at <= end {
        spine.schedule(tick_at, Event::Tick);
        tick_at += cfg.control_period;
    }
    for (i, job) in jobs.iter().enumerate() {
        spine.schedule(job.arrival, Event::Arrival(i));
    }
    for (i, ev) in chaos_events.iter().enumerate() {
        spine.schedule(ev.at, Event::Chaos(i));
    }
    for (i, ev) in domain_events.iter().enumerate() {
        spine.schedule(ev.at, Event::Domain(i));
    }

    let lc = &cfg.lifecycle;
    let mut scheduler = Scheduler::new(cfg.policy, cfg.queue_capacity);
    let mut breakers: Vec<CircuitBreaker> = (0..nodes.len())
        .map(|_| CircuitBreaker::new(lc.breaker_cooldown_s, lc.breaker_max_backoff_exp))
        .collect();
    let mut retry = RetryQueue::new(lc.max_retries, lc.retry_backoff_s, lc.dead_letter_capacity);
    let mut dispatcher = TenantDispatcher::passthrough();
    let mut geo = index.map(|index| Geo {
        tree: BudgetTree::new(&index),
        rack_breakers: (0..index.n_racks())
            .map(|_| CircuitBreaker::new(lc.rack_breaker_cooldown_s, lc.breaker_max_backoff_exp))
            .collect(),
        zone_breakers: (0..index.n_zones())
            .map(|_| CircuitBreaker::new(lc.zone_breaker_cooldown_s, lc.breaker_max_backoff_exp))
            .collect(),
        index,
        events: domain_events,
        rows: Vec::new(),
        rack_losses: 0,
        interior_cap_violations: 0,
    });
    let rack_of: Vec<usize> = geo.as_ref().map_or_else(Vec::new, |g| g.index.rack_of.clone());

    let n = nodes.len();
    let mut last_completed = vec![0u64; n];
    let mut completed = Vec::new();
    let mut deadline_misses = 0u64;
    let mut rows: Vec<TraceRow> = Vec::new();
    let mut busy_advances = 0u64;
    let mut checkpoints = 0u64;
    let mut checkpoint_bytes = 0u64;
    let mut t = SimTime::ZERO;
    let mut interval = 0u64;
    let mut tick_no = 0u64;

    while let Some((at, event)) = spine.pop() {
        let s = rec.start();
        let mut busy = 0u64;
        for node in nodes.iter_mut() {
            busy += u64::from(!node.is_idle());
            if let Some(record) = node.advance(t, at) {
                deadline_misses += u64::from(record.missed_deadline);
                completed.push(record);
            }
        }
        rec.finish(s, Layer::Advance, busy);
        busy_advances += busy;
        t = at;
        match event {
            Event::Arrival(i) => dispatcher.on_arrival(jobs[i].clone(), &mut scheduler, t),
            Event::Chaos(i) => {
                let ev = &chaos_events[i];
                let node = &mut nodes[ev.node];
                match ev.kind {
                    ChaosKind::Crash { outage_s } if node.is_alive() => {
                        if let Some(job) = node.crash(t, outage_s) {
                            retry.job_lost(job, t, rack_of.get(ev.node).copied());
                        }
                        breakers[ev.node].record_failure(t);
                    }
                    ChaosKind::ThermalEmergency { duration_s } if node.is_alive() => {
                        node.thermal_emergency(t, duration_s);
                    }
                    _ => {}
                }
            }
            Event::Domain(i) => {
                if let Some(g) = geo.as_mut() {
                    apply_domain_event(&mut nodes, g, i, t, &mut breakers, &mut retry);
                }
            }
            Event::Tick => {
                // 1. Failure FSMs and breaker clocks; a due restart (the
                // checkpoint restore) gets a span of its own.
                let s = rec.start();
                for i in 0..n {
                    let restoring = nodes[i].state() == NodeState::Restarting && t >= nodes[i].state_until();
                    let r = if restoring { rec.start() } else { None };
                    for ev in nodes[i].lifecycle_tick(t) {
                        if ev == LifecycleEvent::ProbationCleared {
                            breakers[i].record_success();
                        }
                    }
                    if restoring {
                        rec.finish(r, Layer::Restore, 1);
                    }
                }
                for b in breakers.iter_mut() {
                    b.tick(t);
                }
                if let Some(g) = geo.as_mut() {
                    for b in g.rack_breakers.iter_mut().chain(g.zone_breakers.iter_mut()) {
                        b.tick(t);
                    }
                }
                for (i, node) in nodes.iter().enumerate() {
                    if node.completed() > last_completed[i] {
                        breakers[i].record_success();
                        if let Some(g) = geo.as_mut() {
                            g.rack_breakers[g.index.rack_of[i]].record_success();
                            g.zone_breakers[g.index.zone_of[i]].record_success();
                        }
                        last_completed[i] = node.completed();
                    }
                }
                rec.finish(s, Layer::Lifecycle, n as u64);

                // 2. Caps from the current demands.
                let s = rec.start();
                let demands: Vec<NodeDemand> = nodes.iter().map(Node::demand).collect();
                let caps = match geo.as_mut() {
                    Some(g) => {
                        let caps = g.tree.tick(budget_mw, &demands);
                        g.interior_cap_violations += g.tree.cap_violations(budget_mw, &caps);
                        caps
                    }
                    None => apportion(budget_mw, &demands),
                };
                rec.finish(s, Layer::Power, 1);

                // 3. Control ticks on live nodes.
                let s = rec.start();
                let mut live = 0u64;
                let mut max_over_w = 0.0f64;
                for (node, &cap) in nodes.iter_mut().zip(&caps) {
                    if node.is_alive() {
                        live += 1;
                        max_over_w = max_over_w.max(node.control_tick(t, cap));
                    }
                }
                rec.finish(s, Layer::Control, live);

                // 4. Deferral releases, retries, then dispatch behind the
                // breaker mask.
                let s = rec.start();
                dispatcher.release_due(&mut scheduler, t);
                for r in retry.drain_ready(t).into_iter().rev() {
                    scheduler.requeue_front(r.job, r.avoid_rack);
                }
                let mut allowed: Vec<bool> = breakers.iter().map(CircuitBreaker::allows_dispatch).collect();
                if let Some(g) = geo.as_ref() {
                    for (i, a) in allowed.iter_mut().enumerate() {
                        *a = *a
                            && g.rack_breakers[g.index.rack_of[i]].allows_dispatch()
                            && g.zone_breakers[g.index.zone_of[i]].allows_dispatch();
                    }
                }
                let dispatched = scheduler.dispatch(&mut nodes, &allowed, &rack_of, t);
                rec.finish(s, Layer::Dispatch, dispatched as u64);

                // 5. Periodic learner checkpoints on fully-Up nodes.
                if let Some(k) = lc.checkpoint_period {
                    if tick_no > 0 && tick_no.is_multiple_of(k) {
                        let s = rec.start();
                        let mut taken = 0u64;
                        for node in nodes.iter_mut().filter(|n| n.state() == NodeState::Up) {
                            node.take_checkpoint();
                            taken += 1;
                            checkpoint_bytes += node.checkpoint_data().map_or(0, |c| c.len() as u64);
                        }
                        checkpoints += taken;
                        rec.finish(s, Layer::Checkpoint, taken);
                    }
                }
                tick_no += 1;

                // 6. Telemetry rows.
                if t > SimTime::ZERO {
                    interval += 1;
                    let window_start = SimTime::ZERO + cfg.control_period.mul_f64((interval - 1) as f64);
                    rows.push(TraceRow {
                        interval,
                        time_s: t.saturating_since(SimTime::ZERO).as_secs_f64(),
                        queue_depth: scheduler.depth(),
                        busy_nodes: nodes.iter().filter(|n| !n.is_idle()).count(),
                        healthy_nodes: nodes.iter().filter(|n| n.healthy()).count(),
                        gpu_power_w: mean_power_w(&nodes, window_start, t, false),
                        total_power_w: mean_power_w(&nodes, window_start, t, true),
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
                    });
                    if let Some(g) = geo.as_mut() {
                        push_geo_rows(g, &nodes, t, interval);
                    }
                }
                rec.end_interval();
            }
        }
    }
    let s = rec.start();
    let mut busy = 0u64;
    for node in nodes.iter_mut() {
        busy += u64::from(!node.is_idle());
        if let Some(record) = node.advance(t, end) {
            completed.push(record);
        }
    }
    rec.finish(s, Layer::Advance, busy);
    rec.end_interval();
    busy_advances += busy;

    let queue_wait_mean_s = if completed.is_empty() {
        0.0
    } else {
        completed.iter().map(|r| r.wait_s()).sum::<f64>() / completed.len() as f64
    };
    Ok(ReplayOutcome {
        completed: completed.len() as u64,
        admitted: scheduler.admitted(),
        rejected: scheduler.rejected(),
        total_energy_j: nodes
            .iter()
            .map(|n| n.platform().total_energy_j(SimTime::ZERO, end))
            .sum(),
        trace: FleetTrace { rows },
        node_build_s,
        busy_advances,
        checkpoints,
        checkpoint_bytes,
        warm_restarts: nodes.iter().map(Node::warm_restarts).sum(),
        cold_restarts: nodes.iter().map(Node::cold_restarts).sum(),
        crashes: nodes.iter().map(Node::crashes).sum(),
        rack_losses: geo.as_ref().map_or(0, |g| g.rack_losses),
        jobs_retried: retry.retried(),
        breaker_trips: breakers.iter().map(CircuitBreaker::trips).sum(),
        dead_lettered: retry.dead_letter_total(),
        interior_cap_violations: geo.as_ref().map_or(0, |g| g.interior_cap_violations),
        geo_trace: GeoTrace {
            rows: geo.map_or_else(Vec::new, |g| g.rows),
        },
        queue_wait_mean_s,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// Mean fleet power over `(from, to]`, GPU board only or whole node.
fn mean_power_w(nodes: &[Node], from: SimTime, to: SimTime, whole_node: bool) -> f64 {
    let dt = to.saturating_since(from).as_secs_f64().max(1e-12);
    let energy_j: f64 = nodes
        .iter()
        .map(|n| {
            if whole_node {
                n.platform().total_energy_j(from, to)
            } else {
                n.platform().gpu_energy_j(from, to)
            }
        })
        .sum();
    energy_j / dt
}

/// Applies one correlated domain event, as the engine does.
fn apply_domain_event(
    nodes: &mut [Node],
    g: &mut Geo,
    i: usize,
    t: SimTime,
    breakers: &mut [CircuitBreaker],
    retry: &mut RetryQueue,
) {
    let ev = g.events[i];
    match ev.kind {
        DomainChaosKind::RackPowerLoss { outage_s } => {
            let rack = ev.domain;
            for &n in &g.index.rack_nodes[rack] {
                if nodes[n].is_alive() {
                    if let Some(job) = nodes[n].crash(t, outage_s) {
                        retry.job_lost(job, t, Some(rack));
                    }
                    breakers[n].record_failure(t);
                } else {
                    nodes[n].extend_outage(t, outage_s);
                }
            }
            g.rack_breakers[rack].record_failure(t);
            g.rack_losses += 1;
        }
        DomainChaosKind::ZoneThermal { duration_s } => {
            for &n in &g.index.zone_nodes[ev.domain] {
                if nodes[n].is_alive() {
                    nodes[n].thermal_emergency(t, duration_s);
                }
            }
        }
        DomainChaosKind::ZonePartition { duration_s } => {
            g.zone_breakers[ev.domain].force_open_until(t + SimDuration::from_secs_f64(duration_s));
        }
    }
}

/// Appends one interval's interior-node rows (regions, zones, racks).
fn push_geo_rows(g: &mut Geo, nodes: &[Node], t: SimTime, interval: u64) {
    let index = &g.index;
    let time_s = t.saturating_since(SimTime::ZERO).as_secs_f64();
    let mut rack_up = vec![0usize; index.n_racks()];
    let mut zone_up = vec![0usize; index.n_zones()];
    let mut region_up = vec![0usize; index.n_regions()];
    for n in (0..nodes.len()).filter(|&n| nodes[n].is_alive()) {
        rack_up[index.rack_of[n]] += 1;
        zone_up[index.zone_of[n]] += 1;
        region_up[index.region_of[n]] += 1;
    }
    let to_w = |mw: MilliWatts| mw as f64 / 1000.0;
    let rows = &mut g.rows;
    let mut push = |level: &'static str,
                    caps: &[MilliWatts],
                    desired: &[MilliWatts],
                    up: &[usize],
                    breakers: Option<&[CircuitBreaker]>| {
        for (d, &cap) in caps.iter().enumerate() {
            rows.push(GeoTraceRow {
                interval,
                time_s,
                level,
                domain: d,
                cap_w: to_w(cap),
                demand_w: to_w(desired[d]),
                up_nodes: up[d],
                breaker_open: breakers.map_or(0, |b| usize::from(b[d].state() == BreakerState::Open)),
            });
        }
    };
    push(
        "region",
        g.tree.region_caps(),
        g.tree.region_desired(),
        &region_up,
        None,
    );
    push(
        "zone",
        g.tree.zone_caps(),
        g.tree.zone_desired(),
        &zone_up,
        Some(&g.zone_breakers),
    );
    push(
        "rack",
        g.tree.rack_caps(),
        g.tree.rack_desired(),
        &rack_up,
        Some(&g.rack_breakers),
    );
}
