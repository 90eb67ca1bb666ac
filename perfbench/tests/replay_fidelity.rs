//! The replay is only a trustworthy place to hang layer spans if it runs
//! the same simulation as the engine. These tests hold it to
//! `run_fleet` with `EngineKind::Serial`.
//!
//! Run in release mode: the workload-size cases simulate the benchmark's
//! full fleets (`cargo test --release --manifest-path perfbench/Cargo.toml`).

use greengpu_cluster::{run_fleet, EngineKind, FleetConfig, FleetReport, NodeConfig, Policy, Topology};
use greengpu_hw::ChaosPlan;
use greengpu_sim::SimDuration;
use perfbench::fleets::{self, Fleet};
use perfbench::replay::{replay, ReplayOutcome};
use perfbench::spans::{Layer, Recorder};

fn counts_r(r: &FleetReport) -> (u64, u64, u64) {
    (r.completed.len() as u64, r.admitted, r.rejected)
}

fn counts_o(o: &ReplayOutcome) -> (u64, u64, u64) {
    (o.completed, o.admitted, o.rejected)
}

/// Replays `cfg` (traced) and runs it on the serial engine.
fn both(cfg: &FleetConfig) -> (ReplayOutcome, Recorder, FleetReport) {
    let cfg = cfg.clone().with_engine(EngineKind::Serial);
    let mut rec = Recorder::new(true);
    let out = replay(&cfg, &mut rec).expect("replayable config");
    (out, rec, run_fleet(&cfg))
}

/// Asserts the replay reproduced the engine's run exactly: counts,
/// energy, and the trace CSVs byte for byte.
fn assert_exact(out: &ReplayOutcome, real: &FleetReport) {
    assert_eq!(counts_o(out), counts_r(real), "completed, admitted, rejected");
    assert_eq!(out.total_energy_j.to_bits(), real.total_energy_j.to_bits());
    assert_eq!(out.crashes, real.crashes);
    assert_eq!(
        (out.warm_restarts, out.cold_restarts),
        (real.warm_restarts, real.cold_restarts)
    );
    assert_eq!(out.jobs_retried, real.jobs_retried);
    assert_eq!(out.breaker_trips, real.breaker_trips);
    assert_eq!(out.rack_losses, real.rack_losses);
    assert_eq!(out.interior_cap_violations, real.interior_cap_violations);
    assert!(out.trace == real.trace, "fleet trace rows differ");
    assert!(out.geo_trace == real.geo_trace, "geo trace rows differ");
}

/// Largest count difference between replay and engine, relative to the
/// engine's count.
fn relative_gap(out: &ReplayOutcome, real: &FleetReport) -> f64 {
    let (a, b) = (counts_o(out), counts_r(real));
    [(a.0, b.0), (a.1, b.1), (a.2, b.2)]
        .iter()
        .map(|&(x, y)| x.abs_diff(y) as f64 / y.max(1) as f64)
        .fold(0.0, f64::max)
}

#[test]
fn small_flat_fleet_replays_exactly() {
    let cfg = FleetConfig::homogeneous(12, 0.8, Policy::LeastLoaded, SimDuration::from_secs(120), 20120910);
    let (out, rec, real) = both(&cfg);
    assert_exact(&out, &real);
    // One power span per control tick (t = 0..=120).
    let ticks = rec.spans().iter().filter(|s| s.layer == Layer::Power).count();
    assert_eq!(ticks, 121);
    assert_eq!(rec.total(Layer::Control).1, 12 * 121);
}

#[test]
fn small_flat_fleet_under_chaos_replays_exactly() {
    let cfg = FleetConfig::homogeneous(8, 0.8, Policy::LeastLoaded, SimDuration::from_secs(300), 7).with_chaos(
        ChaosPlan::crashes_only(11, 0.01, (2.0, 6.0))
            .with_thermal(0.01, (3.0, 8.0))
            .with_blackouts(0.01, (2.0, 5.0)),
    );
    let (out, _, real) = both(&cfg);
    assert!(real.crashes > 0 && real.warm_restarts > 0, "chaos must fire");
    assert_exact(&out, &real);
}

#[test]
fn small_geo_fleet_replays_within_a_percent() {
    let topo = Topology::uniform(1, 2, 2, 4);
    let nodes = vec![NodeConfig::default_node(); topo.n_nodes()];
    let cfg = FleetConfig::from_nodes(nodes, 0.8, Policy::LeastLoaded, SimDuration::from_secs(600), 5)
        .with_chaos(
            ChaosPlan::crashes_only(5 ^ 0xC4A05, 0.005, (2.0, 6.0))
                .with_rack_loss(0.02, (3.0, 8.0))
                .with_zone_thermal(0.01, (4.0, 10.0))
                .with_partitions(0.01, (3.0, 9.0)),
        )
        .with_topology(topo);
    let (out, _, real) = both(&cfg);
    assert!(real.rack_losses > 0, "rack losses must fire");
    let gap = relative_gap(&out, &real);
    eprintln!(
        "geo replay vs engine: {:?} vs {:?} (relative gap {gap})",
        counts_o(&out),
        counts_r(&real)
    );
    assert!(gap <= 0.01, "geo replay drifted {gap} from the engine");
}

#[test]
fn fleet_loaded_replays_exactly_at_workload_size() {
    let cfg = fleets::build(Fleet::Loaded, 20120910, EngineKind::Serial);
    let (out, _, real) = both(&cfg);
    assert_exact(&out, &real);
}

#[test]
fn geo_chaos_replay_gap_at_workload_size() {
    let cfg = fleets::build(Fleet::GeoChaos, 20120910, EngineKind::Serial);
    let (out, _, real) = both(&cfg);
    let gap = relative_gap(&out, &real);
    eprintln!(
        "geo_chaos replay vs engine: {:?} vs {:?} (relative gap {gap})",
        counts_o(&out),
        counts_r(&real)
    );
    assert!(gap <= 0.01, "geo replay drifted {gap} from the engine");
}

#[test]
fn an_untraced_replay_records_nothing_and_runs_the_same_simulation() {
    let cfg = FleetConfig::homogeneous(6, 0.8, Policy::LeastLoaded, SimDuration::from_secs(60), 3);
    let mut off = Recorder::new(false);
    let quiet = replay(&cfg, &mut off).expect("replayable config");
    let (traced, _, _) = both(&cfg);
    assert!(off.spans().is_empty());
    assert_eq!(counts_o(&quiet), counts_o(&traced));
    assert!(quiet.trace == traced.trace);
}
