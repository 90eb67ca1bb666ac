//! The two fleet workloads: their configurations, one timed pass, and
//! the correctness gate every pass must clear.

use greengpu_cluster::power::mw_floor;
use greengpu_cluster::{run_fleet, EngineKind, FleetConfig, FleetReport, NodeConfig, Policy, Topology};
use greengpu_hw::ChaosPlan;
use greengpu_sim::{Fnv64, SimDuration};
use std::io;
use std::time::Instant;

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    /// 2000 homogeneous nodes × 600 s at a 0.80 budget, no chaos.
    Loaded,
    /// The geo smoke shape 1×2×2×64 = 256 nodes × 3600 s under
    /// correlated chaos.
    GeoChaos,
}

/// How many chaos realisations of the workload a run cycles through. The
/// geo fleet's completed share swings by a few percent from one seed to
/// the next (a rack loss takes a quarter of the fleet), so a run covers
/// four seeds drawn from its own and reports them together.
pub fn realisations(fleet: Fleet) -> usize {
    match fleet {
        Fleet::Loaded => 1,
        Fleet::GeoChaos => 4,
    }
}

/// The seed of realisation `r` of a run seeded with `seed`: the seed
/// itself for the first, a SplitMix64 step away for the others.
pub fn realisation_seed(seed: u64, r: usize) -> u64 {
    if r == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the workload's configuration with the program's public
/// constructors and validates it: the benchmark's set-up step.
pub fn build(fleet: Fleet, seed: u64, engine: EngineKind) -> FleetConfig {
    let cfg = match fleet {
        Fleet::Loaded => FleetConfig::homogeneous(2000, 0.80, Policy::LeastLoaded, SimDuration::from_secs(600), seed),
        Fleet::GeoChaos => {
            let topo = Topology::uniform(1, 2, 2, 64);
            let nodes = vec![NodeConfig::default_node(); topo.n_nodes()];
            FleetConfig::from_nodes(nodes, 0.80, Policy::LeastLoaded, SimDuration::from_secs(3600), seed)
                .with_chaos(
                    ChaosPlan::crashes_only(seed ^ 0xC4A05, 0.005, (2.0, 6.0))
                        .with_rack_loss(0.02, (3.0, 8.0))
                        .with_zone_thermal(0.01, (4.0, 10.0))
                        .with_partitions(0.01, (3.0, 9.0)),
                )
                .with_topology(topo)
        }
    };
    let cfg = cfg.with_engine(engine);
    if let Err(msg) = cfg.try_validate() {
        panic!("benchmark fleet config is invalid: {msg}");
    }
    cfg
}

/// An `io::Write` that discards the bytes after folding them into an
/// FNV-1a digest — an `io::sink` that can still prove two writes equal.
pub struct DigestSink(pub Fnv64);

impl io::Write for DigestSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.0.push_byte(b);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One timed fleet pass: the run plus its trace CSV.
pub struct FleetPass {
    /// Wall seconds of `run_fleet` plus the CSV write.
    pub wall_s: f64,
    /// The run's report.
    pub report: FleetReport,
    /// Digest of the trace CSV bytes and the report's counters.
    pub digest: u64,
}

/// Runs the fleet and writes its trace CSV (the geo trace on the geo
/// workload) into a digesting sink; both are timed.
pub fn pass(cfg: &FleetConfig) -> FleetPass {
    let start = Instant::now();
    let report = run_fleet(cfg);
    let mut sink = DigestSink(Fnv64::new());
    let written = if cfg.topology.is_some() {
        report.geo_trace.write_csv_to(&mut sink)
    } else {
        report.trace.write_csv_to(&mut sink)
    };
    let wall_s = start.elapsed().as_secs_f64();
    if let Err(e) = written {
        panic!("writing the trace CSV to a sink failed: {e}");
    }
    let mut d = sink.0;
    for v in [
        report.completed.len() as u64,
        report.admitted,
        report.rejected,
        report.crashes,
        report.rack_losses,
        report.dead_letter.len() as u64 + report.dead_letter_overflow,
        report.in_flight_at_end,
    ] {
        d.push_u64(v);
    }
    d.push_f64(report.total_energy_j);
    FleetPass {
        wall_s,
        report,
        digest: d.finish(),
    }
}

/// Jobs offered to admission: admitted plus rejected arrivals.
pub fn offered(r: &FleetReport) -> u64 {
    r.admitted + r.rejected
}

/// The correctness gate of one fleet report; returns every failed check.
///
/// * the conservation ledger tiles: `admitted == completed + dead letters
///   (stored + overflow) + deferred pending + in flight`;
/// * no trace row's summed node caps exceed the fleet budget (compared
///   in the apportioner's integer milliwatts);
/// * on a hierarchical fleet, no interior budget-tree node handed out
///   more than its own cap;
/// * the run completed at least one job.
pub fn check(r: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    let ledger = r.completed.len() as u64
        + r.dead_letter.len() as u64
        + r.dead_letter_overflow
        + r.deferred_pending_at_end
        + r.in_flight_at_end;
    if r.admitted != ledger {
        failures.push(format!(
            "conservation ledger: admitted {} != completed + dead letters + deferred + in flight = {ledger}",
            r.admitted
        ));
    }
    for row in &r.trace.rows {
        let caps_mw = (row.fleet_cap_w * 1000.0).round() as u64;
        if caps_mw > mw_floor(row.budget_w) {
            failures.push(format!(
                "interval {}: fleet caps {} W exceed the budget {} W",
                row.interval, row.fleet_cap_w, row.budget_w
            ));
            break;
        }
    }
    if r.interior_cap_violations != 0 {
        failures.push(format!("{} interior cap violations", r.interior_cap_violations));
    }
    if r.completed.is_empty() {
        failures.push("no job completed".to_string());
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realisation_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(realisation_seed(7, 0), 7);
        let seeds: std::collections::BTreeSet<u64> = (0..realisations(Fleet::GeoChaos))
            .map(|r| realisation_seed(7, r))
            .collect();
        assert_eq!(seeds.len(), realisations(Fleet::GeoChaos));
    }

    #[test]
    fn digest_sink_tells_equal_and_unequal_writes_apart() {
        use std::io::Write;
        let digest = |bytes: &[u8]| {
            let mut s = DigestSink(Fnv64::new());
            s.write_all(bytes).expect("sink never fails");
            s.0.finish()
        };
        assert_eq!(digest(b"a,b\n1,2\n"), digest(b"a,b\n1,2\n"));
        assert_ne!(digest(b"a,b\n1,2\n"), digest(b"a,b\n1,3\n"));
    }

    #[test]
    fn the_gate_passes_a_clean_small_fleet_and_catches_a_broken_ledger() {
        let cfg = FleetConfig::homogeneous(4, 0.8, Policy::LeastLoaded, SimDuration::from_secs(60), 3);
        let mut r = run_fleet(&cfg);
        assert_eq!(check(&r), Vec::<String>::new());
        r.admitted += 1;
        assert_eq!(check(&r).len(), 1);
    }
}
