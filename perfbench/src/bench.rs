//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use crate::fleets::{self, Fleet};
use crate::replay::{replay, ReplayOutcome};
use crate::report::Report;
use crate::single_node;
use crate::spans::{Layer, Recorder};
use crate::stats::{another_pass, median, repeat_for, secs_since, SetupSampler};
use crate::suite::{self, Reference};
use greengpu_cluster::{EngineKind, FleetConfig};
use greengpu_repro::experiments::ALL_IDS;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All `repro` experiments, checked against `results/`.
    PaperSuite,
    /// The loaded 2000-node flat fleet.
    FleetLoaded,
    /// The 256-node geo fleet under correlated chaos.
    GeoChaos,
}

impl Workload {
    /// Every workload, by CLI name.
    pub const ALL: [(&'static str, Workload); 3] = [
        ("paper_suite", Workload::PaperSuite),
        ("fleet_loaded", Workload::FleetLoaded),
        ("geo_chaos", Workload::GeoChaos),
    ];

    /// Looks a workload up by its CLI name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }
}

/// Minimum timed passes in an untraced run; a traced run alternates
/// untraced and traced passes, at least two of each.
const MIN_PASSES: usize = 3;
const MIN_TRACED_PASSES: usize = 4;

/// Runs `workload` for about `seconds` and reports its end-to-end
/// metrics (`traced == false`) or its per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    match (workload, traced) {
        (Workload::PaperSuite, false) => paper_suite(seed, seconds),
        (Workload::PaperSuite, true) => paper_suite_traced(seed, seconds),
        (Workload::FleetLoaded, false) => fleet(Fleet::Loaded, seed, seconds),
        (Workload::FleetLoaded, true) => fleet_traced(Fleet::Loaded, seed, seconds),
        (Workload::GeoChaos, false) => fleet(Fleet::GeoChaos, seed, seconds),
        (Workload::GeoChaos, true) => fleet_traced(Fleet::GeoChaos, seed, seconds),
    }
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn load_reference() -> Result<Reference, String> {
    Reference::load(Path::new("results"))
        .map_err(|e| format!("cannot read results/ ({e}); run the benchmark from the repository root"))
}

/// Experiments that failed in any pass, and the failure total.
fn suite_failures(seed: u64, reference: &Reference, passes: &[suite::SuitePass]) -> (usize, u64) {
    let per_experiment = suite::check(seed, reference, passes);
    for (id, n) in per_experiment.iter().filter(|(_, n)| *n > 0) {
        eprintln!("paper_suite: experiment {id} failed its check in {n} pass(es)");
    }
    let bad = per_experiment.iter().filter(|(_, n)| *n > 0).count();
    (bad, per_experiment.iter().map(|&(_, n)| n as u64).sum())
}

/// Share of each pass's wall time spent sampling set-up right after it.
const SETUP_SHARE: f64 = 0.05;

/// Runs `pass` for `seconds` (at least `min_passes` times), sampling
/// set-up before the first pass and after every pass, and reading the
/// peak resident memory right after the first pass: later passes repeat
/// the same work, so their extra heap fragmentation says nothing about
/// the program. Returns the passes, the set-up median and the peak RSS.
fn timed_passes<P, T, F: FnMut() -> T>(
    name: &str,
    seconds: f64,
    min_passes: usize,
    build: F,
    mut pass: impl FnMut(usize) -> P,
    wall_s: impl Fn(&P) -> f64,
) -> Result<(Vec<P>, f64, f64), String> {
    let mut setup = SetupSampler::new(build);
    setup.sample_for(0.1);
    let mut rss = Ok(0.0);
    let passes = repeat_for(seconds, min_passes, |i| {
        let p = pass(i);
        let wall = wall_s(&p);
        eprintln!("{name} pass {i}: {wall:.4} s");
        if i == 0 {
            rss = peak_rss_mb();
        }
        setup.sample_for(wall * SETUP_SHARE);
        p
    });
    Ok((passes, setup.median(), rss?))
}

fn paper_suite(seed: u64, seconds: f64) -> Result<Report, String> {
    let reference = load_reference()?;
    let (passes, setup_s, rss) = timed_passes(
        "paper_suite",
        seconds,
        MIN_PASSES,
        || single_node::build(seed),
        |_| suite::pass(seed, false),
        |p| p.wall_s,
    )?;
    let (bad, failed) = suite_failures(seed, &reference, &passes);
    let node = single_node::run(seed, false);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let mut values = BTreeMap::new();
    values.insert("setup_s".to_string(), setup_s);
    values.insert("run_s".to_string(), median(&walls));
    values.insert("peak_rss_mb".to_string(), rss);
    values.insert(
        "jobs_ok_frac".to_string(),
        (ALL_IDS.len() - bad) as f64 / ALL_IDS.len() as f64,
    );
    values.insert("energy_j_per_job".to_string(), node.energy_j_per_run);
    Ok(Report {
        attempted: (ALL_IDS.len() * passes.len()) as u64,
        failed,
        values,
    })
}

fn paper_suite_traced(seed: u64, seconds: f64) -> Result<Report, String> {
    let reference = load_reference()?;
    let passes = repeat_for(seconds, MIN_TRACED_PASSES, |i| suite::pass(seed, i % 2 == 1));
    let (_, mut failed) = suite_failures(seed, &reference, &passes);
    let (untraced, traced): (Vec<_>, Vec<_>) = passes.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let wall = |ps: &[(usize, &suite::SuitePass)]| median(&ps.iter().map(|(_, p)| p.wall_s).collect::<Vec<_>>());
    let mut values = BTreeMap::new();
    for (k, id) in ALL_IDS.iter().enumerate() {
        let times: Vec<f64> = traced.iter().map(|(_, p)| p.runs[k].run_s).collect();
        values.insert(format!("repro.{id}_s"), median(&times));
    }
    let renders: Vec<f64> = traced
        .iter()
        .map(|(_, p)| p.runs.iter().map(|r| r.render_s).sum())
        .collect();
    values.insert("repro.render_s".to_string(), median(&renders));
    let (u, t) = (wall(&untraced), wall(&traced));
    values.insert("trace_overhead_frac".to_string(), (t - u) / u);

    // The single-node split: decorated runs must reproduce the
    // undecorated run's results exactly.
    let plain = single_node::run(seed, false);
    let splits: Vec<single_node::Split> = (0..3)
        .map(|_| {
            let o = single_node::run(seed, true);
            if o.digest != plain.digest {
                eprintln!("paper_suite: decorated single-node run diverged from the plain run");
                failed += 1;
            }
            o.split
        })
        .collect();
    let med = |f: &dyn Fn(&single_node::Split) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    let last = splits.last().copied().unwrap_or_default();
    values.insert("greengpu.dvfs_tick_ns".to_string(), med(&|s| s.dvfs.mean_ns()));
    values.insert("greengpu.dvfs_ticks".to_string(), last.dvfs.count as f64);
    values.insert("greengpu.division_ns".to_string(), med(&|s| s.division.mean_ns()));
    values.insert("greengpu.iterations".to_string(), last.division.count as f64);
    values.insert("workloads.execute_ns".to_string(), med(&|s| s.execute.mean_ns()));
    values.insert("workloads.execute_calls".to_string(), last.execute.count as f64);
    values.insert("workloads.phases_ns".to_string(), med(&|s| s.phases.mean_ns()));
    values.insert("runtime.engine_self_s".to_string(), med(&|s| s.engine_self_s()));
    Ok(Report {
        attempted: (ALL_IDS.len() * passes.len() + splits.len()) as u64,
        failed,
        values,
    })
}

/// What the gate keeps of one fleet pass.
struct FleetSummary {
    wall_s: f64,
    digest: u64,
    failures: Vec<String>,
    completed: u64,
    offered: u64,
    admitted: u64,
    rejected: u64,
    total_energy_j: f64,
}

fn summarize(cfg: &FleetConfig) -> FleetSummary {
    let p = fleets::pass(cfg);
    FleetSummary {
        wall_s: p.wall_s,
        digest: p.digest,
        failures: fleets::check(&p.report),
        completed: p.report.completed.len() as u64,
        offered: fleets::offered(&p.report),
        admitted: p.report.admitted,
        rejected: p.report.rejected,
        total_energy_j: p.report.total_energy_j,
    }
}

/// Failed checks of `passes`, which cycle through `realisations`
/// configurations: a pass fails if a check fails or its digest differs
/// from the first pass of the same realisation. Prints each failure.
fn fleet_failures(name: &str, passes: &[FleetSummary], realisations: usize) -> Vec<bool> {
    passes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            for f in &p.failures {
                eprintln!("{name} pass {i}: {f}");
            }
            let first = i % realisations;
            let diverged = p.digest != passes[first].digest;
            if diverged {
                eprintln!("{name} pass {i}: output digest differs from pass {first}");
            }
            diverged || !p.failures.is_empty()
        })
        .collect()
}

fn fleet_name(fleet: Fleet) -> &'static str {
    match fleet {
        Fleet::Loaded => "fleet_loaded",
        Fleet::GeoChaos => "geo_chaos",
    }
}

fn fleet(fleet: Fleet, seed: u64, seconds: f64) -> Result<Report, String> {
    let name = fleet_name(fleet);
    let n = fleets::realisations(fleet);
    let build = |r: usize| fleets::build(fleet, fleets::realisation_seed(seed, r), EngineKind::EventDriven);
    let cfgs: Vec<FleetConfig> = (0..n).map(build).collect();
    // Set-up samples cycle through the realisations as the passes do.
    let mut builds = 0;
    let next_build = || {
        builds += 1;
        build(builds % n)
    };
    // Every realisation runs at least twice, so that each has a repeat to
    // check its digest against.
    let (passes, setup_s, rss) = timed_passes(
        name,
        seconds,
        MIN_PASSES.max(2 * n),
        next_build,
        |i| summarize(&cfgs[i % n]),
        |p| p.wall_s,
    )?;
    let bad = fleet_failures(name, &passes, n);
    // A realisation's jobs count as completed only if every pass of it
    // cleared the gate.
    let firsts = &passes[..n];
    let ok_jobs: u64 = firsts
        .iter()
        .enumerate()
        .map(|(r, p)| {
            if bad.iter().skip(r).step_by(n).any(|&b| b) {
                0
            } else {
                p.completed
            }
        })
        .sum();
    let offered: u64 = firsts.iter().map(|p| p.offered).sum();
    let completed: u64 = firsts.iter().map(|p| p.completed).sum();
    let energy_j: f64 = firsts.iter().map(|p| p.total_energy_j).sum();
    let mut values = BTreeMap::new();
    values.insert("setup_s".to_string(), setup_s);
    values.insert(
        "run_s".to_string(),
        median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    values.insert("peak_rss_mb".to_string(), rss);
    values.insert("jobs_ok_frac".to_string(), ok_jobs as f64 / offered.max(1) as f64);
    values.insert("energy_j_per_job".to_string(), energy_j / completed.max(1) as f64);
    Ok(Report {
        attempted: passes.len() as u64,
        failed: bad.iter().filter(|&&b| b).count() as u64,
        values,
    })
}

/// Per-layer metrics of one traced replay.
fn layer_metrics(out: &ReplayOutcome, rec: &Recorder, geo: bool) -> BTreeMap<String, f64> {
    let per = |secs: f64, n: u64, scale: f64| if n == 0 { 0.0 } else { secs * scale / n as f64 };
    let (control_s, control_n) = rec.total(Layer::Control);
    let (advance_s, _) = rec.total(Layer::Advance);
    let (checkpoint_s, checkpoint_n) = rec.total(Layer::Checkpoint);
    let (restore_s, restore_n) = rec.total(Layer::Restore);
    let (lifecycle_s, lifecycle_n) = rec.total(Layer::Lifecycle);
    // One power span per control tick.
    let (power_s, ticks) = rec.total(Layer::Power);
    let (dispatch_s, _) = rec.total(Layer::Dispatch);
    let rows = out.trace.rows.len() as u64;
    let busy_node_ticks: u64 = out.trace.rows.iter().map(|r| r.busy_nodes as u64).sum();
    let nodes = lifecycle_n / ticks.max(1);
    let mut v = BTreeMap::new();
    let mut set = |k: &str, x: f64| {
        v.insert(k.to_string(), x);
    };
    set("cluster.node.build_s", out.node_build_s);
    set("cluster.node.control_tick_ns", per(control_s, control_n, 1e9));
    set("cluster.node.control_ticks", control_n as f64);
    set("cluster.node.advance_ns", per(advance_s, out.busy_advances, 1e9));
    set("cluster.node.advances", out.busy_advances as f64);
    set("cluster.node.checkpoint_us", per(checkpoint_s, checkpoint_n, 1e6));
    set("cluster.node.checkpoints", out.checkpoints as f64);
    set("cluster.node.checkpoint_bytes", out.checkpoint_bytes as f64);
    set("cluster.node.restore_us", per(restore_s, restore_n, 1e6));
    set("cluster.node.warm_restarts", out.warm_restarts as f64);
    set("cluster.node.cold_restarts", out.cold_restarts as f64);
    set(
        "cluster.node.lifecycle_ns",
        per(lifecycle_s - restore_s, lifecycle_n, 1e9),
    );
    let power_us = per(power_s, ticks, 1e6);
    set(
        if geo {
            "cluster.power.tree_tick_us"
        } else {
            "cluster.power.apportion_us"
        },
        power_us,
    );
    set("cluster.scheduler.dispatch_us", per(dispatch_s, ticks, 1e6));
    set(
        "cluster.scheduler.admit_ratio",
        out.admitted as f64 / (out.admitted + out.rejected).max(1) as f64,
    );
    set(
        "cluster.busy_node_frac",
        busy_node_ticks as f64 / (rows * nodes).max(1) as f64,
    );
    set("cluster.queue_wait_mean_s", out.queue_wait_mean_s);
    set("cluster.crashes", out.crashes as f64);
    set("cluster.rack_losses", out.rack_losses as f64);
    set("cluster.jobs_retried", out.jobs_retried as f64);
    set("cluster.breaker_trips", out.breaker_trips as f64);
    set("cluster.dead_lettered", out.dead_lettered as f64);
    v
}

/// Nanoseconds per trace row of writing the replay's trace CSVs to an
/// `io::sink`, repeated until the writes total at least 50 ms.
fn csv_ns_per_row(out: &ReplayOutcome) -> (f64, u64) {
    let rows = (out.trace.rows.len() + out.geo_trace.rows.len()) as u64;
    let start = Instant::now();
    let mut reps = 0u64;
    while reps == 0 || secs_since(start) < 0.05 {
        let mut sink = std::io::sink();
        let written = out
            .trace
            .write_csv_to(&mut sink)
            .and_then(|()| out.geo_trace.write_csv_to(&mut sink));
        if let Err(e) = written {
            panic!("writing a trace CSV to a sink failed: {e}");
        }
        reps += 1;
    }
    (secs_since(start) * 1e9 / (reps * rows.max(1)) as f64, rows)
}

fn fleet_traced(fleet: Fleet, seed: u64, seconds: f64) -> Result<Report, String> {
    let name = fleet_name(fleet);
    let geo = fleet == Fleet::GeoChaos;
    let cfg = fleets::build(fleet, seed, EngineKind::Serial);
    let start = Instant::now();
    // The real serial engine, once: the gate, and the counts the replay
    // must reproduce.
    let truth = summarize(&cfg);
    let mut failed = fleet_failures(name, std::slice::from_ref(&truth), 1)
        .iter()
        .filter(|&&b| b)
        .count() as u64;
    // Alternate the replay with its recorder off and on, so drift in the
    // host's speed hits both alike and their difference is the cost of
    // the spans alone.
    let mut untraced: Vec<ReplayOutcome> = Vec::new();
    let mut traced: Vec<(ReplayOutcome, Recorder)> = Vec::new();
    let mut pass_s = Vec::new();
    while another_pass(seconds, MIN_TRACED_PASSES, secs_since(start), &pass_s) {
        let t = Instant::now();
        let mut rec = Recorder::new(pass_s.len() % 2 == 1);
        let out = replay(&cfg, &mut rec)?;
        if pass_s.len() % 2 == 1 {
            traced.push((out, rec));
        } else {
            untraced.push(out);
        }
        pass_s.push(secs_since(t));
    }
    let gap = untraced
        .iter()
        .chain(traced.iter().map(|(out, _)| out))
        .map(|out| {
            out.completed.abs_diff(truth.completed)
                + out.admitted.abs_diff(truth.admitted)
                + out.rejected.abs_diff(truth.rejected)
        })
        .max()
        .unwrap_or(0);
    if gap != 0 {
        eprintln!("{name}: replay counts differ from the serial engine's by {gap}");
        // The flat replay must match exactly; on the geo fleet the gap is
        // reported, not enforced.
        if !geo {
            failed += 1;
        }
    }
    let per_replay: Vec<BTreeMap<String, f64>> = traced.iter().map(|(out, rec)| layer_metrics(out, rec, geo)).collect();
    let mut values = BTreeMap::new();
    for key in per_replay[0].keys() {
        let xs: Vec<f64> = per_replay.iter().map(|m| m[key]).collect();
        values.insert(key.clone(), median(&xs));
    }
    let (csv_ns, rows) = csv_ns_per_row(&traced[0].0);
    values.insert("cluster.telemetry.csv_ns_per_row".to_string(), csv_ns);
    values.insert("cluster.telemetry.rows".to_string(), rows as f64);
    values.insert("cluster.replay.count_gap".to_string(), gap as f64);
    let off = median(&untraced.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    let on = median(&traced.iter().map(|(o, _)| o.wall_s).collect::<Vec<_>>());
    values.insert("trace_overhead_frac".to_string(), (on - off) / off);
    Ok(Report {
        attempted: (1 + untraced.len() + traced.len()) as u64,
        failed,
        values,
    })
}
