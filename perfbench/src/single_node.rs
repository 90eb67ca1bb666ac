//! The single-node stack: the nine Table-II workloads under the holistic
//! two-tier GreenGPU controller, driven through `HeteroRuntime::run`.
//!
//! Untraced, it yields the paper's own metric for the suite (simulated
//! energy per workload run). Traced, two decorators that belong to the
//! benchmark wrap the public `Controller` and `Workload` traits and time
//! every call the runtime makes into them; what is left of the run's
//! wall time is the engine's own (including the `hw` models).

use greengpu::{GreenGpuConfig, GreenGpuController};
use greengpu_hw::Platform;
use greengpu_runtime::{Controller, HeteroRuntime, IterationInfo, RunConfig};
use greengpu_sim::{SimDuration, SimTime};
use greengpu_workloads::{registry, PhaseCost, Workload, WorkloadProfile};
use std::cell::Cell;
use std::time::Instant;

/// One Table-II run's inputs, built with the program's public
/// constructors.
pub struct Table2Run {
    /// The workload with its paper preset.
    pub workload: Box<dyn Workload>,
    /// The paper testbed (DVFS-capable card).
    pub platform: Platform,
    /// The holistic controller sized to the card.
    pub controller: GreenGpuController,
}

/// Builds the nine Table-II runs: the paper suite's set-up step.
pub fn build(seed: u64) -> Vec<Table2Run> {
    registry::all_workloads(seed)
        .into_iter()
        .map(|workload| {
            let platform = Platform::default_testbed();
            let spec = platform.gpu().spec();
            let (n_core, n_mem) = (spec.core_levels_mhz.len(), spec.mem_levels_mhz.len());
            Table2Run {
                workload,
                platform,
                controller: GreenGpuController::new(GreenGpuConfig::holistic(), n_core, n_mem),
            }
        })
        .collect()
}

/// Busy time and call count of one decorated entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Calls {
    /// Summed wall nanoseconds inside the call.
    pub ns: u64,
    /// Calls made.
    pub count: u64,
}

impl Calls {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.count += 1;
        out
    }

    /// Mean nanoseconds per call (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// Times the controller's two tiers: the DVFS tick (WMA frequency
/// scaling) and the iteration-end hook (workload division).
struct TimedController<'a> {
    inner: &'a mut dyn Controller,
    dvfs: Calls,
    division: Calls,
}

impl Controller for TimedController<'_> {
    fn initial_share(&self) -> f64 {
        self.inner.initial_share()
    }

    fn dvfs_period(&self) -> Option<SimDuration> {
        self.inner.dvfs_period()
    }

    fn on_dvfs_tick(&mut self, platform: &mut Platform, now: SimTime) {
        let inner = &mut *self.inner;
        self.dvfs.time(|| inner.on_dvfs_tick(platform, now));
    }

    fn on_iteration_end(&mut self, info: &IterationInfo, platform: &mut Platform, now: SimTime) -> f64 {
        let inner = &mut *self.inner;
        self.division.time(|| inner.on_iteration_end(info, platform, now))
    }

    fn checkpoint(&self) -> Option<String> {
        self.inner.checkpoint()
    }

    fn restore_checkpoint(&mut self, checkpoint: &str) -> Result<(), String> {
        self.inner.restore_checkpoint(checkpoint)
    }
}

/// Times the functional kernels (`execute`) and the cost model
/// (`phases`).
struct TimedWorkload<'a> {
    inner: &'a mut dyn Workload,
    execute: Calls,
    phases: Cell<Calls>,
}

impl Workload for TimedWorkload<'_> {
    fn profile(&self) -> &WorkloadProfile {
        self.inner.profile()
    }

    fn iterations(&self) -> usize {
        self.inner.iterations()
    }

    fn phases(&self, iter: usize) -> Vec<PhaseCost> {
        // `phases` takes `&self`, so its tally lives in a `Cell`.
        let mut calls = self.phases.get();
        let out = calls.time(|| self.inner.phases(iter));
        self.phases.set(calls);
        out
    }

    fn execute(&mut self, iter: usize, cpu_share: f64) -> f64 {
        let inner = &mut *self.inner;
        self.execute.time(|| inner.execute(iter, cpu_share))
    }

    fn digest(&self) -> f64 {
        self.inner.digest()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// The single-node split of one traced pass over the nine runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    /// `Controller::on_dvfs_tick`.
    pub dvfs: Calls,
    /// `Controller::on_iteration_end`.
    pub division: Calls,
    /// `Workload::execute`.
    pub execute: Calls,
    /// `Workload::phases`.
    pub phases: Calls,
    /// Wall seconds inside `HeteroRuntime::run`, decorated calls included.
    pub run_s: f64,
}

impl Split {
    /// Engine self time: run time not spent in a decorated call.
    pub fn engine_self_s(&self) -> f64 {
        let decorated = self.dvfs.ns + self.division.ns + self.execute.ns + self.phases.ns;
        (self.run_s - decorated as f64 * 1e-9).max(0.0)
    }
}

/// Outcome of one pass over the nine runs.
pub struct Outcome {
    /// Mean simulated whole-system energy per workload run, joules.
    pub energy_j_per_run: f64,
    /// Digest of every run's energy, time and functional state.
    pub digest: u64,
    /// The timed split (all zero when untraced).
    pub split: Split,
}

/// Runs the nine Table-II workloads to completion, decorated when
/// `traced`.
pub fn run(seed: u64, traced: bool) -> Outcome {
    let runs = build(seed);
    let n = runs.len();
    let mut split = Split::default();
    let mut digest = greengpu_sim::Fnv64::new();
    let mut energy_j = 0.0;
    for mut r in runs {
        let runtime = HeteroRuntime::new(r.platform, RunConfig::default());
        let report = if traced {
            let mut ctl = TimedController {
                inner: &mut r.controller,
                dvfs: Calls::default(),
                division: Calls::default(),
            };
            let mut wl = TimedWorkload {
                inner: r.workload.as_mut(),
                execute: Calls::default(),
                phases: Cell::new(Calls::default()),
            };
            let start = Instant::now();
            let report = runtime.run(&mut wl, &mut ctl);
            split.run_s += start.elapsed().as_secs_f64();
            for (total, part) in [
                (&mut split.dvfs, ctl.dvfs),
                (&mut split.division, ctl.division),
                (&mut split.execute, wl.execute),
                (&mut split.phases, wl.phases.get()),
            ] {
                total.ns += part.ns;
                total.count += part.count;
            }
            report
        } else {
            runtime.run(r.workload.as_mut(), &mut r.controller)
        };
        energy_j += report.total_energy_j();
        digest.push_f64(report.total_energy_j());
        digest.push_f64(report.total_time.as_secs_f64());
        digest.push_f64(report.digest);
    }
    Outcome {
        energy_j_per_run: energy_j / n as f64,
        digest: digest.finish(),
        split,
    }
}
