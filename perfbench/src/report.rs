//! The metric catalogue and the one-line JSON result.

use greengpu_repro::experiments::ALL_IDS;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jobs_ok_frac", "frac"),
    ("energy_j_per_job", "J"),
];

/// Per-layer metrics that are not per experiment, printed by every traced
/// run: (name, unit). A layer the workload does not run reads 0.
pub const LAYERS: [(&str, &str); 36] = [
    ("repro.render_s", "s"),
    ("greengpu.dvfs_tick_ns", "ns"),
    ("greengpu.dvfs_ticks", "count"),
    ("greengpu.division_ns", "ns"),
    ("greengpu.iterations", "count"),
    ("workloads.execute_ns", "ns"),
    ("workloads.execute_calls", "count"),
    ("workloads.phases_ns", "ns"),
    ("runtime.engine_self_s", "s"),
    ("cluster.node.build_s", "s"),
    ("cluster.node.control_tick_ns", "ns"),
    ("cluster.node.control_ticks", "count"),
    ("cluster.node.advance_ns", "ns"),
    ("cluster.node.advances", "count"),
    ("cluster.node.checkpoint_us", "us"),
    ("cluster.node.checkpoints", "count"),
    ("cluster.node.checkpoint_bytes", "bytes"),
    ("cluster.node.restore_us", "us"),
    ("cluster.node.warm_restarts", "count"),
    ("cluster.node.cold_restarts", "count"),
    ("cluster.node.lifecycle_ns", "ns"),
    ("cluster.power.apportion_us", "us"),
    ("cluster.power.tree_tick_us", "us"),
    ("cluster.scheduler.dispatch_us", "us"),
    ("cluster.scheduler.admit_ratio", "frac"),
    ("cluster.busy_node_frac", "frac"),
    ("cluster.queue_wait_mean_s", "sim_s"),
    ("cluster.crashes", "count"),
    ("cluster.rack_losses", "count"),
    ("cluster.jobs_retried", "count"),
    ("cluster.breaker_trips", "count"),
    ("cluster.dead_lettered", "count"),
    ("cluster.telemetry.csv_ns_per_row", "ns"),
    ("cluster.telemetry.rows", "count"),
    ("cluster.replay.count_gap", "count"),
    ("trace_overhead_frac", "frac"),
];

/// Every per-layer metric in print order: one `repro.<id>_s` per
/// experiment, then [`LAYERS`].
pub fn per_layer() -> Vec<(String, &'static str)> {
    ALL_IDS
        .iter()
        .map(|id| (format!("repro.{id}_s"), "s"))
        .chain(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// A run's result: the correctness verdict, the work it checked, and its
/// metrics by name.
pub struct Report {
    /// Units of work whose outputs were checked.
    pub attempted: u64,
    /// Units whose outputs failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<String, f64>,
}

impl Report {
    /// Renders the result line for the metric catalogue of a traced or
    /// untraced run; metrics the run did not set print as 0. A value that
    /// is not finite prints as 0 and marks the run incorrect.
    pub fn to_json(&self, traced: bool) -> String {
        let catalogue: Vec<(String, &str)> = if traced {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let mut value = self.values.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                correct = false;
                value = 0.0;
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted, self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_of_the_catalogue() {
        let mut values = BTreeMap::new();
        values.insert("run_s".to_string(), 1.25);
        let r = Report {
            attempted: 3,
            failed: 0,
            values,
        };
        let line = r.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert_eq!(r.to_json(true).matches("\"unit\"").count(), per_layer().len());
    }

    #[test]
    fn a_failure_or_a_non_finite_value_is_not_correct() {
        let mut values = BTreeMap::new();
        values.insert("run_s".to_string(), f64::NAN);
        let r = Report {
            attempted: 1,
            failed: 0,
            values,
        };
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
        let r = Report {
            attempted: 1,
            failed: 1,
            values: BTreeMap::new(),
        };
        assert!(r.to_json(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _)| n.to_string()));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
