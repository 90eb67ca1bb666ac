//! The paper suite: all `repro` experiments, rendered to markdown and CSV
//! in memory, checked against the committed `results/` CSVs.

use greengpu_repro::experiments::{run_by_id, ALL_IDS, DEFAULT_SEED};
use greengpu_sim::Fnv64;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// The committed reference CSVs, by file name.
pub struct Reference(BTreeMap<String, String>);

impl Reference {
    /// Reads every `*.csv` under `dir` (the repository's `results/`).
    pub fn load(dir: &Path) -> std::io::Result<Reference> {
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "csv") {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    files.insert(name.to_string(), std::fs::read_to_string(&path)?);
                }
            }
        }
        Ok(Reference(files))
    }

    /// Whether `csvs` are exactly experiment `id`'s committed files
    /// `<id>_0.csv`, `<id>_1.csv`, … — no more, no fewer, byte for byte.
    pub fn matches(&self, id: &str, csvs: &[String]) -> bool {
        let same = csvs
            .iter()
            .enumerate()
            .all(|(i, csv)| self.0.get(&format!("{id}_{i}.csv")) == Some(csv));
        same && !self.0.contains_key(&format!("{id}_{}.csv", csvs.len()))
    }
}

/// One experiment's output within a pass.
pub struct ExperimentRun {
    /// Experiment id.
    pub id: &'static str,
    /// Each table as CSV.
    pub csvs: Vec<String>,
    /// Digest of the markdown and every CSV.
    pub digest: u64,
    /// Wall seconds of the experiment itself (traced passes only).
    pub run_s: f64,
    /// Wall seconds rendering it to markdown and CSV (traced passes only).
    pub render_s: f64,
}

/// One pass over every experiment.
pub struct SuitePass {
    /// Wall seconds of the whole pass (experiments plus rendering).
    pub wall_s: f64,
    /// Per-experiment outputs in `ALL_IDS` order.
    pub runs: Vec<ExperimentRun>,
}

/// Runs and renders every experiment at `seed`. A traced pass also times
/// each experiment and each render separately.
pub fn pass(seed: u64, traced: bool) -> SuitePass {
    let clock = |on: bool| on.then(Instant::now);
    let secs = |t: Option<Instant>| t.map_or(0.0, |t| t.elapsed().as_secs_f64());
    let start = Instant::now();
    let mut rendered = Vec::with_capacity(ALL_IDS.len());
    for id in ALL_IDS {
        let t = clock(traced);
        let out = run_by_id(id, seed).unwrap_or_else(|| panic!("experiment {id} is listed but unknown"));
        let run_s = secs(t);
        let t = clock(traced);
        let markdown = out.to_markdown();
        let csvs: Vec<String> = out.tables.iter().map(|t| t.to_csv()).collect();
        rendered.push((id, markdown, csvs, run_s, secs(t)));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let runs = rendered
        .into_iter()
        .map(|(id, markdown, csvs, run_s, render_s)| {
            let mut d = Fnv64::new();
            for text in std::iter::once(&markdown).chain(&csvs) {
                d.push_usize(text.len());
                text.bytes().for_each(|b| d.push_byte(b));
            }
            ExperimentRun {
                id,
                csvs,
                digest: d.finish(),
                run_s,
                render_s,
            }
        })
        .collect();
    SuitePass { wall_s, runs }
}

/// The correctness gate over a run's passes: at the default seed every
/// experiment's CSVs must equal `results/` byte for byte in every pass;
/// at any seed every pass must reproduce the first pass's digests.
/// Returns, per experiment in `ALL_IDS` order, the number of passes in
/// which it failed.
pub fn check(seed: u64, reference: &Reference, passes: &[SuitePass]) -> Vec<(&'static str, usize)> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    first
        .runs
        .iter()
        .enumerate()
        .map(|(k, base)| {
            let failed = passes
                .iter()
                .filter(|p| {
                    let run = &p.runs[k];
                    run.digest != base.digest || (seed == DEFAULT_SEED && !reference.matches(run.id, &run.csvs))
                })
                .count();
            (base.id, failed)
        })
        .collect()
}
