//! Figure 1: execution-time breakdown of sampling-based frameworks.
//!
//! The paper opens by decomposing GCN training epochs on Products, MAG,
//! and Papers100M under DGL and GNNLab into the three phases, showing that
//! memory IO dominates and no phase is negligible.

use crate::experiments::base_config;
use crate::report::{fmt_pct, fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::TrainingSystem;
use fastgl_graph::Dataset;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "fig01_breakdown",
        "Fig. 1: phase breakdown of GCN epochs under DGL and GNNLab",
    );
    let mut table = Table::new(
        "Phase breakdown (per-epoch, averaged)",
        &[
            "system", "graph", "sample", "io", "compute", "sample%", "io%", "compute%",
        ],
    );
    for kind in [SystemKind::Dgl, SystemKind::GnnLab] {
        for dataset in [Dataset::Products, Dataset::Mag, Dataset::Papers100M] {
            let data = scale.bundle(dataset);
            let mut sys = kind.build(base_config(scale));
            let s = sys.run_epochs(&data, scale.epochs);
            let (fs, fi, fc) = s.breakdown.fractions();
            table.push_row(vec![
                kind.name().into(),
                dataset.short_name().into(),
                fmt_secs(s.breakdown.sample.as_secs_f64()),
                fmt_secs(s.breakdown.io.as_secs_f64()),
                fmt_secs(s.breakdown.compute.as_secs_f64()),
                fmt_pct(fs),
                fmt_pct(fi),
                fmt_pct(fc),
            ]);
        }
    }
    report.tables.push(table);
    report.note(
        "Paper claim: memory IO consumes up to 77% of DGL epochs and every \
         phase is a meaningful fraction; GNNLab shifts time out of sample/IO \
         via overlap and caching but large graphs blunt its cache.",
    );
    report
}
