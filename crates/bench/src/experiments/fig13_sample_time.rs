//! Figure 13: sample-phase time per epoch across frameworks.
//!
//! PyG's CPU sampler is orders of magnitude slower; DGL's GPU sampler is
//! held back by ID-map synchronizations; Fused-Map removes them.

use crate::experiments::base_config;
use crate::report::{fmt_ratio, fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::TrainingSystem;
use fastgl_graph::Dataset;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "fig13_sample_time",
        "Fig. 13: sample-phase time per epoch (GCN, 2 GPUs)",
    );
    let mut table = Table::new(
        "Visible sample time (GNNLab's overlap hides part of its sampling)",
        &[
            "graph",
            "PyG",
            "DGL",
            "GNNLab",
            "FastGL",
            "PyG/FastGL",
            "DGL/FastGL",
        ],
    );
    for dataset in Dataset::ALL {
        let data = scale.bundle(dataset);
        let sample_of = |kind: SystemKind| {
            kind.build(base_config(scale))
                .run_epochs(&data, scale.epochs)
                .breakdown
                .sample
                .as_secs_f64()
        };
        let pyg = sample_of(SystemKind::Pyg);
        let dgl = sample_of(SystemKind::Dgl);
        let lab = sample_of(SystemKind::GnnLab);
        let fast = sample_of(SystemKind::FastGl);
        table.push_row(vec![
            dataset.short_name().into(),
            fmt_secs(pyg),
            fmt_secs(dgl),
            fmt_secs(lab),
            fmt_secs(fast),
            fmt_ratio(pyg / fast),
            fmt_ratio(dgl / fast),
        ]);
    }
    report.tables.push(table);
    report.note(
        "Paper shape: FastGL samples up to 80.8x faster than PyG and \
         2.0x-2.5x faster than DGL thanks to Fused-Map; GNNLab's visible \
         sample time is near zero while its dedicated GPU keeps up.",
    );
    report
}
