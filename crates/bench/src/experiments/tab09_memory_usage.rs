//! Table 9: GPU memory usage — DGL vs FastGL.
//!
//! Match-Reorder must not cost device memory; this table confirms FastGL's
//! peak usage is comparable to (slightly below) DGL's on every graph.

use crate::experiments::base_config;
use crate::report::{fmt_bytes, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::TrainingSystem;
use fastgl_graph::Dataset;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "tab09_memory_usage",
        "Table 9: peak modelled GPU memory, GCN on 1 GPU",
    );
    let mut table = Table::new(
        "Peak per-iteration working set (cache disabled for both, as the \
         paper compares the uncached cores)",
        &["graph", "DGL", "FastGL", "FastGL/DGL"],
    );
    for dataset in Dataset::ALL {
        let data = scale.bundle(dataset);
        let cfg = base_config(scale).with_gpus(1).with_cache_ratio(0.0);
        let dgl = SystemKind::Dgl
            .build(cfg.clone())
            .run_epochs(&data, scale.epochs)
            .peak_memory_bytes;
        let fast = SystemKind::FastGl
            .build(cfg)
            .run_epochs(&data, scale.epochs)
            .peak_memory_bytes;
        table.push_row(vec![
            dataset.short_name().into(),
            fmt_bytes(dgl),
            fmt_bytes(fast),
            format!("{:.3}", fast as f64 / dgl as f64),
        ]);
    }
    report.tables.push(table);
    report.note(
        "Paper shape: the two systems' memory usage is comparable on every \
         graph (FastGL slightly lower on some) — Match-Reorder reuses the \
         previous batch's necessarily-resident buffer instead of allocating \
         a cache, and only the current subgraph's topology lives on-device.",
    );
    report
}
