//! Ablation: the Reorder window size `n` (Algorithm 1's only parameter).
//!
//! The paper samples `n` mini-batches at a time and reorders within the
//! window but does not sweep `n`. Larger windows give the greedy order
//! more candidates (potentially more reuse) at the cost of a quadratic
//! match-degree matrix; this ablation measures both sides.

use crate::experiments::base_config;
use crate::report::{fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_core::{Pipeline, TrainingSystem};
use fastgl_graph::Dataset;
use std::time::Instant;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "abl01_reorder_window",
        "Ablation: Reorder window size vs IO savings and reorder cost",
    );
    let data = scale.bundle(Dataset::Products);
    let mut table = Table::new(
        "GCN/Products, 1 GPU, cache disabled (isolating Match-Reorder)",
        &[
            "window",
            "epoch IO",
            "rows loaded",
            "rows reused",
            "harness reorder time (wall)",
        ],
    );
    for window in [2usize, 4, 8, 16, 32] {
        let mut cfg = base_config(scale).with_gpus(1).with_cache_ratio(0.0);
        cfg.reorder_window = window;
        let mut sys = Pipeline::fastgl(cfg);
        let wall = Instant::now();
        let s = sys.run_epochs(&data, scale.epochs);
        let elapsed = wall.elapsed();
        table.push_row(vec![
            window.to_string(),
            fmt_secs(s.breakdown.io.as_secs_f64()),
            s.rows_loaded.to_string(),
            s.rows_reused.to_string(),
            fmt_secs(elapsed.as_secs_f64()),
        ]);
    }
    report.tables.push(table);
    report.note(
        "Expected shape: loaded rows decrease (weakly) with the window as \
         the greedy order finds better successors, while the O(n²) match \
         matrix makes the harness-side cost grow; the paper's default of a \
         small window (we use 8) sits at the knee. At simulator scale the \
         IO differences are small because match degrees are near-uniform \
         (see EXPERIMENTS.md, Table 4 notes).",
    );
    report
}
