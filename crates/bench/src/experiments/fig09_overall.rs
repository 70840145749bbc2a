//! Figure 9: overall training speed of three GNNs across five datasets.
//!
//! The headline comparison: FastGL vs DGL, GNNAdvisor, and GNNLab on
//! 2 GPUs (PyG is an order of magnitude slower and reported separately).

use crate::experiments::base_config;
use crate::report::{fmt_ratio, fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::TrainingSystem;
use fastgl_gnn::ModelKind;
use fastgl_graph::Dataset;

/// Epoch time of one (system, model, dataset) cell.
pub fn epoch_time(scale: &BenchScale, kind: SystemKind, model: ModelKind, dataset: Dataset) -> f64 {
    let data = scale.bundle(dataset);
    let mut sys = kind.build(base_config(scale).with_model(model));
    sys.run_epochs(&data, scale.epochs).total().as_secs_f64()
}

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "fig09_overall",
        "Fig. 9: epoch time of GCN/GIN/GAT across all five graphs (2 GPUs)",
    );
    let mut fastgl_speedups: Vec<f64> = Vec::new();
    for model in ModelKind::ALL {
        let mut table = Table::new(
            format!("{model}: per-epoch time and FastGL speedup"),
            &[
                "graph",
                "DGL",
                "GNNAdvisor",
                "GNNLab",
                "FastGL",
                "vs DGL",
                "vs GNNLab",
            ],
        );
        for dataset in Dataset::ALL {
            let dgl = epoch_time(scale, SystemKind::Dgl, model, dataset);
            let advisor = epoch_time(scale, SystemKind::GnnAdvisor, model, dataset);
            let lab = epoch_time(scale, SystemKind::GnnLab, model, dataset);
            let fastgl = epoch_time(scale, SystemKind::FastGl, model, dataset);
            fastgl_speedups.push(dgl / fastgl);
            table.push_row(vec![
                dataset.short_name().into(),
                fmt_secs(dgl),
                fmt_secs(advisor),
                fmt_secs(lab),
                fmt_secs(fastgl),
                fmt_ratio(dgl / fastgl),
                fmt_ratio(lab / fastgl),
            ]);
        }
        report.tables.push(table);
    }
    let avg = fastgl_speedups.iter().sum::<f64>() / fastgl_speedups.len() as f64;
    report.note(format!(
        "Average FastGL speedup over DGL across all cells: {avg:.2}x \
         (paper: 2.2x average, 1.7x-5.1x range)."
    ));
    report.note(
        "Paper shape: FastGL is fastest everywhere; GNNLab is second on \
         cache-friendly graphs but loses its edge on MAG/PA where no \
         memory is left to cache; GNNAdvisor trails DGL because of \
         per-iteration preprocessing.",
    );
    report
}
