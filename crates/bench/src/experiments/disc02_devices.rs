//! Extension study: do FastGL's techniques survive newer GPUs?
//!
//! The paper evaluates on RTX 3090s. Datacenter parts change the balance:
//! HBM multiplies global bandwidth (shrinking the Memory-Aware headroom),
//! bigger L2s absorb more of the irregular gather, and the host link stays
//! the bottleneck it was. This study re-runs the headline comparison on
//! simulated A100 and H100 machines.

use crate::experiments::base_config;
use crate::report::{fmt_ratio, fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::TrainingSystem;
use fastgl_gpusim::DeviceSpec;
use fastgl_graph::Dataset;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "disc02_devices",
        "Extension: FastGL vs DGL across GPU generations (GCN on Products)",
    );
    let data = scale.bundle(Dataset::Products);
    let mut table = Table::new(
        "Per-epoch times on simulated devices (2 GPUs each)",
        &[
            "device",
            "DGL",
            "FastGL",
            "speedup",
            "DGL compute",
            "FastGL compute",
        ],
    );
    for device in [
        DeviceSpec::rtx3090(),
        DeviceSpec::a100(),
        DeviceSpec::h100(),
    ] {
        let mut cfg = base_config(scale);
        cfg.system.device = device.clone();
        let s_dgl = SystemKind::Dgl
            .build(cfg.clone())
            .run_epochs(&data, scale.epochs);
        let s_fast = SystemKind::FastGl
            .build(cfg)
            .run_epochs(&data, scale.epochs);
        table.push_row(vec![
            device.name.clone(),
            fmt_secs(s_dgl.total().as_secs_f64()),
            fmt_secs(s_fast.total().as_secs_f64()),
            fmt_ratio(s_dgl.total().as_secs_f64() / s_fast.total().as_secs_f64()),
            fmt_secs(s_dgl.breakdown.compute.as_secs_f64()),
            fmt_secs(s_fast.breakdown.compute.as_secs_f64()),
        ]);
    }
    report.tables.push(table);
    report.note(
        "Expected shape: the end-to-end speedup persists on every device \
         because it is dominated by Match-Reorder (the host link does not \
         improve between generations here), while the Memory-Aware compute \
         margin narrows as HBM bandwidth closes the global-vs-shared gap — \
         the paper's techniques are complementary, not tied to one part.",
    );
    report
}
