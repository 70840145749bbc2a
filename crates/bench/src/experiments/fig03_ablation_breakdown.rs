//! Figure 3: staged breakdown on Products — Naive → +MR → +MR+MA → FastGL.
//!
//! The motivation figure: starting from DGL ('Naive'), each FastGL
//! technique removes the then-dominant phase: Match-Reorder shrinks memory
//! IO, Memory-Aware shrinks computation, Fused-Map shrinks sampling.

use crate::experiments::base_config;
use crate::report::{fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_core::{ComputeMode, FastGlConfig, IdMapKind, Pipeline, TrainingSystem};
use fastgl_gnn::ModelKind;
use fastgl_graph::Dataset;

/// The four staged variants of Fig. 3, from a base configuration.
pub fn staged_variants(base: &FastGlConfig) -> Vec<(&'static str, FastGlConfig)> {
    let naive = {
        let mut c = base.clone();
        c.enable_match = false;
        c.enable_reorder = false;
        c.compute_mode = ComputeMode::Naive;
        c.id_map = IdMapKind::Baseline;
        c.cache_ratio = Some(0.0);
        c
    };
    let mr = {
        let mut c = naive.clone();
        c.enable_match = true;
        c.enable_reorder = true;
        c
    };
    let mr_ma = {
        let mut c = mr.clone();
        c.compute_mode = ComputeMode::MemoryAware;
        c
    };
    let fastgl = {
        let mut c = mr_ma.clone();
        c.id_map = IdMapKind::Fused;
        c
    };
    vec![
        ("Naive", naive),
        ("Naive+MR", mr),
        ("Naive+MR+MA", mr_ma),
        ("FastGL", fastgl),
    ]
}

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "fig03_ablation_breakdown",
        "Fig. 3: staged phase breakdown of GCN and GIN on Products (2 GPUs)",
    );
    let data = scale.bundle(Dataset::Products);
    for model in [ModelKind::Gcn, ModelKind::Gin] {
        let mut table = Table::new(
            format!("{model} on Products"),
            &["variant", "sample", "io", "compute", "total"],
        );
        let base = base_config(scale).with_model(model);
        for (name, cfg) in staged_variants(&base) {
            let mut sys = Pipeline::fastgl(cfg);
            let s = sys.run_epochs(&data, scale.epochs);
            table.push_row(vec![
                name.into(),
                fmt_secs(s.breakdown.sample.as_secs_f64()),
                fmt_secs(s.breakdown.io.as_secs_f64()),
                fmt_secs(s.breakdown.compute.as_secs_f64()),
                fmt_secs(s.total().as_secs_f64()),
            ]);
        }
        report.tables.push(table);
    }
    report.note(
        "Paper claim: each stage removes the then-dominant phase — MR cuts \
         the IO column, MA cuts the compute column, FM cuts the sample \
         column; the total falls monotonically.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_core::SampleDevice;

    #[test]
    fn staged_variants_toggle_exactly_one_knob_each() {
        let base = FastGlConfig::default();
        let variants = staged_variants(&base);
        assert_eq!(variants.len(), 4);
        let (names, configs): (Vec<_>, Vec<_>) = variants.into_iter().unzip();
        assert_eq!(names, ["Naive", "Naive+MR", "Naive+MR+MA", "FastGL"]);
        // Naive is the DGL-equivalent.
        assert!(!configs[0].enable_match);
        assert_eq!(configs[0].compute_mode, ComputeMode::Naive);
        assert_eq!(configs[0].id_map, IdMapKind::Baseline);
        // Each stage flips exactly its own feature.
        assert!(configs[1].enable_match && configs[1].enable_reorder);
        assert_eq!(configs[1].compute_mode, ComputeMode::Naive);
        assert_eq!(configs[2].compute_mode, ComputeMode::MemoryAware);
        assert_eq!(configs[2].id_map, IdMapKind::Baseline);
        assert_eq!(configs[3].id_map, IdMapKind::Fused);
        // Every variant samples on the GPU with the cache disabled.
        for c in &configs {
            assert_eq!(c.sample_device, SampleDevice::Gpu);
            assert_eq!(c.cache_ratio, Some(0.0));
            c.validate().unwrap();
        }
    }
}
