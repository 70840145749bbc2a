//! Figure 14: scalability on GPUs, batch size, feature dimension, and
//! fanout/hop configuration (all on GCN over Products).

use crate::experiments::base_config;
use crate::report::{fmt_ratio, fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::TrainingSystem;
use fastgl_graph::Dataset;

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "fig14_scalability",
        "Fig. 14: scalability of FastGL vs baselines (GCN on Products)",
    );
    let data = scale.bundle(Dataset::Products);

    // (a) Number of GPUs.
    let mut a = Table::new(
        "(a) epoch time vs number of GPUs (GNNLab needs ≥2)",
        &["GPUs", "DGL", "GNNLab", "FastGL", "FastGL self-speedup"],
    );
    let fast_1gpu = SystemKind::FastGl
        .build(base_config(scale).with_gpus(1))
        .run_epochs(&data, scale.epochs)
        .total()
        .as_secs_f64();
    for gpus in [1usize, 2, 4, 8] {
        let cfg = base_config(scale).with_gpus(gpus);
        let dgl = SystemKind::Dgl
            .build(cfg.clone())
            .run_epochs(&data, scale.epochs)
            .total()
            .as_secs_f64();
        let lab = if gpus >= 2 {
            fmt_secs(
                SystemKind::GnnLab
                    .build(cfg.clone())
                    .run_epochs(&data, scale.epochs)
                    .total()
                    .as_secs_f64(),
            )
        } else {
            "n/a".to_string()
        };
        let fast = SystemKind::FastGl
            .build(cfg)
            .run_epochs(&data, scale.epochs)
            .total()
            .as_secs_f64();
        a.push_row(vec![
            gpus.to_string(),
            fmt_secs(dgl),
            lab,
            fmt_secs(fast),
            fmt_ratio(fast_1gpu / fast),
        ]);
    }
    report.tables.push(a);

    // (b) Batch size.
    let mut b = Table::new(
        "(b) epoch time vs batch size (values scaled from the paper's 2k-12k)",
        &["batch", "DGL", "FastGL", "speedup"],
    );
    for batch in [64u64, 128, 192, 256, 384] {
        let cfg = base_config(scale).with_batch_size(batch);
        let dgl = SystemKind::Dgl
            .build(cfg.clone())
            .run_epochs(&data, scale.epochs)
            .total()
            .as_secs_f64();
        let fast = SystemKind::FastGl
            .build(cfg)
            .run_epochs(&data, scale.epochs)
            .total()
            .as_secs_f64();
        b.push_row(vec![
            batch.to_string(),
            fmt_secs(dgl),
            fmt_secs(fast),
            fmt_ratio(dgl / fast),
        ]);
    }
    report.tables.push(b);

    // (c) Feature dimension: regenerate Products with overridden widths.
    let mut c = Table::new(
        "(c) epoch time and compute time vs feature dimension",
        &[
            "dim",
            "DGL",
            "FastGL",
            "speedup",
            "DGL compute",
            "FastGL compute",
        ],
    );
    for dim in [64usize, 128, 256, 512] {
        let mut spec = Dataset::Products
            .spec()
            .scaled(scale.factor(Dataset::Products));
        spec.train_fraction =
            ((scale.target_batches * scale.batch_size) as f64 / spec.num_nodes as f64).min(0.66);
        spec.feature_dim = dim;
        let dim_data = spec.generate(scale.seed);
        let cfg = base_config(scale);
        let s_dgl = SystemKind::Dgl
            .build(cfg.clone())
            .run_epochs(&dim_data, scale.epochs);
        let s_fast = SystemKind::FastGl
            .build(cfg)
            .run_epochs(&dim_data, scale.epochs);
        c.push_row(vec![
            dim.to_string(),
            fmt_secs(s_dgl.total().as_secs_f64()),
            fmt_secs(s_fast.total().as_secs_f64()),
            fmt_ratio(s_dgl.total().as_secs_f64() / s_fast.total().as_secs_f64()),
            fmt_secs(s_dgl.breakdown.compute.as_secs_f64()),
            fmt_secs(s_fast.breakdown.compute.as_secs_f64()),
        ]);
    }
    report.tables.push(c);

    // (d) Fanouts / hops.
    let mut d = Table::new(
        "(d) epoch time and sample time vs fanout configuration",
        &[
            "fanouts",
            "DGL",
            "GNNLab",
            "FastGL",
            "DGL sample",
            "FastGL sample",
        ],
    );
    for fanouts in [vec![5usize, 10], vec![5, 10, 15], vec![5, 5, 10, 10]] {
        let label = format!("{fanouts:?}");
        let cfg = base_config(scale).with_fanouts(fanouts);
        let s_dgl = SystemKind::Dgl
            .build(cfg.clone())
            .run_epochs(&data, scale.epochs);
        let s_lab = SystemKind::GnnLab
            .build(cfg.clone())
            .run_epochs(&data, scale.epochs);
        let s_fast = SystemKind::FastGl
            .build(cfg)
            .run_epochs(&data, scale.epochs);
        d.push_row(vec![
            label,
            fmt_secs(s_dgl.total().as_secs_f64()),
            fmt_secs(s_lab.total().as_secs_f64()),
            fmt_secs(s_fast.total().as_secs_f64()),
            fmt_secs(s_dgl.breakdown.sample.as_secs_f64()),
            fmt_secs(s_fast.breakdown.sample.as_secs_f64()),
        ]);
    }
    report.tables.push(d);

    report.note(
        "Paper shapes: (a) FastGL scales better with GPU count than DGL \
         (5.93x vs 3.36x at 8 GPUs); (b) larger batches widen FastGL's \
         lead (more overlap to Match, more sampling for Fused-Map); (c) \
         speedups hold across feature widths; (d) deeper/wider sampling \
         grows the sample phase, where Fused-Map and the hidden-sampler \
         comparison with GNNLab play out.",
    );
    report
}
