//! Discussion §7(3): where does the memory-IO bottleneck go as the
//! host–device link gets faster?
//!
//! The paper closes by observing that the memory IO phase has two stages —
//! (1) organise the scattered feature rows on the CPU, (2) copy them over
//! the interconnect — and predicts that on Grace-Hopper-class links
//! (900 GB/s vs PCIe 4.0's 32 GB/s) stage 2 stops mattering and stage 1
//! becomes the next bottleneck. This experiment (not a paper figure; it
//! reproduces the discussion's forecast) sweeps the link bandwidth and
//! splits the simulated IO time into its two stages.

use crate::experiments::base_config;
use crate::report::{fmt_pct, fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_baselines::SystemKind;
use fastgl_core::TrainingSystem;
use fastgl_gpusim::HostSpec;
use fastgl_graph::Dataset;

/// The interconnect generations swept.
pub fn interconnects() -> Vec<(&'static str, f64)> {
    vec![
        ("PCIe 4.0 x16", 32.0e9),
        ("PCIe 5.0 x16", 64.0e9),
        ("NVLink-C2C (half)", 450.0e9),
        ("Grace Hopper", 900.0e9),
    ]
}

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "disc01_future_bandwidth",
        "§7(3): the IO bottleneck shifts from the link to host-side organisation",
    );
    let data = scale.bundle(Dataset::Papers100M);
    let mut table = Table::new(
        "DGL on Papers100M: per-epoch IO split vs interconnect",
        &[
            "link",
            "bandwidth",
            "gather (stage 1)",
            "copy (stage 2)",
            "gather share",
            "epoch total",
        ],
    );
    for (name, bw) in interconnects() {
        let mut cfg = base_config(scale);
        cfg.system.host = HostSpec {
            pcie_bw: bw,
            ..HostSpec::pcie4()
        };
        let mut sys = SystemKind::Dgl.build(cfg.clone());
        let s = sys.run_epochs(&data, scale.epochs);
        // Split the IO phase analytically from the byte ledger: stage 1 is
        // the contended host gather, stage 2 the link copy plus latency.
        let trainer_gpus = cfg.system.num_gpus as f64;
        let gather = s.bytes_h2d as f64 / cfg.system.host.gather_bw * trainer_gpus;
        let copy = s.bytes_h2d as f64 / (bw * cfg.system.host.pcie_efficiency)
            + s.iterations as f64 * cfg.system.host.pcie_latency_ns as f64 * 1e-9;
        let share = gather / (gather + copy).max(1e-12);
        table.push_row(vec![
            name.into(),
            format!("{:.0} GB/s", bw / 1e9),
            fmt_secs(gather),
            fmt_secs(copy),
            fmt_pct(share),
            fmt_secs(s.total().as_secs_f64()),
        ]);
    }
    report.tables.push(table);
    report.note(
        "Paper forecast: at PCIe 4.0 the copy dominates IO; at Grace-Hopper \
         bandwidth the copy becomes negligible and the host-side gather \
         (stage 1) is nearly all of the remaining IO time — 'optimizing the \
         way data is organized on the CPU side' becomes the next frontier.",
    );
    report.note(
        "Match-Reorder remains useful at every bandwidth: it removes rows \
         from both stages, not just the link copy.",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interconnect_sweep_is_ordered() {
        let links = interconnects();
        assert_eq!(links.len(), 4);
        assert!(links.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(links[0].1, 32.0e9);
        assert_eq!(links[3].1, 900.0e9);
    }
}
