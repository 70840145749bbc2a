//! Wall-clock benefit of the asynchronous window pipeline (paper §6.5).
//!
//! FastGL overlaps sampling, reorder/match, and feature-load/compute
//! across mini-batch windows. This bench runs the identical workload at
//! prefetch depths 0 (serial), 1, 2, and 4 and reports the host wall time
//! plus each stage's busy/stall split — while asserting that the simulated
//! epoch statistics are bit-identical at every depth, which is the
//! pipeline's core contract.

use crate::experiments::base_config;
use crate::report::{fmt_ratio, fmt_secs, Report, Table};
use crate::scale::BenchScale;
use fastgl_core::{Pipeline, StageWallStats, TrainingSystem};
use fastgl_graph::Dataset;
use std::time::Instant;

fn stage_cell(st: StageWallStats) -> String {
    format!(
        "{} / {}",
        fmt_secs(st.busy.as_secs_f64()),
        fmt_secs(st.stall().as_secs_f64())
    )
}

/// Runs the experiment.
pub fn run(scale: &BenchScale) -> Report {
    let mut report = Report::new(
        "BENCH_pipeline",
        "Pipelined epoch executor: wall time and stage busy/stall vs prefetch depth",
    );
    let data = scale.bundle(Dataset::Products);
    let mut table = Table::new(
        "GCN/Products, FastGL policy; same epochs at every depth",
        &[
            "prefetch",
            "wall epoch time",
            "wall speedup vs serial",
            "simulated total",
            "sample busy/stall",
            "prepare busy/stall",
            "execute busy/stall",
        ],
    );
    let mut serial_wall = None;
    let mut serial_stats = None;
    for depth in [0usize, 1, 2, 4] {
        // Pipelining overlaps *across* windows, so run the smallest
        // reorder window: the epoch splits into as many windows as the
        // profile's batch count allows instead of one monolithic window.
        let mut cfg = base_config(scale).with_prefetch_windows(depth);
        cfg.reorder_window = 2;
        let mut sys = Pipeline::fastgl(cfg);
        let started = Instant::now();
        let s = sys.run_epochs(&data, scale.epochs);
        let elapsed = started.elapsed().as_secs_f64();
        let serial = *serial_wall.get_or_insert(elapsed);
        match serial_stats {
            None => serial_stats = Some(s),
            Some(base) => assert_eq!(base, s, "prefetch depth {depth} changed simulated results"),
        }
        let wall = sys.pipeline_wall_stats().expect("at least one epoch ran");
        table.push_row(vec![
            depth.to_string(),
            fmt_secs(elapsed),
            fmt_ratio(serial / elapsed),
            fmt_secs(s.total().as_secs_f64()),
            stage_cell(wall.sample),
            stage_cell(wall.prepare),
            stage_cell(wall.execute),
        ]);
    }
    report.tables.push(table);
    report.note(
        "Expected shape: the simulated total is byte-identical in every \
         row (asserted), while wall time drops once prefetch ≥ 1 lets the \
         sampler run ahead of compute — the win saturates when the \
         slowest stage is fully busy, so depth 2 vs 4 is mostly flat. \
         Stall columns show where the pipeline waits: a sampler-bound run \
         stalls the execute stage, a compute-bound run stalls the \
         sampler. Depth 0 is the serial loop (busy only, no stalls). \
         Wall-clock numbers vary machine to machine; the committed \
         baseline records the shape, not a pinned value. On a \
         single-core host the stages cannot run concurrently and the \
         thread hand-off overhead makes depths >= 1 slightly *slower* \
         than serial — the overlap win needs two or more cores \
         (and FASTGL_THREADS >= 2 for the in-stage kernels).",
    );
    report
}
