//! Integration tests for the telemetry subsystem against the real
//! training pipeline: totals must not depend on the thread count, the
//! simulated-time track must agree with the pipeline's own phase
//! accounting, and disabling telemetry must change nothing about results.

use fastgl_core::system::TrainingSystem;
use fastgl_core::trainer::{train, TrainerConfig};
use fastgl_core::{EpochStats, FastGlConfig, Pipeline};
use fastgl_graph::generate::community::{self, CommunityConfig};
use fastgl_graph::{Dataset, DatasetBundle, NodeId};
use std::sync::Mutex;

/// Serializes tests: telemetry state and the thread override are global.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn data() -> DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 1024.0, 11)
}

fn config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(32)
        .with_fanouts(vec![3, 5])
}

/// Runs two epochs with telemetry on and returns the stats plus snapshot.
fn run_with_telemetry(threads: usize) -> (Vec<EpochStats>, fastgl_telemetry::Snapshot) {
    fastgl_telemetry::set_enabled(true);
    fastgl_telemetry::reset();
    fastgl_tensor::parallel::set_num_threads(threads);
    let bundle = data();
    let mut sys = Pipeline::fastgl(config());
    let stats: Vec<EpochStats> = (0..2).map(|e| sys.run_epoch(&bundle, e)).collect();
    let snap = fastgl_telemetry::drain();
    fastgl_tensor::parallel::set_num_threads(0);
    fastgl_telemetry::set_enabled(false);
    (stats, snap)
}

#[test]
fn counter_totals_invariant_across_thread_counts() {
    let _guard = lock();
    let (base_stats, base_snap) = run_with_telemetry(1);
    for threads in [2usize, 8] {
        let (stats, snap) = run_with_telemetry(threads);
        assert_eq!(stats, base_stats, "results differ at {threads} threads");
        assert_eq!(
            snap.counters, base_snap.counters,
            "counter totals differ at {threads} threads"
        );
        // Span *counts* per name are structural (how many batches, how
        // many epochs) except for the worker-chunk spans, whose number
        // legitimately grows with the thread count.
        let count_by_name = |s: &fastgl_telemetry::Snapshot| {
            let mut m = std::collections::BTreeMap::new();
            for (name, agg) in s.span_totals() {
                if name != "parallel.chunk" {
                    m.insert(name, agg.count);
                }
            }
            m
        };
        assert_eq!(
            count_by_name(&snap),
            count_by_name(&base_snap),
            "span counts differ at {threads} threads"
        );
    }
}

#[test]
fn sim_phase_totals_match_epoch_breakdowns() {
    let _guard = lock();
    let (stats, snap) = run_with_telemetry(1);
    let totals = snap.sim_phase_totals();
    let sum = |f: fn(&EpochStats) -> u64| stats.iter().map(f).sum::<u64>();
    assert_eq!(
        totals.get("sample").copied(),
        Some(sum(|s| s.breakdown.sample.as_nanos())),
        "sample phase disagrees with the simulator"
    );
    assert_eq!(
        totals.get("io").copied(),
        Some(sum(|s| s.breakdown.io.as_nanos())),
        "io phase disagrees with the simulator"
    );
    assert_eq!(
        totals.get("compute").copied(),
        Some(sum(|s| s.breakdown.compute.as_nanos())),
        "compute phase disagrees with the simulator"
    );
    assert_eq!(snap.dropped_events, 0, "buffer must not overflow here");
}

#[test]
fn pipeline_counters_cross_check_epoch_stats() {
    let _guard = lock();
    let (stats, snap) = run_with_telemetry(1);
    let rows_loaded: u64 = stats.iter().map(|s| s.rows_loaded).sum();
    let iterations: u64 = stats.iter().map(|s| s.iterations).sum();
    // Counters that were never touched (e.g. no PCIe loads because the
    // cache held everything) are simply absent: absent == zero.
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("io.rows_loaded"), rows_loaded);
    assert_eq!(counter("pipeline.iterations"), iterations);
    assert!(iterations > 0);
    assert!(snap.counters.contains_key("sample.edges_sampled"));
    // Every epoch produced one wall span and its exporters parse.
    assert_eq!(snap.span_totals()["pipeline.epoch"].count, 2);
    // Each epoch replays the cache simulator once per layer (two here).
    assert_eq!(snap.span_totals()["gpusim.replay"].count, 4);
    // Each of the seven sampler calls draws and ID-maps once per hop
    // (two hops here).
    assert_eq!(snap.span_totals()["sample.neighbor"].count, 7);
    assert_eq!(snap.span_totals()["sample.draw"].count, 14);
    assert_eq!(snap.span_totals()["sample.id_map"].count, 14);
    assert!(counter(fastgl_telemetry::names::GPUSIM_REPLAY_LINES) > 0);
    let trace = fastgl_telemetry::export::chrome_trace(&snap);
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("pipeline.epoch"));
}

#[test]
fn trainer_spans_cover_every_stage_of_an_iteration() {
    let _guard = lock();
    let d = community::generate(
        &CommunityConfig {
            num_nodes: 600,
            num_classes: 3,
            intra_degree: 8.0,
            inter_degree: 1.0,
            feature_dim: 12,
            feature_noise: 0.8,
        },
        3,
    );
    let train_nodes: Vec<NodeId> = (0..500).map(NodeId).collect();
    let cfg = TrainerConfig {
        fanouts: vec![4, 4],
        batch_size: 96,
        epochs: 2,
        reorder: true,
        window: 4,
        ..Default::default()
    };
    fastgl_telemetry::set_enabled(true);
    fastgl_telemetry::reset();
    let run = train(&d.graph, &d.features, &d.labels, &train_nodes, &cfg);
    let snap = fastgl_telemetry::drain();
    fastgl_telemetry::set_enabled(false);
    // 500 nodes in batches of 96 is 6 batches per epoch, so 12 in all,
    // in two windows of 4 batches or fewer per epoch.
    assert_eq!(run.iteration_losses.len(), 12);
    let spans = snap.span_totals();
    for name in [
        "trainer.iteration",
        "trainer.sample",
        "trainer.gather",
        "trainer.forward",
        "trainer.backward",
        "trainer.optim",
    ] {
        assert_eq!(spans[name].count, 12, "{name}");
    }
    assert_eq!(spans["trainer.reorder"].count, 4);
    assert_eq!(spans["trainer.epoch"].count, 2);
}

#[test]
fn disabled_telemetry_leaves_results_and_buffers_untouched() {
    let _guard = lock();
    let (enabled_stats, _) = run_with_telemetry(1);
    fastgl_telemetry::set_enabled(false);
    fastgl_telemetry::reset();
    let bundle = data();
    let mut sys = Pipeline::fastgl(config());
    let stats: Vec<EpochStats> = (0..2).map(|e| sys.run_epoch(&bundle, e)).collect();
    assert_eq!(stats, enabled_stats, "telemetry must not affect results");
    let snap = fastgl_telemetry::snapshot();
    assert!(snap.events.is_empty());
    assert!(snap.counters.is_empty());
}
