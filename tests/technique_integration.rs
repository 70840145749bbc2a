//! Integration tests of the three FastGL techniques acting through the
//! full pipeline: each must improve exactly the phase it targets, and
//! stacking them must never hurt.

use fastgl::core::{ComputeMode, FastGlConfig, IdMapKind, Pipeline, TrainingSystem};
use fastgl::graph::{Dataset, DatasetBundle};

fn data() -> DatasetBundle {
    Dataset::Products.generate_scaled(1.0 / 256.0, 17)
}

/// Batch size small enough that each 2-GPU shard still runs several
/// mini-batches per epoch — Match needs consecutive batches to reuse.
fn naive_config() -> FastGlConfig {
    let mut c = FastGlConfig::default()
        .with_batch_size(64)
        .with_fanouts(vec![5, 10])
        .with_cache_ratio(0.0);
    c.enable_match = false;
    c.enable_reorder = false;
    c.compute_mode = ComputeMode::Naive;
    c.id_map = IdMapKind::Baseline;
    c
}

#[test]
fn match_reorder_cuts_io_and_only_io() {
    let data = data();
    let naive = Pipeline::fastgl(naive_config()).run_epochs(&data, 2);
    let mut cfg = naive_config();
    cfg.enable_match = true;
    cfg.enable_reorder = true;
    let mr = Pipeline::fastgl(cfg).run_epochs(&data, 2);
    assert!(
        mr.breakdown.io < naive.breakdown.io,
        "MR must cut IO: {} vs {}",
        mr.breakdown.io,
        naive.breakdown.io
    );
    assert_eq!(mr.breakdown.compute, naive.breakdown.compute);
    assert!(mr.rows_reused > 0);
    assert!(mr.bytes_h2d < naive.bytes_h2d);
}

#[test]
fn memory_aware_cuts_compute_and_only_compute() {
    let data = data();
    let naive = Pipeline::fastgl(naive_config()).run_epochs(&data, 2);
    let mut cfg = naive_config();
    cfg.compute_mode = ComputeMode::MemoryAware;
    let ma = Pipeline::fastgl(cfg).run_epochs(&data, 2);
    assert!(
        ma.breakdown.compute < naive.breakdown.compute,
        "MA must cut compute: {} vs {}",
        ma.breakdown.compute,
        naive.breakdown.compute
    );
    assert_eq!(ma.breakdown.io, naive.breakdown.io);
    assert_eq!(ma.breakdown.sample, naive.breakdown.sample);
}

#[test]
fn fused_map_cuts_sample_and_only_sample() {
    let data = data();
    let naive = Pipeline::fastgl(naive_config()).run_epochs(&data, 2);
    let mut cfg = naive_config();
    cfg.id_map = IdMapKind::Fused;
    let fm = Pipeline::fastgl(cfg).run_epochs(&data, 2);
    assert!(
        fm.breakdown.sample < naive.breakdown.sample,
        "FM must cut sample: {} vs {}",
        fm.breakdown.sample,
        naive.breakdown.sample
    );
    assert_eq!(fm.breakdown.io, naive.breakdown.io);
    assert_eq!(fm.breakdown.compute, naive.breakdown.compute);
    assert!(fm.id_map_time < naive.id_map_time);
}

#[test]
fn stacking_techniques_is_monotone() {
    let data = data();
    let naive = Pipeline::fastgl(naive_config()).run_epochs(&data, 2);
    let mut mr = naive_config();
    mr.enable_match = true;
    mr.enable_reorder = true;
    let s_mr = Pipeline::fastgl(mr.clone()).run_epochs(&data, 2);
    let mut mr_ma = mr;
    mr_ma.compute_mode = ComputeMode::MemoryAware;
    let s_mr_ma = Pipeline::fastgl(mr_ma.clone()).run_epochs(&data, 2);
    let mut full = mr_ma;
    full.id_map = IdMapKind::Fused;
    let s_full = Pipeline::fastgl(full).run_epochs(&data, 2);
    assert!(s_mr.total() < naive.total());
    assert!(s_mr_ma.total() < s_mr.total());
    assert!(s_full.total() < s_mr_ma.total());
}

#[test]
fn reorder_loads_no_more_rows_than_match_alone() {
    let data = data();
    let mut match_only = naive_config();
    match_only.enable_match = true;
    let mut reordered = match_only.clone();
    reordered.enable_reorder = true;
    let s_m = Pipeline::fastgl(match_only).run_epochs(&data, 3);
    let s_r = Pipeline::fastgl(reordered).run_epochs(&data, 3);
    assert!(
        s_r.rows_loaded <= s_m.rows_loaded,
        "reorder loaded {} rows, match-only {}",
        s_r.rows_loaded,
        s_m.rows_loaded
    );
}

#[test]
fn bigger_batches_raise_reuse_fraction() {
    // Paper Fig. 14b's mechanism: larger batches overlap more.
    let data = data();
    let reuse = |batch: u64| {
        let mut cfg = naive_config().with_batch_size(batch);
        cfg.enable_match = true;
        cfg.enable_reorder = true;
        let s = Pipeline::fastgl(cfg).run_epochs(&data, 2);
        s.rows_reused as f64 / (s.rows_reused + s.rows_loaded).max(1) as f64
    };
    let small = reuse(32);
    let large = reuse(128);
    assert!(
        large > small,
        "reuse fraction must grow with batch size: {small:.3} vs {large:.3}"
    );
}
