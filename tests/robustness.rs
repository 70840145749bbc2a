//! Edge-case and robustness tests: degenerate graphs, tiny batches, and
//! configuration extremes must degrade gracefully, never panic.

use fastgl::baselines::SystemKind;
use fastgl::core::{FastGlConfig, Pipeline, TrainingSystem};
use fastgl::graph::datasets::{DatasetBundle, DatasetSpec};
use fastgl::graph::DeterministicRng;
use fastgl::graph::{Dataset, FeatureStore, GraphBuilder, NodeSplit};
use fastgl::sample::{FusedIdMap, NeighborSampler};

/// Wraps an arbitrary CSR in a runnable dataset bundle.
fn bundle_from_graph(graph: fastgl::graph::Csr, train_frac: f64) -> DatasetBundle {
    let n = graph.num_nodes();
    DatasetBundle {
        spec: DatasetSpec {
            dataset: Dataset::Products,
            num_nodes: n,
            num_edges: graph.num_edges(),
            feature_dim: 16,
            num_classes: 4,
            train_fraction: train_frac,
            scale: 1.0 / 64.0,
        },
        features: FeatureStore::virtual_store(n, 16),
        split: NodeSplit::stratified(n, train_frac, 0.0, 1),
        graph,
    }
}

fn tiny_config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(4)
        .with_fanouts(vec![2, 2])
        .with_gpus(1)
}

#[test]
fn graph_of_isolated_nodes_trains() {
    let data = bundle_from_graph(fastgl::graph::Csr::empty(64), 0.5);
    let mut sys = Pipeline::fastgl(tiny_config());
    let s = sys.run_epoch(&data, 0);
    assert!(s.iterations > 0);
    // Only self-loops: every subgraph is exactly its seeds.
    assert_eq!(s.edges_sampled, 0);
}

#[test]
fn single_edge_graph_runs_every_system() {
    let g = GraphBuilder::new(8).symmetric(true).add_edge(0, 1).build();
    let data = bundle_from_graph(g, 0.5);
    for kind in [SystemKind::Dgl, SystemKind::FastGl, SystemKind::PaGraph] {
        let s = kind.build(tiny_config()).run_epoch(&data, 0);
        assert!(s.iterations > 0, "{kind}");
    }
}

#[test]
fn batch_larger_than_train_set_is_one_batch() {
    let data = Dataset::Products.generate_scaled(1.0 / 4096.0, 61);
    let huge_batch = tiny_config().with_batch_size(1_000_000);
    let mut sys = Pipeline::fastgl(huge_batch);
    let s = sys.run_epoch(&data, 0);
    assert_eq!(s.iterations, 1);
}

#[test]
fn star_graph_hub_dominates_every_subgraph() {
    // A hub connected to everything: the hub must appear in every sampled
    // subgraph and Match reuses it every iteration.
    let mut b = GraphBuilder::new(256).symmetric(true);
    for i in 1..256 {
        b.push_edge(0, i);
    }
    let data = bundle_from_graph(b.build(), 0.5);
    let mut cfg = tiny_config().with_cache_ratio(0.0);
    cfg.enable_reorder = false;
    let mut sys = Pipeline::fastgl(cfg);
    let s = sys.run_epoch(&data, 0);
    assert!(s.iterations > 1);
    assert!(s.rows_reused > 0, "the hub must be reused across batches");
}

#[test]
fn deep_sampling_on_tiny_graph_saturates_without_panic() {
    let data = Dataset::Reddit.generate_scaled(1.0 / 8192.0, 63);
    let cfg = tiny_config().with_fanouts(vec![8, 8, 8, 8, 8]);
    let mut sys = Pipeline::fastgl(cfg);
    let s = sys.run_epoch(&data, 0);
    assert!(s.iterations > 0);
}

#[test]
fn sampler_accepts_duplicate_free_singleton_seed() {
    let g = GraphBuilder::new(4).symmetric(true).add_edge(0, 1).build();
    let mut rng = DeterministicRng::seed(1);
    let (sg, _) = NeighborSampler::new(vec![3]).sample(
        &g,
        &[fastgl::graph::NodeId(2)],
        &FusedIdMap::new(),
        &mut rng,
    );
    sg.validate().unwrap();
    assert_eq!(sg.seed_locals.len(), 1);
}

#[test]
fn eight_gpus_on_a_tiny_train_set_leave_empty_shards_out() {
    // 10 train nodes across 8 GPUs: shard 0 has 2 seeds; the epoch must
    // still account at least one iteration.
    let g = GraphBuilder::new(64)
        .symmetric(true)
        .extend_edges((0..63).map(|i| (i, i + 1)))
        .build();
    let data = bundle_from_graph(g, 10.0 / 64.0);
    let mut sys = Pipeline::fastgl(tiny_config().with_gpus(8));
    let s = sys.run_epoch(&data, 0);
    assert!(s.iterations >= 1);
}

#[test]
fn zero_feature_width_is_rejected_upstream() {
    // FeatureStore refuses dim 0 at construction, so no pipeline can be
    // built over it — the invariant the simulator's byte math relies on.
    let result = std::panic::catch_unwind(|| FeatureStore::materialized(vec![], 0));
    assert!(result.is_err());
}
