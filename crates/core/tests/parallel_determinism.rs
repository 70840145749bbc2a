//! The execution backend's central guarantee: every hot path produces
//! bit-identical results at any thread count, and repeated runs at the
//! same thread count are bit-identical too.

use fastgl_gnn::aggregate::{mean_aggregate, sum_aggregate_backward};
use fastgl_gpusim::{AggregationKernel, CostParams, DeviceSpec, SubgraphLayerTrace};
use fastgl_graph::generate::rmat::{self, RmatConfig};
use fastgl_graph::{DeterministicRng, NodeId};
use fastgl_sample::{
    BaselineIdMap, Block, FusedIdMap, NeighborSampler, SampleStats, SampledSubgraph,
};
use fastgl_tensor::{parallel, Matrix};
use std::sync::Mutex;

/// Serializes tests in this binary that flip the global thread override.
static THREADS: Mutex<()> = Mutex::new(());

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_num_threads(n);
    let r = f();
    parallel::set_num_threads(0);
    r
}

fn filled(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = DeterministicRng::seed(seed);
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.normal_f32()).collect(),
    )
}

/// A block with `num_dst` destinations, each pulling `deg` of `num_src`
/// source rows (shared sources exercise accumulation order).
fn fanout_block(num_dst: usize, num_src: usize, deg: usize) -> Block {
    let mut src_offsets = vec![0u64];
    let mut src_locals = Vec::with_capacity(num_dst * deg);
    for i in 0..num_dst {
        for e in 0..deg {
            src_locals.push(((i * 31 + e * 977) % num_src) as u64);
        }
        src_offsets.push(src_locals.len() as u64);
    }
    Block {
        dst_locals: (0..num_dst as u64).collect(),
        src_offsets,
        src_locals,
    }
}

#[test]
fn matmul_bit_identical_across_thread_counts() {
    let a = filled(300, 150, 1);
    let b = filled(150, 90, 2);
    let baseline = with_threads(1, || a.matmul(&b));
    for threads in [1usize, 2, 8] {
        for run in 0..2 {
            let got = with_threads(threads, || a.matmul(&b));
            assert_eq!(
                got.as_slice(),
                baseline.as_slice(),
                "matmul diverged at {threads} threads (run {run})"
            );
        }
    }
}

#[test]
fn aggregation_bit_identical_across_thread_counts() {
    let num_dst = 700;
    let num_src = 1_500;
    let block = fanout_block(num_dst, num_src, 11);
    let z = filled(num_src, 48, 3);
    let grad = filled(num_dst, 48, 4);
    let baseline = with_threads(1, || {
        (
            mean_aggregate(&block, &z),
            sum_aggregate_backward(&block, &grad, num_src),
        )
    });
    for threads in [1usize, 2, 8] {
        for run in 0..2 {
            let got = with_threads(threads, || {
                (
                    mean_aggregate(&block, &z),
                    sum_aggregate_backward(&block, &grad, num_src),
                )
            });
            assert_eq!(
                got.0.as_slice(),
                baseline.0.as_slice(),
                "mean_aggregate diverged at {threads} threads (run {run})"
            );
            assert_eq!(
                got.1.as_slice(),
                baseline.1.as_slice(),
                "sum_aggregate_backward diverged at {threads} threads (run {run})"
            );
        }
    }
}

/// One full mini-batch — sample, gather, aggregate, dense update — must be
/// bit-identical across `FASTGL_THREADS ∈ {1, 2, 8}` and repeated runs,
/// down to the sampler's statistics, with either ID map.
#[test]
fn full_minibatch_bit_identical_across_thread_counts() {
    let graph = rmat::generate(&RmatConfig::social(3_000, 24_000), 5);
    // Not a multiple of the sampler's grain, so the seed frontier splits
    // into uneven chunks.
    let num_seeds = 3 * parallel::SAMPLE_GRAIN_SEEDS as u64 + 17;
    let seeds: Vec<NodeId> = (0..num_seeds).map(|i| NodeId(i * 11 % 3_000)).collect();
    let fanouts = vec![4, 6, 8];
    // Both draw paths run: nodes that keep every neighbour and nodes whose
    // neighbours are sampled.
    let degrees: Vec<usize> = seeds.iter().map(|&s| graph.neighbors(s).len()).collect();
    assert!(degrees.iter().any(|&d| d <= fanouts[0]));
    assert!(degrees.iter().any(|&d| d > fanouts[2]));
    let dim = 32;
    let feats: Vec<f32> = {
        let mut rng = DeterministicRng::seed(7);
        (0..3_000 * dim).map(|_| rng.normal_f32()).collect()
    };
    let weight = filled(dim, 16, 8);

    type Sampled = (SampledSubgraph, SampleStats);
    let minibatch = || -> (Sampled, Sampled, Matrix) {
        let sampler = NeighborSampler::new(fanouts.clone());
        let fused = sampler.sample(
            &graph,
            &seeds,
            &FusedIdMap::new(),
            &mut DeterministicRng::seed(42),
        );
        let baseline = sampler.sample(
            &graph,
            &seeds,
            &BaselineIdMap::new(),
            &mut DeterministicRng::seed(42),
        );
        let sg = &fused.0;
        let idx: Vec<usize> = sg.nodes.iter().map(|n| n.index()).collect();
        let gathered = Matrix::gather_flat(&feats, dim, 3_000, &idx);
        // One hop of the model: aggregate the widest block, then the dense
        // update — enough to cover every backend hot path in sequence.
        let h = mean_aggregate(&sg.blocks[0], &gathered)
            .matmul(&weight)
            .map(|x| x.max(0.0));
        (fused, baseline, h)
    };

    let (base_fused, base_baseline, base_h) = with_threads(1, minibatch);
    // Both maps number IDs by first occurrence: same subgraph.
    assert_eq!(base_fused.0, base_baseline.0);
    assert_eq!(base_fused.0.blocks.len(), 3);
    for threads in [1usize, 2, 8] {
        for run in 0..2 {
            let (fused, baseline, h) = with_threads(threads, minibatch);
            assert_eq!(
                fused, base_fused,
                "Fused-Map sample diverged at {threads} threads (run {run})"
            );
            assert_eq!(
                baseline, base_baseline,
                "baseline-map sample diverged at {threads} threads (run {run})"
            );
            assert_eq!(
                h.as_slice(),
                base_h.as_slice(),
                "minibatch output diverged at {threads} threads (run {run})"
            );
        }
    }
}

/// A layer of `num_dst` targets, each aggregating `deg` of `num_src`
/// sources drawn by a fixed LCG (no locality, like a sampled layer).
fn random_layer(num_dst: u64, deg: u64, num_src: u64) -> (Vec<u64>, Vec<u64>) {
    let mut offsets = vec![0u64];
    let mut sources = Vec::with_capacity((num_dst * deg) as usize);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..num_dst {
        for _ in 0..deg {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            sources.push((x >> 33) % num_src);
        }
        offsets.push(sources.len() as u64);
    }
    (offsets, sources)
}

/// The naive aggregation's cache replay splits the lines into
/// `gcd(l1_sets, l2_sets)` independent set classes and replays them in
/// parallel; its L1/L2 counts must not depend on the thread count, for a
/// dataset-scaled geometry (4 L1 sets and 32 L2 sets: 4 classes), one
/// with a single class (128 L1 sets, 33 L2 sets), and a replay cut off by
/// `max_trace_accesses`.
#[test]
fn cache_replay_bit_identical_across_thread_counts() {
    let rtx = DeviceSpec::rtx3090();
    let scaled =
        AggregationKernel::new(rtx.clone(), CostParams::default()).with_capacity_scale(1.0 / 256.0);
    // An L2 of 33 sets: odd, so it shares no factor with the L1's 128.
    let odd = DeviceSpec {
        l2_bytes: 33 * 16 * rtx.line_bytes,
        ..rtx.clone()
    };
    let single_class = AggregationKernel::new(odd, CostParams::default());
    let mut truncated = scaled.clone();
    // 27k edges count 4 accesses each, so the replay stops after 5k edges.
    truncated.max_trace_accesses = 20_000;

    let (offsets, sources) = random_layer(3_000, 9, 20_000);
    let cases = [
        ("dataset-scaled", scaled, 100),
        ("single class", single_class, 256),
        ("truncated", truncated, 100),
    ];
    for (name, kernel, feature_dim) in cases {
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 20_000,
            feature_dim,
        };
        let replay = || {
            let cost = kernel.naive_cost(&trace);
            (cost.l1, cost.l2)
        };
        let baseline = with_threads(1, replay);
        assert!(
            baseline.0.hits > 0 && baseline.1.hits > 0,
            "{name}: no hits"
        );
        for threads in [1usize, 2, 8] {
            for run in 0..2 {
                assert_eq!(
                    with_threads(threads, replay),
                    baseline,
                    "{name}: replay diverged at {threads} threads (run {run})"
                );
            }
        }
    }
}
