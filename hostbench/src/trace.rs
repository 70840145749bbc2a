//! The traced replay: one epoch re-run through the layers' public
//! functions, with each call timed from the benchmark.
//!
//! The replay makes the same calls, in the same order, as the serial
//! executor (`prefetch_windows = 0`) of `Pipeline::run_epoch` or as
//! `trainer::train`, so its counts must equal the timed epoch's output;
//! [`SimReplay::epoch`] and [`train_epoch`] return the differences as
//! errors. Spans are recorded here, around the calls, not inside the
//! program. Checking the replay's intermediate results (every
//! `SampledSubgraph` and every ID-map output) happens outside the timed
//! intervals: subgraphs are validated after the epoch, and the time spent
//! verifying ID-map outputs inline is subtracted from both the sample
//! layer and the epoch.

use crate::output::Output;
use crate::workload::{Sim, Train};
use fastgl_core::match_reorder::{greedy_reorder, match_load_set};
use fastgl_core::memory_model::{
    estimate_batch_memory, estimate_batch_memory_with_runtime, RUNTIME_RESERVED_BYTES,
};
use fastgl_core::multi_gpu::GpuRoles;
use fastgl_core::sampler::SamplerEngine;
use fastgl_core::{CachePolicy, CacheRankPolicy, ComputeEngine, FeatureCache, IdMapKind};
use fastgl_gnn::{census, GnnModel, LayerWorkload, ModelConfig};
use fastgl_gpusim::{AggregationKernel, SubgraphLayerTrace};
use fastgl_graph::{DeterministicRng, NodeId};
use fastgl_sample::overlap::match_degree_matrix;
use fastgl_sample::{
    BaselineIdMap, FusedIdMap, IdMap, IdMapOutput, IdMapStats, MinibatchPlan, NeighborSampler,
    SampledSubgraph,
};
use fastgl_tensor::loss::softmax_cross_entropy;
use fastgl_tensor::{Adam, Matrix};
use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// Runs `f`, adding its wall time to `acc`.
fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed();
    out
}

/// An [`IdMap`] that times the map it delegates to and verifies each
/// output, keeping the verification time apart.
struct TimedIdMap<'a> {
    inner: &'a dyn IdMap,
    busy: Cell<Duration>,
    verify: Cell<Duration>,
    stats: Cell<IdMapStats>,
    errors: RefCell<Vec<String>>,
}

impl<'a> TimedIdMap<'a> {
    fn new(inner: &'a dyn IdMap) -> Self {
        Self {
            inner,
            busy: Cell::new(Duration::ZERO),
            verify: Cell::new(Duration::ZERO),
            stats: Cell::new(IdMapStats::default()),
            errors: RefCell::new(Vec::new()),
        }
    }
}

impl IdMap for TimedIdMap<'_> {
    fn map(&self, ids: &[u64]) -> IdMapOutput {
        let start = Instant::now();
        let out = self.inner.map(ids);
        let mapped = Instant::now();
        if let Err(e) = out.verify(ids) {
            self.errors.borrow_mut().push(format!("id map: {e}"));
        }
        let mut stats = self.stats.get();
        stats.merge(&out.stats);
        self.stats.set(stats);
        self.busy.set(self.busy.get() + (mapped - start));
        self.verify.set(self.verify.get() + mapped.elapsed());
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Everything measured and counted in one traced epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTrace {
    /// `NeighborSampler::sample` calls.
    pub sample_calls: u64,
    /// Time in sampling (draws, ID map, pricing), verification excluded.
    pub sample: Duration,
    /// Neighbour draws.
    pub edges: u64,
    /// Time inside the ID map.
    pub id_map: Duration,
    /// ID-map event counts.
    pub id_map_stats: IdMapStats,
    /// Time ordering windows (sorted ID sets, match degrees, Algorithm 1).
    pub reorder: Duration,
    /// Windows ordered.
    pub windows: u64,
    /// Time computing Match load sets.
    pub matching: Duration,
    /// Rows the Match step examined.
    pub match_rows: u64,
    /// Rows Match reused from the resident batch.
    pub match_reused: u64,
    /// Time building the device feature cache.
    pub cache_build: Duration,
    /// Time partitioning load sets into cache hits and misses.
    pub cache_partition: Duration,
    /// Rows looked up in the cache.
    pub cache_rows: u64,
    /// Rows the cache served.
    pub cache_hits: u64,
    /// `ComputeEngine::batch_time` calls.
    pub compute_calls: u64,
    /// Time in `ComputeEngine::batch_time`.
    pub compute: Duration,
    /// The first `batch_time` call of the epoch, which replays the access
    /// stream through the simulated L1/L2.
    pub replay: Duration,
    /// Accesses of that replay (from `AggregationKernel::naive_cost`).
    pub accesses: u64,
    /// Its L1 hits.
    pub l1_hits: u64,
    /// Its L2 accesses (the L1 misses).
    pub l2_accesses: u64,
    /// Its L2 hits.
    pub l2_hits: u64,
    /// Time in the workload census.
    pub census: Duration,
    /// Time gathering feature rows.
    pub gather: Duration,
    /// Feature rows gathered.
    pub gather_rows: u64,
    /// Time in forward passes.
    pub forward: Duration,
    /// Time in backward passes.
    pub backward: Duration,
    /// Time in the optimiser step.
    pub optim: Duration,
    /// Census-counted floating-point operations of the forward passes.
    pub forward_flops: u64,
    /// Census-counted floating-point operations of the backward passes.
    pub backward_flops: u64,
    /// The epoch's wall time, verification excluded.
    pub epoch: Duration,
}

/// Names and units of the per-layer metrics, in `BENCHMARK.json` order.
pub const METRICS: [(&str, &str); 39] = [
    ("sample.calls", "count"),
    ("sample.busy_s", "s"),
    ("sample.edges", "count"),
    ("sample.ns_per_edge", "ns"),
    ("sample.draw_s", "s"),
    ("id_map.busy_s", "s"),
    ("id_map.ids", "count"),
    ("id_map.ns_per_id", "ns"),
    ("id_map.unique_ratio", "ratio"),
    ("id_map.probes_per_id", "ratio"),
    ("reorder.busy_s", "s"),
    ("reorder.windows", "count"),
    ("match.busy_s", "s"),
    ("match.rows", "count"),
    ("match.reuse_ratio", "ratio"),
    ("cache.build_s", "s"),
    ("cache.partition_s", "s"),
    ("cache.rows", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.ns_per_row", "ns"),
    ("compute.calls", "count"),
    ("compute.busy_s", "s"),
    ("gpusim.replay_s", "s"),
    ("gpusim.accesses", "count"),
    ("gpusim.ns_per_access", "ns"),
    ("gpusim.l1_hit_ratio", "ratio"),
    ("gpusim.l2_hit_ratio", "ratio"),
    ("census.busy_s", "s"),
    ("gather.busy_s", "s"),
    ("gather.rows", "count"),
    ("forward.busy_s", "s"),
    ("backward.busy_s", "s"),
    ("optim.busy_s", "s"),
    ("forward.gflops", "GFLOP/s"),
    ("backward.gflops", "GFLOP/s"),
    ("graph.generate_s", "s"),
    ("epoch.traced_s", "s"),
    ("epoch.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num / den as f64
    }
}

impl LayerTrace {
    /// Time attributed to a named layer (nested layers counted once).
    pub fn attributed(&self) -> Duration {
        self.sample
            + self.reorder
            + self.matching
            + self.cache_build
            + self.cache_partition
            + self.census
            + self.compute
            + self.gather
            + self.forward
            + self.backward
            + self.optim
    }

    /// The metric values, in [`METRICS`] order. `generate_s` is the graph
    /// generation time of set-up; `untraced_epoch_s` the untraced median
    /// epoch the overhead is measured against.
    pub fn metrics(&self, generate_s: f64, untraced_epoch_s: f64) -> Vec<f64> {
        let s = |d: Duration| d.as_secs_f64();
        let ns = |d: Duration| d.as_secs_f64() * 1e9;
        let ids = self.id_map_stats.total_ids;
        let flops_rate = |flops: u64, d: Duration| {
            if d.is_zero() {
                0.0
            } else {
                flops as f64 / d.as_secs_f64() / 1e9
            }
        };
        vec![
            self.sample_calls as f64,
            s(self.sample),
            self.edges as f64,
            ratio(ns(self.sample), self.edges),
            s(self.sample.saturating_sub(self.id_map)),
            s(self.id_map),
            ids as f64,
            ratio(ns(self.id_map), ids),
            ratio(self.id_map_stats.unique_ids as f64, ids),
            ratio(self.id_map_stats.probes as f64, ids),
            s(self.reorder),
            self.windows as f64,
            s(self.matching),
            self.match_rows as f64,
            ratio(self.match_reused as f64, self.match_rows),
            s(self.cache_build),
            s(self.cache_partition),
            self.cache_rows as f64,
            ratio(self.cache_hits as f64, self.cache_rows),
            ratio(ns(self.cache_partition), self.cache_rows),
            self.compute_calls as f64,
            s(self.compute),
            s(self.replay),
            self.accesses as f64,
            ratio(ns(self.replay), self.accesses),
            ratio(self.l1_hits as f64, self.accesses),
            ratio(self.l2_hits as f64, self.l2_accesses),
            s(self.census),
            s(self.gather),
            self.gather_rows as f64,
            s(self.forward),
            s(self.backward),
            s(self.optim),
            flops_rate(self.forward_flops, self.forward),
            flops_rate(self.backward_flops, self.backward),
            generate_s,
            s(self.epoch),
            s(self.epoch.saturating_sub(self.attributed())),
            s(self.epoch) / untraced_epoch_s,
        ]
    }
}

/// Validates every subgraph, returning one error per invalid subgraph.
fn validate_all(subgraphs: &[SampledSubgraph]) -> Vec<String> {
    subgraphs
        .iter()
        .enumerate()
        .filter_map(|(i, sg)| sg.validate().err().map(|e| format!("subgraph {i}: {e}")))
        .collect()
}

/// The traced replay of a simulated workload's epochs.
pub struct SimReplay {
    compute: ComputeEngine,
    engine: SamplerEngine,
    neighbor: NeighborSampler,
    map: Box<dyn IdMap>,
    /// Rows of the auto-sized cache, probed once like the pipeline does.
    auto_cache_rows: u64,
}

impl SimReplay {
    /// A replay of `sim`'s system, with its auto-sized cache probed.
    pub fn new(sim: &Sim) -> Self {
        let config = &sim.config;
        let map: Box<dyn IdMap> = match config.id_map {
            IdMapKind::Baseline => Box::new(BaselineIdMap::new()),
            IdMapKind::Fused => Box::new(FusedIdMap::new()),
        };
        let mut replay = Self {
            compute: ComputeEngine::new(config.system.clone(), config.compute_mode, config.model),
            engine: SamplerEngine::new(config),
            neighbor: NeighborSampler::new(config.fanouts.clone()),
            map,
            auto_cache_rows: 0,
        };
        if sim.policy.cache == CachePolicy::Auto {
            replay.auto_cache_rows = replay.probe_auto_cache_rows(sim);
        }
        replay
    }

    fn model_config(sim: &Sim) -> ModelConfig {
        let spec = &sim.data.spec;
        ModelConfig::paper(sim.config.model, spec.feature_dim, spec.num_classes)
            .with_layers(sim.config.num_layers())
            .with_hidden(sim.config.hidden_dim)
    }

    /// The pipeline's auto-cache probe: sample one batch, estimate its
    /// device memory, cache as many rows as the rest of the device holds.
    fn probe_auto_cache_rows(&self, sim: &Sim) -> u64 {
        let (config, data) = (&sim.config, &sim.data);
        let model_cfg = Self::model_config(sim);
        let mut rng = DeterministicRng::seed(config.seed ^ 0xCAC4E).derive(7);
        let seeds: Vec<NodeId> = data
            .train_nodes()
            .iter()
            .take(config.batch_size as usize)
            .copied()
            .collect();
        if seeds.is_empty() {
            return 0;
        }
        let (sg, stats) = self
            .neighbor
            .sample(&data.graph, &seeds, self.map.as_ref(), &mut rng);
        let workloads = census(&sg, &model_cfg.layer_dims());
        let scale = data.spec.scale.clamp(0.0, 1.0);
        let est = estimate_batch_memory_with_runtime(
            &workloads,
            model_cfg.param_bytes(),
            sg.num_nodes(),
            data.spec.feature_dim,
            sg.topology_bytes(),
            stats.id_map.total_ids,
            0,
            (RUNTIME_RESERVED_BYTES as f64 * scale) as u64,
        );
        let capacity = (config.system.device.global_bytes as f64 * scale) as u64;
        let row_bytes = data.spec.feature_dim as u64 * 4;
        (est.remaining(capacity) / row_bytes).min(data.graph.num_nodes())
    }

    fn build_cache(&self, sim: &Sim) -> FeatureCache {
        let data = &sim.data;
        let row_bytes = data.spec.feature_dim as u64 * 4;
        let rows = match sim.policy.cache {
            CachePolicy::None => 0,
            CachePolicy::Ratio(r) => (data.graph.num_nodes() as f64 * r) as u64,
            CachePolicy::Auto => self.auto_cache_rows,
        };
        assert_eq!(
            sim.policy.cache_rank,
            CacheRankPolicy::Degree,
            "the benchmark's systems rank the cache by degree"
        );
        if rows == 0 {
            FeatureCache::empty()
        } else {
            FeatureCache::degree_ordered(&data.graph, rows, row_bytes)
        }
    }

    /// Replays simulated epoch `epoch` of `sim` and compares its counts
    /// with `untraced`, that epoch's untraced output. Returns the trace and
    /// every discrepancy or validation failure found.
    pub fn epoch(&mut self, sim: &Sim, epoch: u64, untraced: &Output) -> (LayerTrace, Vec<String>) {
        let (config, policy, data) = (&sim.config, sim.policy, &sim.data);
        let mut t = LayerTrace::default();
        let map = TimedIdMap::new(self.map.as_ref());
        let start = Instant::now();

        self.compute.set_workload_scale(data.spec.scale);
        self.compute.reset_trace_cache();
        let roles = GpuRoles::new(config.system.num_gpus, policy.sampler_gpus);
        let shards = data.split.shard_train(roles.trainers);
        let plan = MinibatchPlan::new(
            &shards[0],
            config.batch_size as usize,
            config.seed ^ data.spec.dataset as u64,
            epoch,
        );
        let cache = timed(&mut t.cache_build, || self.build_cache(sim));
        let model_cfg = Self::model_config(sim);
        let dims = model_cfg.layer_dims();
        let param_bytes = model_cfg.param_bytes();
        let row_bytes = data.spec.feature_dim as u64 * 4;
        let rng_base =
            DeterministicRng::seed(config.seed ^ 0x9A9A ^ data.spec.dataset as u64).derive(epoch);
        let mut io = fastgl_core::io::IoEngine::new(&config.system, roles.trainers);
        let window = if policy.use_reorder {
            config.reorder_window.max(2)
        } else {
            1
        };
        let batches: Vec<&[NodeId]> = plan.iter().collect();
        let mut resident: Vec<NodeId> = Vec::new();
        let mut kept: Vec<SampledSubgraph> = Vec::with_capacity(batches.len());
        let mut first_executed: Option<usize> = None;
        let (mut iterations, mut rows_loaded) = (0u64, 0u64);

        for (w, chunk) in batches.chunks(window).enumerate() {
            let mut sampled = Vec::with_capacity(chunk.len());
            for (i, seeds) in chunk.iter().enumerate() {
                let mut rng = rng_base.derive((w * window + i) as u64);
                let (sg, stats) = timed(&mut t.sample, || {
                    let (sg, stats) = self.neighbor.sample(&data.graph, seeds, &map, &mut rng);
                    let timing = self.engine.sample_time(&stats, &config.system.cost);
                    (sg, (stats, timing))
                });
                t.sample_calls += 1;
                t.edges += stats.0.edges_sampled;
                sampled.push((sg, stats));
            }
            let order: Vec<usize> = timed(&mut t.reorder, || {
                let sets: Vec<&[NodeId]> =
                    sampled.iter().map(|b| b.0.sorted_global_ids()).collect();
                if policy.use_reorder && sets.len() > 1 {
                    greedy_reorder(&match_degree_matrix(&sets))
                } else {
                    (0..sets.len()).collect()
                }
            });
            t.windows += 1;
            for &idx in &order {
                let (sg, (s_stats, _timing)) = &sampled[idx];
                let incoming = sg.sorted_global_ids();
                let (load, reused) = timed(&mut t.matching, || {
                    let out = if policy.use_match {
                        let m = match_load_set(incoming, &resident);
                        (m.load, m.reused)
                    } else {
                        (incoming.to_vec(), 0)
                    };
                    resident = incoming.to_vec();
                    out
                });
                t.match_rows += incoming.len() as u64;
                t.match_reused += reused;
                let (hits, misses) = timed(&mut t.cache_partition, || cache.partition(&load));
                t.cache_rows += load.len() as u64;
                t.cache_hits += hits;
                // Priced and sized like the pipeline does (here and below),
                // so the replay does the same work; the results are unused.
                io.load_rows(misses.len() as u64, row_bytes);
                rows_loaded += misses.len() as u64;
                let workloads = timed(&mut t.census, || census(sg, &dims));
                let before = t.compute;
                timed(&mut t.compute, || self.compute.batch_time(sg, &workloads));
                if first_executed.is_none() {
                    first_executed = Some(kept.len() + idx);
                    t.replay = t.compute - before;
                }
                t.compute_calls += 1;
                std::hint::black_box(estimate_batch_memory(
                    &workloads,
                    param_bytes,
                    sg.num_nodes(),
                    data.spec.feature_dim,
                    sg.topology_bytes(),
                    s_stats.id_map.total_ids,
                    cache.bytes(),
                ));
                iterations += 1;
            }
            kept.extend(sampled.into_iter().map(|(sg, _)| sg));
        }
        let verify = map.verify.get();
        t.epoch = start.elapsed().saturating_sub(verify);
        t.sample = t.sample.saturating_sub(verify);
        t.id_map = map.busy.get();
        t.id_map_stats = map.stats.get();

        // Outside the timed epoch: validate, count the replayed accesses,
        // and compare with the untraced epoch.
        let mut errors = map.errors.into_inner();
        errors.extend(validate_all(&kept));
        if let Some(first) = first_executed {
            self.count_accesses(sim, &kept[first], &dims, &mut t);
        }
        match untraced {
            Output::Sim {
                epoch: e,
                iterations: it,
                edges_sampled,
                rows_loaded: loaded,
                rows_reused,
                rows_cached,
                ..
            } => {
                let counts = [
                    ("epoch", epoch, *e),
                    ("batches", iterations, *it),
                    ("edges", t.edges, *edges_sampled),
                    ("rows loaded", rows_loaded, *loaded),
                    ("rows reused", t.match_reused, *rows_reused),
                    ("rows cached", t.cache_hits, *rows_cached),
                ];
                for (what, replayed, untraced) in counts {
                    if replayed != untraced {
                        errors.push(format!(
                            "replay {what} {replayed} != untraced epoch {untraced}"
                        ));
                    }
                }
            }
            Output::Train { .. } => {
                errors.push("a simulated replay needs a simulated epoch".into())
            }
        }
        (t, errors)
    }

    /// Replays the first executed batch's access streams through the
    /// simulated caches, as `ComputeEngine::batch_time` does, to count
    /// accesses and hits.
    fn count_accesses(
        &self,
        sim: &Sim,
        sg: &SampledSubgraph,
        dims: &[(usize, usize)],
        t: &mut LayerTrace,
    ) {
        let system = &sim.config.system;
        let kernel = AggregationKernel::new(system.device.clone(), system.cost.clone())
            .with_capacity_scale(sim.data.spec.scale.clamp(1.0 / 4096.0, 1.0));
        for (block, w) in sg.blocks.iter().zip(census(sg, dims)) {
            let cost = kernel.naive_cost(&SubgraphLayerTrace {
                offsets: &block.src_offsets,
                sources: &block.src_locals,
                num_sources: w.num_src_rows,
                feature_dim: w.d_in.max(1),
            });
            t.accesses += cost.l1.accesses();
            t.l1_hits += cost.l1.hits;
            t.l2_accesses += cost.l2.accesses();
            t.l2_hits += cost.l2.hits;
        }
    }
}

/// Floating-point operations of a forward and a backward pass over
/// `workloads`: aggregation plus the update GEMM forward; the transposed
/// aggregation plus the two gradient GEMMs (weights and inputs) backward.
fn pass_flops(workloads: &[LayerWorkload]) -> (u64, u64) {
    workloads.iter().fold((0, 0), |(f, b), w| {
        (
            f + w.aggregate_flops() + w.update_flops(),
            b + w.aggregate_flops() + 2 * w.update_flops(),
        )
    })
}

/// Replays one `train-gcn` operation (one epoch from a fresh
/// initialisation, then the final-accuracy evaluation) and compares its
/// losses and accuracy with `untraced`, the untraced operation's output.
pub fn train_epoch(t_cfg: &Train, untraced: &Output) -> (LayerTrace, Vec<String>) {
    let (graph, config) = (&t_cfg.graph, &t_cfg.config);
    let feats = graph
        .features
        .as_slice()
        .expect("community features are materialized");
    let dim = graph.features.dim();
    let labels = &graph.labels;
    let mut t = LayerTrace::default();
    let fused = FusedIdMap::new();
    let map = TimedIdMap::new(&fused);
    let start = Instant::now();

    let num_classes = labels.iter().copied().max().unwrap_or(0) as usize + 1;
    let model_cfg = ModelConfig::paper(config.model, dim, num_classes)
        .with_layers(config.fanouts.len())
        .with_hidden(config.hidden_dim);
    let mut model = GnnModel::new(
        &model_cfg,
        &mut DeterministicRng::seed(config.seed ^ 0x1217),
    );
    let mut opt = Adam::new(config.learning_rate);
    let sampler = NeighborSampler::new(config.fanouts.clone());
    // The trainer's per-batch stream: seed, epoch 0, index in plan order.
    let batch_rng = |i: usize| {
        DeterministicRng::seed(config.seed ^ 0xABCD)
            .derive(0)
            .derive(i as u64)
    };
    let plan = MinibatchPlan::new(&t_cfg.train_nodes, config.batch_size, config.seed, 0);
    let batches: Vec<&[NodeId]> = plan.iter().collect();
    let win = config.window.max(1);
    let mut losses = Vec::with_capacity(batches.len());
    let mut kept: Vec<SampledSubgraph> = Vec::with_capacity(batches.len() + 1);
    let sample = |seeds: &[NodeId], i: usize, t: &mut LayerTrace| {
        let mut rng = batch_rng(i);
        let (sg, stats) = timed(&mut t.sample, || {
            sampler.sample(&graph.graph, seeds, &map, &mut rng)
        });
        t.sample_calls += 1;
        t.edges += stats.edges_sampled;
        sg
    };
    let gather = |sg: &SampledSubgraph, t: &mut LayerTrace| {
        t.gather_rows += sg.nodes.len() as u64;
        timed(&mut t.gather, || {
            let idx: Vec<usize> = sg.nodes.iter().map(|n| n.index()).collect();
            Matrix::gather_flat(feats, dim, labels.len(), &idx)
        })
    };
    let seed_labels = |sg: &SampledSubgraph| -> Vec<u32> {
        sg.seed_locals
            .iter()
            .map(|&l| labels[sg.nodes[l as usize].index()])
            .collect()
    };

    for (w, chunk) in batches.chunks(win).enumerate() {
        let subgraphs: Vec<SampledSubgraph> = chunk
            .iter()
            .enumerate()
            .map(|(i, seeds)| sample(seeds, w * win + i, &mut t))
            .collect();
        let order: Vec<usize> = timed(&mut t.reorder, || {
            if config.reorder && subgraphs.len() > 1 {
                let sets: Vec<&[NodeId]> =
                    subgraphs.iter().map(|s| s.sorted_global_ids()).collect();
                greedy_reorder(&match_degree_matrix(&sets))
            } else {
                (0..subgraphs.len()).collect()
            }
        });
        t.windows += 1;
        for &idx in &order {
            let sg = &subgraphs[idx];
            let x = gather(sg, &mut t);
            let batch_labels = seed_labels(sg);
            opt.next_iteration();
            let logits = timed(&mut t.forward, || model.forward(sg, &x));
            let out = softmax_cross_entropy(&logits, &batch_labels);
            timed(&mut t.backward, || model.backward(sg, &out.grad));
            timed(&mut t.optim, || model.apply_grads(&mut opt));
            losses.push(out.loss);
        }
        kept.extend(subgraphs);
    }
    // The final training accuracy: the last planned batch, re-sampled.
    let last = batches.len() - 1;
    let sg = sample(batches[last], last, &mut t);
    let x = gather(&sg, &mut t);
    let batch_labels = seed_labels(&sg);
    let accuracy = timed(&mut t.forward, || model.evaluate(&sg, &x, &batch_labels).1);
    kept.push(sg);

    let verify = map.verify.get();
    t.epoch = start.elapsed().saturating_sub(verify);
    t.sample = t.sample.saturating_sub(verify);
    t.id_map = map.busy.get();
    t.id_map_stats = map.stats.get();

    // Outside the timed epoch: validate, count, compare.
    let mut errors = map.errors.into_inner();
    errors.extend(validate_all(&kept));
    let dims = model_cfg.layer_dims();
    let (train_batches, eval_batch) = kept.split_at(kept.len() - 1);
    for sg in train_batches {
        let (f, b) = pass_flops(&census(sg, &dims));
        t.forward_flops += f;
        t.backward_flops += b;
    }
    t.forward_flops += pass_flops(&census(&eval_batch[0], &dims)).0;
    let replayed = Output::Train {
        losses: losses.iter().map(|l| l.to_bits()).collect(),
        accuracy: accuracy.to_bits(),
    };
    if &replayed != untraced {
        errors.push(format!(
            "replayed training ({} losses) differs from the untraced operation ({} losses)",
            replayed.batches(),
            untraced.batches()
        ));
    }
    (t, errors)
}
