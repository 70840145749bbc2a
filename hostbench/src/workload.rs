//! The three workloads: set-up, one timed operation, and the reference
//! each operation's output is checked against.

use crate::output::Output;
use crate::stats::Stopwatch;
use fastgl_bench::experiments::base_config;
use fastgl_bench::scale::BenchScale;
use fastgl_core::trainer::{train, TrainerConfig};
use fastgl_core::{
    CachePolicy, CacheRankPolicy, ComputeMode, FastGlConfig, IdMapKind, Pipeline, PipelinePolicy,
    SampleDevice, TrainingSystem,
};
use fastgl_graph::generate::community::{self, CommunityConfig, CommunityGraph};
use fastgl_graph::{Dataset, DatasetBundle, NodeId};
use std::fmt;

/// Simulated operations cycle through this many epoch indices, so each
/// checked epoch has a reference and the reference stays small.
pub const EPOCH_CYCLE: u64 = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// FastGL on the Products stand-in: the paper's headline system, and
    /// the only workload running Match-Reorder and the feature cache.
    ProductsFastgl,
    /// DGL on the IGB-large stand-in: skips Match-Reorder and the cache,
    /// runs the baseline ID map and the naive (cache-replayed) kernels.
    IgbDgl,
    /// Real numeric GCN training: the only workload running the GNN
    /// forward/backward passes and the tensor numerics.
    TrainGcn,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ProductsFastgl,
        Workload::IgbDgl,
        Workload::TrainGcn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProductsFastgl => "products-fastgl",
            Workload::IgbDgl => "igb-dgl",
            Workload::TrainGcn => "train-gcn",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The execution knobs the benchmark pins, so the caller's environment
/// (`FASTGL_THREADS`, `FASTGL_PREFETCH`, `FASTGL_TELEMETRY`) cannot change
/// what is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Worker threads of the execution backend.
    pub threads: usize,
}

impl Knobs {
    /// Prefetch depth: the serial executor. The pipelined one needs three
    /// threads, more than a two-core host has (see README.md).
    pub const PREFETCH_WINDOWS: usize = 0;
    /// Telemetry stays off: its spans would be measured with the program.
    pub const TELEMETRY: bool = false;

    /// Applies the knobs process-wide (the trainer takes no config).
    pub fn apply(self) {
        fastgl_tensor::parallel::set_num_threads(self.threads);
        fastgl_telemetry::set_enabled(Self::TELEMETRY);
    }

    /// `config` with every knob set explicitly.
    pub fn configure(self, config: FastGlConfig) -> FastGlConfig {
        config
            .with_threads(self.threads)
            .with_prefetch_windows(Self::PREFETCH_WINDOWS)
            .with_telemetry(Self::TELEMETRY)
    }
}

/// A simulated workload: a training system over a stand-in graph.
#[derive(Debug)]
pub struct Sim {
    /// System name (`FastGL` or `DGL`).
    pub name: &'static str,
    /// The system's configuration, knobs included.
    pub config: FastGlConfig,
    /// The system's pipeline policy.
    pub policy: PipelinePolicy,
    /// The stand-in graph.
    pub data: DatasetBundle,
    /// The system under test.
    pub system: Pipeline,
}

/// The real-training workload.
#[derive(Debug)]
pub struct Train {
    /// The labelled community graph.
    pub graph: CommunityGraph,
    /// Training nodes (the first two thirds of the graph).
    pub train_nodes: Vec<NodeId>,
    /// One epoch of training from a fresh initialisation.
    pub config: TrainerConfig,
}

impl Train {
    /// One training epoch from a fresh initialisation.
    fn run(&self) -> Output {
        let g = &self.graph;
        Output::train(&train(
            &g.graph,
            &g.features,
            &g.labels,
            &self.train_nodes,
            &self.config,
        ))
    }
}

/// A workload after set-up, ready to run operations.
#[derive(Debug)]
pub enum Prepared {
    /// A simulated training system.
    Sim(Box<Sim>),
    /// Real numeric training.
    Train(Box<Train>),
}

/// Seconds spent in one set-up, net of steal time (see
/// [`Stopwatch`](crate::stats::Stopwatch)).
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Generating the input graph.
    pub generate: f64,
    /// Generating the graph, building the system and running the warm-up
    /// operation.
    pub total: f64,
}

/// The scaled stand-in of `dataset`, generated afresh.
///
/// This is `BenchScale::bundle` without its process-wide memo, so every
/// set-up pays for generation.
pub fn generate_bundle(scale: &BenchScale, dataset: Dataset) -> DatasetBundle {
    let mut spec = dataset.spec().scaled(scale.factor(dataset));
    spec.train_fraction =
        ((scale.target_batches * scale.batch_size) as f64 / spec.num_nodes as f64).min(0.66);
    spec.generate(scale.seed)
}

/// The configuration and policy of the simulated `workload` (the base
/// experiment config of `fig09_overall`, plus the knobs).
///
/// # Panics
///
/// Panics for [`Workload::TrainGcn`], which simulates nothing.
pub fn sim_setup(
    workload: Workload,
    scale: &BenchScale,
    knobs: Knobs,
) -> (&'static str, Dataset, FastGlConfig, PipelinePolicy) {
    let config = knobs.configure(base_config(scale));
    match workload {
        Workload::ProductsFastgl => {
            let policy = PipelinePolicy::from_config(&config);
            ("FastGL", Dataset::Products, config, policy)
        }
        Workload::IgbDgl => {
            // The knobs `fastgl_baselines::DglSystem::new` sets.
            let mut config = config;
            config.sample_device = SampleDevice::Gpu;
            config.id_map = IdMapKind::Baseline;
            config.compute_mode = ComputeMode::Naive;
            config.enable_match = false;
            config.enable_reorder = false;
            config.cache_ratio = Some(0.0);
            let policy = PipelinePolicy {
                use_match: false,
                use_reorder: false,
                cache: CachePolicy::None,
                sampler_gpus: 0,
                overlap_sample: false,
                cache_rank: CacheRankPolicy::Degree,
            };
            ("DGL", Dataset::IgbLarge, config, policy)
        }
        Workload::TrainGcn => panic!("train-gcn is not a simulated workload"),
    }
}

/// The labelled graph of `train-gcn`.
pub fn community_graph(seed: u64) -> CommunityGraph {
    community::generate(
        &CommunityConfig {
            num_nodes: 20_000,
            num_classes: 16,
            intra_degree: 14.0,
            inter_degree: 2.0,
            feature_dim: 128,
            feature_noise: 1.0,
        },
        seed,
    )
}

/// The trainer configuration of `train-gcn`: GCN, fanouts `[5, 10]`,
/// batch 256, hidden 64, Reorder over windows of 4, one epoch.
pub fn trainer_config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        epochs: 1,
        reorder: true,
        window: 4,
        seed,
        ..TrainerConfig::default()
    }
}

impl Prepared {
    /// Sets `workload` up for `seed`: generates its input, builds the
    /// system, and runs the warm-up operation (operation 0, which also
    /// pays FastGL's lazy auto-cache probe). Returns the warm-up output.
    pub fn setup(workload: Workload, seed: u64, knobs: Knobs) -> (Self, Output, SetupTimes) {
        knobs.apply();
        let watch = Stopwatch::start();
        let (mut prepared, generate) = match workload {
            Workload::TrainGcn => {
                let graph = community_graph(seed);
                let generate = watch.elapsed().1;
                let train_nodes = (0..graph.graph.num_nodes() * 2 / 3).map(NodeId).collect();
                let prepared = Prepared::Train(Box::new(Train {
                    graph,
                    train_nodes,
                    config: trainer_config(seed),
                }));
                (prepared, generate)
            }
            _ => {
                let scale = BenchScale {
                    seed,
                    ..BenchScale::default_profile()
                };
                let (name, dataset, config, policy) = sim_setup(workload, &scale, knobs);
                let data = generate_bundle(&scale, dataset);
                let generate = watch.elapsed().1;
                let system = Pipeline::new(name, config.clone(), policy);
                let prepared = Prepared::Sim(Box::new(Sim {
                    name,
                    config,
                    policy,
                    data,
                    system,
                }));
                (prepared, generate)
            }
        };
        let warm = prepared.run_op(0);
        let times = SetupTimes {
            generate,
            total: watch.elapsed().1,
        };
        (prepared, warm, times)
    }

    /// Runs operation `op`: simulated epoch `op % EPOCH_CYCLE`, or one
    /// training epoch from a fresh initialisation.
    pub fn run_op(&mut self, op: u64) -> Output {
        match self {
            Prepared::Sim(sim) => {
                let epoch = op % EPOCH_CYCLE;
                Output::sim(epoch, &sim.system.run_epoch(&sim.data, epoch))
            }
            Prepared::Train(t) => t.run(),
        }
    }

    /// The reference outputs of one operation cycle, computed on a fresh
    /// system at `threads` worker threads. Leaves that thread count
    /// installed process-wide.
    pub fn reference(&self, threads: usize) -> Vec<Output> {
        let knobs = Knobs { threads };
        knobs.apply();
        match self {
            Prepared::Sim(sim) => {
                let config = knobs.configure(sim.config.clone());
                let mut fresh = Pipeline::new(sim.name, config, sim.policy);
                (0..EPOCH_CYCLE)
                    .map(|e| Output::sim(e, &fresh.run_epoch(&sim.data, e)))
                    .collect()
            }
            Prepared::Train(t) => vec![t.run()],
        }
    }
}

/// Number of `outputs` that differ from `reference`, where `outputs[i]`
/// is operation `first_op + i` and `reference` holds one operation cycle.
pub fn count_mismatches(outputs: &[Output], first_op: u64, reference: &[Output]) -> u64 {
    let cycle = reference.len() as u64;
    outputs
        .iter()
        .zip(first_op..)
        .filter(|(out, op)| reference.get((op % cycle.max(1)) as usize) != Some(out))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn mismatches_cycle_through_the_reference() {
        let a = Output::Train {
            losses: vec![1],
            accuracy: 0,
        };
        let b = Output::Train {
            losses: vec![2],
            accuracy: 0,
        };
        let reference = [a.clone(), b.clone()];
        assert_eq!(
            count_mismatches(&[a.clone(), b.clone(), a.clone()], 0, &reference),
            0
        );
        assert_eq!(count_mismatches(&[b.clone(), a.clone()], 1, &reference), 0);
        assert_eq!(count_mismatches(&[a.clone(), a, b], 0, &reference), 2);
        assert_eq!(count_mismatches(&[], 0, &[]), 0);
    }
}
