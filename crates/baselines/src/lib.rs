//! Baseline training systems, re-implemented as pipeline policies on the
//! FastGL substrate.
//!
//! The paper compares FastGL against PyG, DGL, GNNLab, GNNAdvisor, and
//! PaGraph (Table 5). Every system here is the shared
//! [`fastgl_core::Pipeline`]; [`SystemKind::configure`] sets each one's
//! published design choices, once, in one table:
//!
//! | System | Sample device | Sample opt. | Memory IO opt. | Compute opt. |
//! |---|---|---|---|---|
//! | PyG | CPU | none | prefetch | none |
//! | DGL | GPU | none | prefetch | none |
//! | GNNLab | GPU (dedicated) | parallel/overlap | static cache | none |
//! | GNNAdvisor | GPU (DGL sampler) | none | none | 2D workload mgmt |
//! | PaGraph | GPU (DGL sampler) | none | static cache | none |
//! | FastGL | GPU | Fused-Map | Match-Reorder (+cache) | Memory-Aware |
//!
//! Because all systems share the sampler, the graphs, and the simulated
//! GPU, measured differences are attributable to the pipeline policies —
//! the same property the paper gets from running on identical hardware.

#![warn(missing_docs)]

use fastgl_core::{
    CacheRankPolicy, ComputeMode, FastGlConfig, IdMapKind, Pipeline, PipelinePolicy, SampleDevice,
};

/// All systems the benchmarks compare, in the paper's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// PyTorch Geometric: CPU sampling, prefetch IO, naive computation.
    ///
    /// PyG samples on the CPU through Python-level data loaders; the paper
    /// measures it spending up to 97 % of training time in the sample
    /// phase (§1).
    Pyg,
    /// Deep Graph Library: GPU sampling with the synchronization-heavy ID
    /// map, prefetch IO, naive computation.
    ///
    /// DGL moves sampling to the GPU (a large win over PyG) but its ID map
    /// still assigns local IDs through synchronized atomics (§3.3), its
    /// memory IO transfers every sampled node's features each iteration,
    /// and its aggregation kernels access memory naively. DGL is the
    /// baseline of the paper's breakdown figures ('Naive') and ablations.
    Dgl,
    /// GNNAdvisor grafted onto DGL's sampler: 2D workload-managed
    /// computation behind a per-iteration preprocessing pass.
    ///
    /// GNNAdvisor (OSDI'21) is a full-graph system that preprocesses the
    /// graph once; under sampling-based training the preprocessing re-runs
    /// for *every sampled subgraph*, so it lands on the critical path of
    /// each iteration (up to 75 % of the computation phase, Fig. 11).
    GnnAdvisor,
    /// GNNLab: dedicated sampling GPUs and a pre-sampling-based static
    /// feature cache.
    ///
    /// GNNLab (EuroSys'22) splits the GPUs into samplers and trainers,
    /// overlapping the two roles — one GPU samples on machines with up to
    /// 4 GPUs, two on larger ones — and fills leftover trainer memory with
    /// a hotness-ordered cache. It needs at least 2 GPUs (§6.4), and its
    /// cache loses effectiveness exactly when large subgraphs leave no
    /// spare memory — the regime FastGL targets.
    GnnLab,
    /// PaGraph: computation-aware static feature caching.
    ///
    /// PaGraph (SoCC'20) treats spare GPU memory as a software-managed
    /// cache of high-out-degree nodes. It samples like DGL and computes
    /// naively; its benefit collapses on large graphs where sampled
    /// subgraphs leave little memory for the cache (hit rate below 20 %
    /// on MAG, §3.1).
    PaGraph,
    /// FastGL (this paper): the pipeline exactly as its configuration's
    /// ablation flags (`enable_match`, `enable_reorder`, `cache_ratio`, …)
    /// describe it — see [`Pipeline::fastgl`].
    FastGl,
}

impl SystemKind {
    /// The systems Fig. 9 plots (PyG is reported as a factor in the text).
    pub const FIGURE9: [SystemKind; 4] = [
        SystemKind::Dgl,
        SystemKind::GnnAdvisor,
        SystemKind::GnnLab,
        SystemKind::FastGl,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SystemKind::Pyg => "PyG",
            SystemKind::Dgl => "DGL",
            SystemKind::GnnAdvisor => "GNNAdvisor",
            SystemKind::GnnLab => "GNNLab",
            SystemKind::PaGraph => "PaGraph",
            SystemKind::FastGl => "FastGL",
        }
    }

    /// Checks that the system can run on `config`'s machine.
    ///
    /// # Errors
    ///
    /// GNNLab needs at least 2 GPUs: one samples, the others train.
    pub fn check(self, config: &FastGlConfig) -> Result<(), String> {
        let gpus = config.system.num_gpus;
        if self == SystemKind::GnnLab && gpus < 2 {
            return Err(format!(
                "GNNLab needs at least 2 GPUs (one sampler, one trainer), got {gpus}"
            ));
        }
        Ok(())
    }

    /// Applies the system's design choices to a base configuration (model,
    /// batch size, fanouts and GPU count come from `config`) and returns
    /// the configuration and policy its pipeline runs with.
    ///
    /// # Panics
    ///
    /// Panics if [`SystemKind::check`] rejects `config`.
    pub fn configure(self, mut config: FastGlConfig) -> (FastGlConfig, PipelinePolicy) {
        if let Err(e) = self.check(&config) {
            panic!("{e}");
        }
        // Sample device, compute mode and cache ratio (`None` auto-sizes
        // the cache to leftover device memory); every baseline uses the
        // baseline ID map and neither Match nor Reorder.
        let (sample_device, compute_mode, cache_ratio) = match self {
            SystemKind::Pyg => (SampleDevice::Cpu, ComputeMode::Naive, Some(0.0)),
            SystemKind::Dgl => (SampleDevice::Gpu, ComputeMode::Naive, Some(0.0)),
            SystemKind::GnnAdvisor => (SampleDevice::Gpu, ComputeMode::Advisor, Some(0.0)),
            SystemKind::GnnLab => (SampleDevice::Gpu, ComputeMode::Naive, None),
            SystemKind::PaGraph => (SampleDevice::Gpu, ComputeMode::Naive, None),
            SystemKind::FastGl => {
                let policy = PipelinePolicy::from_config(&config);
                return (config, policy);
            }
        };
        config.sample_device = sample_device;
        config.compute_mode = compute_mode;
        config.cache_ratio = cache_ratio;
        config.id_map = IdMapKind::Baseline;
        config.enable_match = false;
        config.enable_reorder = false;
        let mut policy = PipelinePolicy::from_config(&config);
        if self == SystemKind::GnnLab {
            policy.sampler_gpus = if config.system.num_gpus <= 4 { 1 } else { 2 };
            policy.overlap_sample = true;
            policy.cache_rank = CacheRankPolicy::PreSampledHotness;
        }
        (config, policy)
    }

    /// Builds the system's pipeline over a base configuration (see
    /// [`SystemKind::configure`]).
    ///
    /// # Panics
    ///
    /// Panics if [`SystemKind::check`] rejects `config` or the configured
    /// pipeline is invalid (see [`Pipeline::new`]).
    pub fn build(self, config: FastGlConfig) -> Pipeline {
        let (config, policy) = self.configure(config);
        Pipeline::new(self.name(), config, policy)
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastgl_core::{CachePolicy, TrainingSystem};
    use fastgl_graph::Dataset;

    const ALL: [SystemKind; 6] = [
        SystemKind::Pyg,
        SystemKind::Dgl,
        SystemKind::GnnAdvisor,
        SystemKind::GnnLab,
        SystemKind::PaGraph,
        SystemKind::FastGl,
    ];

    fn cfg() -> FastGlConfig {
        FastGlConfig::default()
            .with_batch_size(128)
            .with_fanouts(vec![5, 10])
    }

    #[test]
    fn knob_table_is_pinned() {
        use CacheRankPolicy::{Degree, PreSampledHotness};
        use ComputeMode::{Advisor, Naive};
        use SampleDevice::{Cpu, Gpu};
        // Two bases that differ in every knob a system sets, so a row that
        // forgets a knob, or sets the wrong value, fails on one of them.
        let mut flipped = FastGlConfig::default().with_cache_ratio(0.25);
        flipped.sample_device = Cpu;
        flipped.id_map = IdMapKind::Baseline;
        flipped.compute_mode = Advisor;
        flipped.enable_match = false;
        flipped.enable_reorder = false;
        for base in [FastGlConfig::default(), flipped] {
            for gpus in [2, 8] {
                let base = base.clone().with_gpus(gpus);
                let baseline = |sample_device, compute_mode, cache_ratio| FastGlConfig {
                    sample_device,
                    id_map: IdMapKind::Baseline,
                    compute_mode,
                    enable_match: false,
                    enable_reorder: false,
                    cache_ratio,
                    ..base.clone()
                };
                let policy = |cache, sampler_gpus, overlap_sample, cache_rank| PipelinePolicy {
                    use_match: false,
                    use_reorder: false,
                    cache,
                    sampler_gpus,
                    overlap_sample,
                    cache_rank,
                };
                let no_cache = CachePolicy::Ratio(0.0);
                let lab_samplers = if gpus <= 4 { 1 } else { 2 };
                let fastgl_policy = PipelinePolicy {
                    sampler_gpus: 0,
                    overlap_sample: false,
                    cache_rank: Degree,
                    ..PipelinePolicy::from_config(&base)
                };
                let table = [
                    (
                        SystemKind::Pyg,
                        "PyG",
                        baseline(Cpu, Naive, Some(0.0)),
                        policy(no_cache, 0, false, Degree),
                    ),
                    (
                        SystemKind::Dgl,
                        "DGL",
                        baseline(Gpu, Naive, Some(0.0)),
                        policy(no_cache, 0, false, Degree),
                    ),
                    (
                        SystemKind::GnnAdvisor,
                        "GNNAdvisor",
                        baseline(Gpu, Advisor, Some(0.0)),
                        policy(no_cache, 0, false, Degree),
                    ),
                    (
                        SystemKind::GnnLab,
                        "GNNLab",
                        baseline(Gpu, Naive, None),
                        policy(CachePolicy::Auto, lab_samplers, true, PreSampledHotness),
                    ),
                    (
                        SystemKind::PaGraph,
                        "PaGraph",
                        baseline(Gpu, Naive, None),
                        policy(CachePolicy::Auto, 0, false, Degree),
                    ),
                    (SystemKind::FastGl, "FastGL", base.clone(), fastgl_policy),
                ];
                for (kind, name, config, policy) in table {
                    assert_eq!(kind.name(), name);
                    assert_eq!(
                        kind.configure(base.clone()),
                        (config.clone(), policy),
                        "{kind} on {gpus} GPUs"
                    );
                    let built = kind.build(base.clone());
                    assert_eq!(built.name(), name);
                    assert_eq!((built.config(), built.policy()), (&config, &policy));
                }
                let fastgl = Pipeline::fastgl(base.clone());
                assert_eq!(
                    (fastgl.name(), fastgl.config(), fastgl.policy()),
                    ("FastGL", &base, &fastgl_policy)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 GPUs")]
    fn gnnlab_rejects_single_gpu() {
        let _ = SystemKind::GnnLab.configure(cfg().with_gpus(1));
    }

    #[test]
    fn only_gnnlab_needs_two_gpus() {
        for kind in ALL {
            let one = kind.check(&cfg().with_gpus(1));
            assert_eq!(one.is_err(), kind == SystemKind::GnnLab, "{kind}");
            assert_eq!(kind.check(&cfg()), Ok(()), "{kind}");
        }
    }

    #[test]
    fn every_system_runs_an_epoch() {
        let data = Dataset::Products.generate_scaled(1.0 / 2048.0, 5);
        let cfg = FastGlConfig::default()
            .with_batch_size(32)
            .with_fanouts(vec![3, 5]);
        for kind in ALL {
            let mut sys = kind.build(cfg.clone());
            let stats = sys.run_epoch(&data, 0);
            assert!(stats.iterations > 0, "{kind} ran no iterations");
            assert!(
                stats.total().as_nanos() > 0,
                "{kind} reported zero epoch time"
            );
        }
    }

    #[test]
    fn fastgl_is_fastest_dgl_beats_pyg() {
        let data = Dataset::Products.generate_scaled(1.0 / 512.0, 6);
        let cfg = FastGlConfig::default()
            .with_batch_size(256)
            .with_fanouts(vec![5, 10]);
        let time = |kind: SystemKind| {
            kind.build(cfg.clone())
                .run_epoch(&data, 0)
                .total()
                .as_secs_f64()
        };
        let pyg = time(SystemKind::Pyg);
        let dgl = time(SystemKind::Dgl);
        let fastgl = time(SystemKind::FastGl);
        assert!(pyg > dgl, "PyG {pyg} must be slower than DGL {dgl}");
        assert!(
            dgl > fastgl,
            "DGL {dgl} must be slower than FastGL {fastgl}"
        );
        // Paper: FastGL averages 2.2x over DGL and 11.8x over PyG.
        assert!(pyg / fastgl > 3.0, "PyG/FastGL = {}", pyg / fastgl);
    }

    #[test]
    fn sampling_dominates_pyg_epochs() {
        // Paper §1: PyG spends up to 97% of training time sampling on CPU.
        let data = Dataset::Products.generate_scaled(1.0 / 512.0, 1);
        let cfg = FastGlConfig::default()
            .with_batch_size(256)
            .with_fanouts(vec![5, 10]);
        let s = SystemKind::Pyg.build(cfg).run_epoch(&data, 0);
        let (sample_frac, _, _) = s.breakdown.fractions();
        assert!(
            sample_frac > 0.5,
            "PyG sample fraction only {sample_frac:.2}"
        );
    }

    #[test]
    fn pyg_has_no_reuse_no_cache() {
        let data = Dataset::Reddit.generate_scaled(1.0 / 1024.0, 2);
        let cfg = FastGlConfig::default()
            .with_batch_size(64)
            .with_fanouts(vec![3, 3]);
        let s = SystemKind::Pyg.build(cfg).run_epoch(&data, 0);
        assert_eq!(s.rows_reused, 0);
        assert_eq!(s.rows_cached, 0);
        assert!(s.rows_loaded > 0);
    }

    #[test]
    fn memory_io_dominates_dgl_epochs() {
        // Paper §3.1: memory IO consumes up to 77% of a DGL epoch.
        let data = Dataset::Products.generate_scaled(1.0 / 512.0, 3);
        let cfg = FastGlConfig::default()
            .with_batch_size(256)
            .with_fanouts(vec![5, 10, 15]);
        let s = SystemKind::Dgl.build(cfg).run_epoch(&data, 0);
        let (_, io_frac, _) = s.breakdown.fractions();
        assert!(io_frac > 0.35, "DGL IO fraction only {io_frac:.2}");
    }

    #[test]
    fn dgl_much_faster_than_pyg_sampling() {
        // Needs enough per-batch work that fixed per-batch overheads do not
        // mask the device difference.
        let data = Dataset::Products.generate_scaled(1.0 / 256.0, 4);
        let cfg = FastGlConfig::default()
            .with_batch_size(512)
            .with_fanouts(vec![5, 10, 15]);
        let s_dgl = SystemKind::Dgl.build(cfg.clone()).run_epoch(&data, 0);
        let s_pyg = SystemKind::Pyg.build(cfg).run_epoch(&data, 0);
        let ratio = s_pyg.breakdown.sample.as_secs_f64() / s_dgl.breakdown.sample.as_secs_f64();
        // Paper Fig. 13: FastGL samples up to 80x faster than PyG; DGL's
        // GPU sampler gets most of that win.
        assert!(ratio > 5.0, "PyG/DGL sample ratio {ratio}");
    }

    #[test]
    fn advisor_preprocessing_slows_compute_below_dgl() {
        // Paper Fig. 11: GNNAdvisor's per-iteration preprocessing makes its
        // computation phase *slower* than DGL's in the sampling scenario.
        let data = Dataset::Products.generate_scaled(1.0 / 512.0, 10);
        let s_adv = SystemKind::GnnAdvisor.build(cfg()).run_epoch(&data, 0);
        let s_dgl = SystemKind::Dgl.build(cfg()).run_epoch(&data, 0);
        assert!(
            s_adv.breakdown.compute > s_dgl.breakdown.compute,
            "advisor {} must exceed dgl {}",
            s_adv.breakdown.compute,
            s_dgl.breakdown.compute
        );
    }

    #[test]
    fn advisor_has_no_cache_no_reuse() {
        let data = Dataset::Reddit.generate_scaled(1.0 / 1024.0, 11);
        let s = SystemKind::GnnAdvisor.build(cfg()).run_epoch(&data, 0);
        assert_eq!(s.rows_cached, 0);
        assert_eq!(s.rows_reused, 0);
    }

    #[test]
    fn gnnlab_cache_reduces_io_versus_dgl() {
        let data = Dataset::Reddit.generate_scaled(1.0 / 256.0, 7);
        let s_lab = SystemKind::GnnLab.build(cfg()).run_epoch(&data, 0);
        let s_dgl = SystemKind::Dgl.build(cfg()).run_epoch(&data, 0);
        assert!(s_lab.rows_cached > 0, "GNNLab cached nothing");
        assert!(
            s_lab.breakdown.io < s_dgl.breakdown.io,
            "cache must cut IO: {} vs {}",
            s_lab.breakdown.io,
            s_dgl.breakdown.io
        );
    }

    #[test]
    fn gnnlab_overlap_hides_part_of_the_sampling() {
        // GNNLab's dedicated sampler GPU overlaps sampling with training;
        // its visible sample time must be below the same pipeline run
        // without overlap (paper Fig. 14d: hiding works until the sampled
        // subgraph outgrows the training time).
        let data = Dataset::Reddit.generate_scaled(1.0 / 256.0, 8);
        let heavy = cfg().with_batch_size(256);
        let mut lab = SystemKind::GnnLab.build(heavy.clone());
        let (config, mut policy) = SystemKind::GnnLab.configure(heavy);
        policy.overlap_sample = false;
        let mut unhidden = Pipeline::new("GNNLab-nooverlap", config, policy);
        let s_lab = lab.run_epoch(&data, 0);
        let s_plain = unhidden.run_epoch(&data, 0);
        assert!(
            s_lab.breakdown.sample < s_plain.breakdown.sample,
            "overlap must hide sampling: {} vs {}",
            s_lab.breakdown.sample,
            s_plain.breakdown.sample
        );
        assert!(s_lab.total() < s_plain.total());
    }

    #[test]
    fn gnnlab_explicit_ratio_controls_cache() {
        // The Fig. 10a sweep: GNNLab's knobs with an explicit cache ratio.
        let data = Dataset::Products.generate_scaled(1.0 / 1024.0, 9);
        let run = |ratio| {
            let (config, mut policy) = SystemKind::GnnLab.configure(cfg());
            policy.cache = CachePolicy::Ratio(ratio);
            Pipeline::new("GNNLab", config, policy).run_epoch(&data, 0)
        };
        let s0 = run(0.0);
        let s5 = run(0.5);
        assert_eq!(s0.rows_cached, 0);
        assert!(s5.rows_cached > 0);
        assert!(s5.breakdown.io < s0.breakdown.io);
    }

    #[test]
    fn pagraph_cache_cuts_io_below_dgl() {
        let data = Dataset::Reddit.generate_scaled(1.0 / 256.0, 12);
        let s_pg = SystemKind::PaGraph.build(cfg()).run_epoch(&data, 0);
        let s_dgl = SystemKind::Dgl.build(cfg()).run_epoch(&data, 0);
        assert!(s_pg.rows_cached > 0);
        assert!(s_pg.breakdown.io < s_dgl.breakdown.io);
    }

    #[test]
    fn pagraph_sampling_not_overlapped() {
        let data = Dataset::Products.generate_scaled(1.0 / 1024.0, 13);
        let cfg = FastGlConfig::default()
            .with_batch_size(64)
            .with_fanouts(vec![3, 5]);
        let s = SystemKind::PaGraph.build(cfg).run_epoch(&data, 0);
        assert!(s.breakdown.sample.as_nanos() > 0);
    }
}
