//! Integration tests of the library extensions beyond the paper's core:
//! the SAGE model, the layer-wise sampler, and the hotness cache policy.

use fastgl::baselines::SystemKind;
use fastgl::core::hotness::{rank_nodes, CacheRankPolicy, HotnessCounter};
use fastgl::core::sampler::SamplerEngine;
use fastgl::core::{FastGlConfig, Pipeline, TrainingSystem};
use fastgl::gnn::ModelKind;
use fastgl::graph::{Dataset, DeterministicRng};

fn config() -> FastGlConfig {
    FastGlConfig::default()
        .with_batch_size(64)
        .with_fanouts(vec![3, 5])
}

#[test]
fn sage_runs_through_every_system() {
    let data = Dataset::Products.generate_scaled(1.0 / 2048.0, 41);
    for kind in [SystemKind::Dgl, SystemKind::FastGl] {
        let mut sys = kind.build(config().with_model(ModelKind::Sage));
        let s = sys.run_epoch(&data, 0);
        assert!(s.iterations > 0, "{kind}");
        assert!(s.breakdown.compute.as_nanos() > 0, "{kind}");
    }
}

#[test]
fn sage_update_costs_more_than_gcn() {
    // SAGE's self + neighbour GEMMs double the update work.
    let data = Dataset::Products.generate_scaled(1.0 / 1024.0, 43);
    let time = |model: ModelKind| {
        Pipeline::fastgl(config().with_model(model))
            .run_epoch(&data, 0)
            .breakdown
            .compute
    };
    assert!(time(ModelKind::Sage) > time(ModelKind::Gcn));
}

#[test]
fn layer_wise_pipeline_tames_neighbour_explosion() {
    let data = Dataset::Mag.generate_scaled(1.0 / 1024.0, 45);
    let mut fanout = Pipeline::fastgl(config());
    let mut ladies = Pipeline::fastgl(config().with_layer_wise());
    let s_fanout = fanout.run_epoch(&data, 0);
    let s_ladies = ladies.run_epoch(&data, 0);
    assert!(s_ladies.iterations > 0);
    // Layer budgets bound the *node* frontier (LADIES keeps all edges into
    // the drawn layer, so edge counts can exceed fanout sampling's): the
    // total feature rows each pipeline needs per epoch is the comparison.
    let rows = |s: &fastgl::core::EpochStats| s.rows_loaded + s.rows_reused + s.rows_cached;
    assert!(
        rows(&s_ladies) < rows(&s_fanout),
        "layer-wise {} rows vs fanout {} rows",
        rows(&s_ladies),
        rows(&s_fanout)
    );
}

#[test]
fn layer_wise_works_with_match_reorder_end_to_end() {
    let data = Dataset::Products.generate_scaled(1.0 / 512.0, 47);
    let base = config().with_layer_wise().with_cache_ratio(0.0);
    let mut without = {
        let mut c = base.clone();
        c.enable_match = false;
        c.enable_reorder = false;
        Pipeline::fastgl(c)
    };
    let mut with_mr = Pipeline::fastgl(base);
    let s_plain = without.run_epochs(&data, 2);
    let s_mr = with_mr.run_epochs(&data, 2);
    assert!(
        s_mr.breakdown.io < s_plain.breakdown.io,
        "Match-Reorder must help layer-wise sampling too: {} vs {}",
        s_mr.breakdown.io,
        s_plain.breakdown.io
    );
    assert!(s_mr.rows_reused > 0);
}

#[test]
fn hotness_ranking_beats_degree_when_seeds_are_skewed() {
    // Build hotness from probe batches drawn from a narrow seed band; a
    // cache ranked by that hotness must hit more than a degree cache for
    // traffic from the same band.
    let data = Dataset::Products.generate_scaled(1.0 / 1024.0, 49);
    let cfg = config();
    let engine = SamplerEngine::new(&cfg);
    let band: Vec<_> = data.train_nodes().iter().take(48).copied().collect();
    let mut counter = HotnessCounter::new(data.graph.num_nodes());
    let mut rng = DeterministicRng::seed(3);
    for _ in 0..3 {
        let (sg, _) = engine.sample_batch(&data.graph, &band, &mut rng);
        counter.record(&sg);
    }
    let hot_rank = rank_nodes(
        CacheRankPolicy::PreSampledHotness,
        &data.graph,
        Some(&counter),
    );
    let deg_rank = rank_nodes(CacheRankPolicy::Degree, &data.graph, None);

    let cache_rows = data.graph.num_nodes() / 10;
    let hot_cache = fastgl::core::FeatureCache::from_ranking(&hot_rank, cache_rows, 4);
    let deg_cache = fastgl::core::FeatureCache::from_ranking(&deg_rank, cache_rows, 4);

    // Fresh traffic from the same band.
    let (sg, _) = engine.sample_batch(&data.graph, &band, &mut rng);
    let load = sg.sorted_global_ids();
    let (hot_hits, _) = hot_cache.partition(load);
    let (deg_hits, _) = deg_cache.partition(load);
    assert!(
        hot_hits > deg_hits,
        "hotness cache {hot_hits} hits vs degree cache {deg_hits}"
    );
}

#[test]
fn gnnlab_uses_presampled_hotness_and_still_beats_dgl_io() {
    let data = Dataset::Reddit.generate_scaled(1.0 / 512.0, 51);
    let mut lab = SystemKind::GnnLab.build(config());
    let mut dgl = SystemKind::Dgl.build(config());
    let s_lab = lab.run_epoch(&data, 0);
    let s_dgl = dgl.run_epoch(&data, 0);
    assert!(s_lab.rows_cached > 0);
    assert!(s_lab.breakdown.io <= s_dgl.breakdown.io);
}
