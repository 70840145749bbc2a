//! Device-memory estimation (paper Tables 1 and 9).
//!
//! Models how much of the GPU's 24 GB each system's working set consumes:
//! model parameters (plus Adam state), activations and gradients of the
//! current mini-batch, the feature staging buffer, subgraph topology, the
//! ID-map hash table, the static feature cache, and a fixed runtime
//! (CUDA context + framework) reservation.

use fastgl_gnn::LayerWorkload;

/// Fixed bytes reserved by the CUDA context, cuBLAS workspaces, and the
/// host framework on every GPU (PyTorch reserves on this order).
pub const RUNTIME_RESERVED_BYTES: u64 = 1_200 * 1024 * 1024;

/// A per-component device-memory estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryEstimate {
    /// Model parameters.
    pub params: u64,
    /// Optimiser state (Adam: two moments per parameter).
    pub optimizer: u64,
    /// Activations and their gradients for one mini-batch.
    pub activations: u64,
    /// Feature rows of the current mini-batch.
    pub features: u64,
    /// Subgraph topology (blocks' CSR arrays).
    pub topology: u64,
    /// ID-map hash table.
    pub hash_table: u64,
    /// Static feature cache.
    pub cache: u64,
    /// Fixed runtime reservation.
    pub runtime: u64,
}

impl MemoryEstimate {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.params
            + self.optimizer
            + self.activations
            + self.features
            + self.topology
            + self.hash_table
            + self.cache
            + self.runtime
    }

    /// Bytes left on a device with `capacity`.
    pub fn remaining(&self, capacity: u64) -> u64 {
        capacity.saturating_sub(self.total())
    }
}

/// Estimates the memory of one training iteration.
///
/// * `workloads` — per-layer shapes of the mini-batch.
/// * `param_bytes` — model parameter bytes.
/// * `subgraph_nodes` — distinct nodes (feature rows staged).
/// * `feature_dim` — input feature width.
/// * `topology_bytes` — the subgraph's CSR bytes.
/// * `total_ids` — IDs processed by the ID map (sizes its hash table).
/// * `cache_bytes` — static feature-cache bytes.
/// * `runtime_reserved` — fixed runtime reservation; pass
///   [`RUNTIME_RESERVED_BYTES`] at full scale, or a value scaled with the
///   workload when simulating a scaled-down device (see
///   `Pipeline::probe_auto_cache_rows`).
#[allow(clippy::too_many_arguments)]
pub fn estimate_batch_memory_with_runtime(
    workloads: &[LayerWorkload],
    param_bytes: u64,
    subgraph_nodes: u64,
    feature_dim: usize,
    topology_bytes: u64,
    total_ids: u64,
    cache_bytes: u64,
    runtime_reserved: u64,
) -> MemoryEstimate {
    // Activations: each layer materialises its input (num_src × d_in) and
    // output (num_dst × d_out); backward keeps gradients of the same shape.
    let activations: u64 = workloads
        .iter()
        .map(|w| 4 * (w.num_src_rows * w.d_in as u64 + w.num_dst * w.d_out as u64))
        .sum::<u64>()
        * 2;
    // Open-addressing table at load factor 1/2, 16 bytes per slot.
    let hash_table = 2 * total_ids * 16;
    MemoryEstimate {
        params: param_bytes,
        optimizer: 2 * param_bytes,
        activations,
        features: subgraph_nodes * feature_dim as u64 * 4,
        topology: topology_bytes,
        hash_table,
        cache: cache_bytes,
        runtime: runtime_reserved,
    }
}

/// [`estimate_batch_memory_with_runtime`] with the full-scale runtime
/// reservation.
#[allow(clippy::too_many_arguments)]
pub fn estimate_batch_memory(
    workloads: &[LayerWorkload],
    param_bytes: u64,
    subgraph_nodes: u64,
    feature_dim: usize,
    topology_bytes: u64,
    total_ids: u64,
    cache_bytes: u64,
) -> MemoryEstimate {
    estimate_batch_memory_with_runtime(
        workloads,
        param_bytes,
        subgraph_nodes,
        feature_dim,
        topology_bytes,
        total_ids,
        cache_bytes,
        RUNTIME_RESERVED_BYTES,
    )
}

/// Analytic neighbour-explosion estimate: expected distinct nodes of an
/// L-hop uniform sample from `batch` seeds on a graph with `num_nodes`
/// nodes and average degree `avg_degree` (used at *full published scale*
/// for Table 1, where actually sampling a 111M-node graph is unnecessary).
pub fn estimate_unique_nodes(
    num_nodes: u64,
    avg_degree: f64,
    batch: u64,
    fanouts: &[usize],
) -> u64 {
    let n = num_nodes as f64;
    let mut cumulative = (batch as f64).min(n);
    for &fanout in fanouts {
        let per_node = (fanout as f64).min(avg_degree.max(1.0));
        let draws = cumulative * per_node;
        // Expected distinct endpoints of `draws` roughly-uniform draws.
        let distinct = n * (1.0 - (1.0 - 1.0 / n).powf(draws));
        // Of those, the fraction not already in the cumulative set is new.
        let new = distinct * (1.0 - cumulative / n);
        cumulative = (cumulative + new).min(n);
    }
    cumulative.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload() -> Vec<LayerWorkload> {
        vec![
            LayerWorkload {
                num_dst: 1_000,
                num_src_rows: 10_000,
                nnz: 5_000,
                d_in: 100,
                d_out: 64,
            },
            LayerWorkload {
                num_dst: 100,
                num_src_rows: 1_000,
                nnz: 500,
                d_in: 64,
                d_out: 10,
            },
        ]
    }

    #[test]
    fn totals_add_up() {
        let e = estimate_batch_memory(&workload(), 1_000_000, 10_000, 100, 50_000, 20_000, 0);
        let sum = e.params
            + e.optimizer
            + e.activations
            + e.features
            + e.topology
            + e.hash_table
            + e.cache
            + e.runtime;
        assert_eq!(e.total(), sum);
        assert_eq!(e.optimizer, 2 * e.params);
        assert_eq!(e.features, 10_000 * 100 * 4);
        assert_eq!(e.hash_table, 2 * 20_000 * 16);
    }

    #[test]
    fn remaining_saturates() {
        let e = estimate_batch_memory(&workload(), 0, 0, 1, 0, 0, 0);
        assert_eq!(e.remaining(0), 0);
        assert!(e.remaining(u64::MAX) > 0);
    }

    #[test]
    fn activation_formula() {
        let w = vec![LayerWorkload {
            num_dst: 10,
            num_src_rows: 100,
            nnz: 0,
            d_in: 8,
            d_out: 4,
        }];
        let e = estimate_batch_memory(&w, 0, 0, 1, 0, 0, 0);
        assert_eq!(e.activations, 2 * 4 * (100 * 8 + 10 * 4));
    }

    #[test]
    fn unique_nodes_grow_with_hops_and_saturate() {
        let one_hop = estimate_unique_nodes(1_000_000, 30.0, 8_000, &[5]);
        let three_hop = estimate_unique_nodes(1_000_000, 30.0, 8_000, &[5, 10, 15]);
        assert!(three_hop > one_hop);
        assert!(three_hop <= 1_000_000);
        // Deep sampling on a small graph saturates at the graph size.
        let saturated = estimate_unique_nodes(10_000, 30.0, 8_000, &[15, 15, 15]);
        assert!(saturated > 9_000, "{saturated}");
    }

    #[test]
    fn paper_scale_subgraphs_are_large() {
        // Papers100M with batch 8000 and [5,10,15]: the sampled subgraph
        // must reach millions of nodes (the neighbour-explosion premise of
        // Table 1: only ~1 GB of 24 GB remains).
        let nodes = estimate_unique_nodes(111_000_000, 14.5, 8_000, &[5, 10, 15]);
        assert!(nodes > 1_000_000, "{nodes}");
        assert!(nodes < 111_000_000);
    }
}
