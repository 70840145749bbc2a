//! Trace-driven cost of the aggregation phase (sparse gather-reduce).
//!
//! The aggregation of Eq. 1 (`h_u = Σ w_uv · x_v`) is the irregular kernel
//! whose memory behaviour the paper's Memory-Aware technique redesigns.
//! Two access patterns are modelled:
//!
//! * **Naive** (DGL/PyG): partial sums, weights, and source features all
//!   live in global memory and flow through the L1/L2 caches (paper Eq. 3).
//!   The hit rates are *measured* by replaying the subgraph's actual access
//!   stream — interleaved across the resident thread blocks of an SM the
//!   way a real GPU interleaves warps — through the cache simulator.
//! * **Memory-Aware** (FastGL): each thread block stages its partial sums
//!   and weights in shared memory, and only source features stream from
//!   global memory (paper Eq. 4, thread-block tiling X × Y of §4.2).
//!
//! The returned [`KernelProfile`]s feed the kernel cost model, and the
//! measured hit rates regenerate Table 2.

use crate::cache::{Cache, CacheConfig, CacheStats};
use crate::kernel::{KernelCost, KernelProfile};
use crate::spec::{CostParams, DeviceSpec};
use fastgl_tensor::parallel::par_chunk_results;
use std::ops::Range;

/// Base address of the traced feature region.
const FEAT_BASE: u64 = 0;

/// A layer of a sampled subgraph, described compactly for tracing.
///
/// `offsets`/`sources` form a local CSR: target (local) node `u` aggregates
/// from `sources[offsets[u] .. offsets[u + 1]]`.
#[derive(Debug, Clone, Copy)]
pub struct SubgraphLayerTrace<'a> {
    /// CSR offsets over target nodes (`len = num_targets + 1`).
    pub offsets: &'a [u64],
    /// Flat local source indices.
    pub sources: &'a [u64],
    /// Number of distinct source nodes whose feature rows are resident.
    pub num_sources: u64,
    /// Feature dimensionality of this layer's input.
    pub feature_dim: usize,
}

impl<'a> SubgraphLayerTrace<'a> {
    /// Number of target nodes.
    pub fn num_targets(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Number of edges (non-zeros).
    pub fn nnz(&self) -> u64 {
        self.sources.len() as u64
    }
}

/// The evaluated cost of one aggregation pass.
#[derive(Debug, Clone, Copy)]
pub struct AggregationCost {
    /// Event counts of the kernel.
    pub profile: KernelProfile,
    /// Evaluated time components.
    pub cost: KernelCost,
    /// Measured L1 statistics (naive pattern only; zero for Memory-Aware).
    pub l1: CacheStats,
    /// Measured L2 statistics (naive pattern only; zero for Memory-Aware).
    pub l2: CacheStats,
}

impl AggregationCost {
    /// Achieved GFLOP/s of the pass.
    pub fn gflops(&self) -> f64 {
        self.cost.achieved_flops(self.profile.flops) / 1e9
    }

    /// Operational intensity in FLOP per DRAM byte (for the roofline).
    pub fn operational_intensity(&self) -> f64 {
        if self.profile.bytes_global == 0 {
            f64::INFINITY
        } else {
            self.profile.flops as f64 / self.profile.bytes_global as f64
        }
    }
}

/// Simulates the aggregation kernel of a GNN layer on a device.
#[derive(Debug, Clone)]
pub struct AggregationKernel {
    device: DeviceSpec,
    params: CostParams,
    /// Targets per thread block (paper: X = 8).
    pub block_targets: usize,
    /// Feature dimensions per thread block (paper: Y = 32).
    pub block_dims: usize,
    /// Thread blocks resident per SM whose access streams interleave.
    pub resident_blocks: usize,
    /// Cap on traced cache accesses; longer streams are cut off and the
    /// measured hit rates extrapolated (they converge far earlier).
    pub max_trace_accesses: u64,
    /// Fraction of the real cache capacities used during trace replay.
    ///
    /// Experiments run on graphs scaled down by ~100x; replaying their
    /// access streams against a full-size L1/L2 would let the caches hold
    /// a far larger share of the working set than at the paper's scale,
    /// inflating hit rates (the paper measures ~4 % L1 / ~20 % L2). Set
    /// this to the dataset's scale factor so cache-to-working-set ratios
    /// match the paper's regime; `1.0` replays against real capacities.
    pub capacity_scale: f64,
}

impl AggregationKernel {
    /// A kernel simulator with the paper's tiling (X = 8, Y = 32).
    pub fn new(device: DeviceSpec, params: CostParams) -> Self {
        Self {
            device,
            params,
            block_targets: 8,
            block_dims: 32,
            resident_blocks: 32,
            max_trace_accesses: 4_000_000,
            capacity_scale: 1.0,
        }
    }

    /// Sets the cache-capacity scale (see [`AggregationKernel::capacity_scale`]).
    pub fn with_capacity_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "capacity scale in (0, 1]");
        self.capacity_scale = scale;
        self
    }

    /// Logical bytes of the naive pattern (paper Eq. 3): partial-sum reads,
    /// source-feature reads, and per-dimension weight reads, all 4-byte FP32.
    fn naive_logical_bytes(trace: &SubgraphLayerTrace<'_>) -> u64 {
        let d = trace.feature_dim as u64;
        let nnz = trace.nnz();
        let t = trace.num_targets();
        let psum_reads = 4 * nnz.saturating_sub(t) * d;
        let feat_reads = 4 * nnz * d;
        let weight_reads = 4 * nnz * d;
        psum_reads + feat_reads + weight_reads
    }

    /// FLOPs of one aggregation pass (one FMA per edge per dimension).
    fn flops(trace: &SubgraphLayerTrace<'_>) -> u64 {
        2 * trace.nnz() * trace.feature_dim as u64
    }

    /// Cost of the naive (DGL-style) aggregation: everything flows through
    /// the L1/L2 caches from global memory, and the hit rates are measured
    /// by replaying the actual interleaved access stream.
    pub fn naive_cost(&self, trace: &SubgraphLayerTrace<'_>) -> AggregationCost {
        let (l1, l2) = {
            let _span = fastgl_telemetry::span("gpusim.replay").with_u64("edges", trace.nnz());
            self.replay_caches(trace)
        };
        fastgl_telemetry::counter_add(fastgl_telemetry::names::GPUSIM_REPLAY_LINES, l1.accesses());
        self.naive_cost_inner(trace, l1, l2)
    }

    /// Cost of the naive aggregation under *known* hit rates, skipping the
    /// trace replay. Pipelines trace one representative batch per layer and
    /// reuse its measured rates for the rest of the epoch (subsequent
    /// batches of the same layer have statistically identical streams).
    pub fn naive_cost_with_hit_rates(
        &self,
        trace: &SubgraphLayerTrace<'_>,
        h1: f64,
        h2: f64,
    ) -> AggregationCost {
        let synth = |rate: f64| {
            let accesses = trace.nnz().max(1);
            CacheStats {
                hits: (accesses as f64 * rate) as u64,
                misses: accesses - (accesses as f64 * rate) as u64,
            }
        };
        self.naive_cost_inner(trace, synth(h1), synth(h2))
    }

    fn naive_cost_inner(
        &self,
        trace: &SubgraphLayerTrace<'_>,
        l1: CacheStats,
        l2: CacheStats,
    ) -> AggregationCost {
        let total = Self::naive_logical_bytes(trace);
        let h1 = l1.hit_rate();
        let h2 = l2.hit_rate();
        let bytes_l1 = (total as f64 * h1) as u64;
        let after_l1 = total - bytes_l1;
        let bytes_l2 = (after_l1 as f64 * h2) as u64;
        let bytes_global = after_l1 - bytes_l2;
        let profile = KernelProfile {
            flops: Self::flops(trace),
            bytes_l1,
            bytes_l2,
            bytes_global,
            launches: 1,
            ..Default::default()
        };
        AggregationCost {
            profile,
            cost: profile.cost(&self.device, &self.params),
            l1,
            l2,
        }
    }

    /// Cost of the Memory-Aware aggregation (paper Eq. 4): partial sums and
    /// weights served by shared memory, source features and the first touch
    /// of each weight from global memory.
    ///
    /// # Panics
    ///
    /// Panics if the tiling's shared-memory requirement exceeds the SM's
    /// capacity, which would be a configuration bug (the paper's X = 8,
    /// Y = 32 needs ~1 KB plus weights).
    pub fn memory_aware_cost(&self, trace: &SubgraphLayerTrace<'_>) -> AggregationCost {
        self.memory_aware_cost_with_hit_rates(trace, 0.0, 0.0)
    }

    /// [`AggregationKernel::memory_aware_cost`] with known L1/L2 hit rates
    /// for the source-feature gather stream (measured once on the naive
    /// replay — the stream's addresses are identical in both kernels).
    pub fn memory_aware_cost_with_hit_rates(
        &self,
        trace: &SubgraphLayerTrace<'_>,
        h1: f64,
        h2: f64,
    ) -> AggregationCost {
        let d = trace.feature_dim as u64;
        let nnz = trace.nnz();
        let t = trace.num_targets();
        // Shared-memory requirement per block: 4·X·Y partial sums plus
        // 4·X·avg|N(u)| weights (paper §4.2).
        let avg_deg = if t == 0 { 0 } else { nnz / t.max(1) };
        let shared_per_block = 4 * (self.block_targets * self.block_dims) as u64
            + 4 * self.block_targets as u64 * avg_deg.max(1);
        assert!(
            shared_per_block <= self.device.l1_bytes_per_sm,
            "tiling needs {shared_per_block} B of shared memory, SM has {}",
            self.device.l1_bytes_per_sm
        );
        let bytes_shared = 4 * nnz.saturating_sub(t) * d + 4 * nnz * d.saturating_sub(1);
        // The source-feature stream still flows through L1/L2 exactly as in
        // the naive kernel (same gather addresses), so it receives the same
        // measured hit rates; the per-edge weight first-touch is global.
        let feature_bytes = 4 * nnz * d;
        let f_l1 = (feature_bytes as f64 * h1) as u64;
        let after_l1 = feature_bytes - f_l1;
        let f_l2 = (after_l1 as f64 * h2) as u64;
        let bytes_global = (after_l1 - f_l2) + 4 * nnz;
        // The ⌈d / Y⌉ dimension tiles are thread blocks of a single grid
        // (paper §4.2), so one launch covers the whole aggregation.
        let profile = KernelProfile {
            flops: Self::flops(trace),
            bytes_shared,
            bytes_l1: f_l1,
            bytes_l2: f_l2,
            bytes_global,
            launches: 1,
            ..Default::default()
        };
        AggregationCost {
            profile,
            cost: profile.cost(&self.device, &self.params),
            l1: CacheStats::default(),
            l2: CacheStats::default(),
        }
    }

    /// Replays the naive access stream of a representative SM through the
    /// L1 simulator and its misses through (a fair share of) the L2.
    ///
    /// Blocks are assigned to SMs round-robin; the representative SM keeps
    /// `resident_blocks` of its blocks in flight and their access streams
    /// interleave one edge at a time — the reason irregular aggregation
    /// sees so little locality on a real GPU.
    ///
    /// With `g = gcd(l1_sets, l2_sets)`, a line's class `line % g` fixes
    /// its L1 set and its L2 set modulo `g`, so the lines of one class
    /// only ever meet lines of the same class in either cache. The classes
    /// are therefore independent sub-simulations, each seeing its accesses
    /// in the original order; they replay in parallel and their counts
    /// sum to exactly those of one serial replay.
    fn replay_caches(&self, trace: &SubgraphLayerTrace<'_>) -> (CacheStats, CacheStats) {
        let (l1, l2) = self.replay_geometry();
        let classes = gcd(l1.num_sets(), l2.num_sets());
        par_chunk_results(classes, 1, |range| {
            self.replay_classes(trace, l1, l2, classes, range)
        })
        .into_iter()
        .fold(
            (CacheStats::default(), CacheStats::default()),
            |(a1, a2), (b1, b2)| (sum_stats(a1, b1), sum_stats(a2, b2)),
        )
    }

    /// The scaled L1 and L2 the replay simulates.
    fn replay_geometry(&self) -> (CacheConfig, CacheConfig) {
        let scaled = |bytes: u64, min_lines: u64| {
            ((bytes as f64 * self.capacity_scale) as u64).max(self.device.line_bytes * min_lines)
        };
        let l1 = CacheConfig {
            capacity_bytes: scaled(self.device.l1_bytes_per_sm, 32),
            line_bytes: self.device.line_bytes,
            ways: 8,
        };
        let l2 = CacheConfig {
            capacity_bytes: scaled(self.device.l2_bytes, 512),
            line_bytes: self.device.line_bytes,
            ways: 16,
        };
        (l1, l2)
    }

    /// Replays the lines whose class `line % classes` lies in the
    /// non-empty range `mine` through fresh caches of geometries `l1`/`l2`.
    fn replay_classes(
        &self,
        trace: &SubgraphLayerTrace<'_>,
        l1: CacheConfig,
        l2: CacheConfig,
        classes: usize,
        mine: Range<usize>,
    ) -> (CacheStats, CacheStats) {
        debug_assert!(!mine.is_empty() && mine.end <= classes);
        let (sets1, sets2) = (l1.num_sets() as u64, l2.num_sets() as u64);
        let mut l1 = Cache::new(l1);
        let mut l2 = Cache::new(l2);
        let (g, c0, width) = (classes as u64, mine.start as u64, mine.len() as u64);
        let line_bytes = self.device.line_bytes;
        let d_bytes = trace.feature_dim as u64 * 4;
        // Touches the feature row at `addr` line by line — L1 first, misses
        // fall through to L2 — skipping lines of other classes. After each
        // run of `width` classes the next line of `mine` is `g - width + 1`
        // lines on, which never exceeds either cache's set count.
        let touch = |addr: u64| {
            let first = addr / line_bytes;
            let last = (addr + d_bytes - 1) / line_bytes;
            let class = first % g;
            let (skip, mut k) = match class.checked_sub(c0) {
                Some(k) if k < width => (0, k),
                Some(_) => (g - class + c0, 0),
                None => (c0 - class, 0),
            };
            let mut line = first + skip;
            if line > last {
                return;
            }
            let mut at1 = LineCursor::at(line, sets1);
            let mut at2 = LineCursor::at(line, sets2);
            loop {
                if !l1.access_set(at1.set, at1.tag) {
                    l2.access_set(at2.set, at2.tag);
                }
                k += 1;
                let step = if k == width {
                    k = 0;
                    g - width + 1
                } else {
                    1
                };
                line += step;
                if line > last {
                    break;
                }
                at1.advance(step);
                at2.advance(step);
            }
        };

        if d_bytes > 0 {
            self.for_each_gathered_row(trace, touch);
        }
        (l1.stats(), l2.stats())
    }

    /// Calls `gather` with the address of each feature row the
    /// representative SM gathers, in the interleaved order its resident
    /// blocks issue them, up to the `max_trace_accesses` cut-off.
    fn for_each_gathered_row(&self, trace: &SubgraphLayerTrace<'_>, mut gather: impl FnMut(u64)) {
        let d_bytes = trace.feature_dim as u64 * 4;
        let num_targets = trace.num_targets() as usize;
        let bt = self.block_targets;
        // All blocks stream through one simulated SM; what shapes the hit
        // rate is the interleaving across `resident_blocks` concurrent
        // blocks, which is the same on every SM.
        let mut my_blocks = 0..num_targets.div_ceil(bt);
        // In-flight blocks: (next_target, end_target, next_edge_index).
        let mut in_flight: Vec<(usize, usize, usize)> = Vec::new();
        let mut refill = |in_flight: &mut Vec<(usize, usize, usize)>| {
            while in_flight.len() < self.resident_blocks {
                match my_blocks.next() {
                    Some(b) => {
                        let start = b * bt;
                        let end = (start + bt).min(num_targets);
                        let e = trace.offsets[start] as usize;
                        in_flight.push((start, end, e));
                    }
                    None => break,
                }
            }
        };
        refill(&mut in_flight);

        // The cut-off counts edges, not replayed lines, so every set-class
        // replay stops at the same edge.
        let mut accesses: u64 = 0;
        'outer: while !in_flight.is_empty() {
            let mut slot = 0;
            while slot < in_flight.len() {
                let (t, end, e) = in_flight[slot];
                if t >= end {
                    in_flight.swap_remove(slot);
                    refill(&mut in_flight);
                    continue;
                }
                let edge_end = trace.offsets[t + 1] as usize;
                if e >= edge_end {
                    in_flight[slot].0 = t + 1;
                    if t + 1 < end {
                        in_flight[slot].2 = trace.offsets[t + 1] as usize;
                    }
                    continue;
                }
                // One edge of work: gather the source node's feature row.
                // This is the irregular stream that defeats the caches; the
                // partial sums live in registers between edges and the
                // per-edge weight is a warp-broadcast scalar, so neither
                // generates a per-edge global load on real hardware (their
                // traffic is still charged in the Eq. 3 byte census).
                gather(FEAT_BASE + trace.sources[e] * d_bytes);
                in_flight[slot].2 = e + 1;
                slot += 1;
                accesses += 1 + d_bytes / self.device.line_bytes;
                if accesses >= self.max_trace_accesses {
                    break 'outer;
                }
            }
        }
    }
}

/// The `(set, tag)` of a line in a cache of `sets` sets, stepped forward
/// without a division.
#[derive(Debug, Clone, Copy)]
struct LineCursor {
    set: usize,
    tag: u64,
    sets: u64,
}

impl LineCursor {
    fn at(line: u64, sets: u64) -> Self {
        Self {
            set: (line % sets) as usize,
            tag: line / sets,
            sets,
        }
    }

    /// Moves `n <= sets` lines forward.
    #[inline]
    fn advance(&mut self, n: u64) {
        let set = self.set as u64 + n;
        if set >= self.sets {
            self.set = (set - self.sets) as usize;
            self.tag += 1;
        } else {
            self.set = set as usize;
        }
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn sum_stats(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A random-ish layer: `t` targets with `deg` neighbours drawn from
    /// `s` sources by a deterministic LCG.
    fn layer(t: u64, deg: u64, s: u64) -> (Vec<u64>, Vec<u64>) {
        let mut offsets = Vec::with_capacity(t as usize + 1);
        let mut sources = Vec::new();
        let mut x = 0x1234_5678_9abc_def0u64;
        offsets.push(0);
        for _ in 0..t {
            for _ in 0..deg {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                sources.push((x >> 33) % s);
            }
            offsets.push(sources.len() as u64);
        }
        (offsets, sources)
    }

    fn kernel() -> AggregationKernel {
        AggregationKernel::new(DeviceSpec::rtx3090(), CostParams::default())
    }

    #[test]
    fn memory_aware_beats_naive() {
        let (offsets, sources) = layer(4_000, 10, 40_000);
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 40_000,
            feature_dim: 256,
        };
        let k = kernel();
        let naive = k.naive_cost(&trace);
        let ma = k.memory_aware_cost(&trace);
        let speedup = naive.cost.time().as_secs_f64() / ma.cost.time().as_secs_f64();
        assert!(speedup > 1.5, "speedup {speedup}");
        assert!(speedup < 50.0, "speedup {speedup} implausibly large");
    }

    #[test]
    fn naive_hit_rates_are_low() {
        // Large random access pattern: the paper reports ~3-5% L1 and
        // 15-25% L2 hit rates (Table 2).
        let (offsets, sources) = layer(8_000, 12, 100_000);
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 100_000,
            feature_dim: 128,
        };
        let c = kernel().naive_cost(&trace);
        let l1 = c.l1.hit_rate();
        let l2 = c.l2.hit_rate();
        assert!(l1 < 0.20, "L1 hit rate {l1}");
        assert!(l2 < 0.50, "L2 hit rate {l2}");
        assert!(c.l1.accesses() > 10_000);
    }

    #[test]
    fn flops_count_is_two_per_edge_per_dim() {
        let (offsets, sources) = layer(100, 5, 300);
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 300,
            feature_dim: 64,
        };
        let c = kernel().memory_aware_cost(&trace);
        assert_eq!(c.profile.flops, 2 * 500 * 64);
    }

    #[test]
    fn byte_partition_conserves_total() {
        let (offsets, sources) = layer(1_000, 8, 5_000);
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 5_000,
            feature_dim: 64,
        };
        let c = kernel().naive_cost(&trace);
        let total = AggregationKernel::naive_logical_bytes(&trace);
        assert_eq!(c.profile.total_bytes(), total);
    }

    #[test]
    fn memory_aware_shared_bytes_match_eq4() {
        let (offsets, sources) = layer(100, 10, 500);
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 500,
            feature_dim: 32,
        };
        let c = kernel().memory_aware_cost(&trace);
        let nnz = 1_000u64;
        let t = 100u64;
        let d = 32u64;
        assert_eq!(
            c.profile.bytes_shared,
            4 * (nnz - t) * d + 4 * nnz * (d - 1)
        );
        assert_eq!(c.profile.bytes_global, 4 * nnz * d + 4 * nnz);
    }

    #[test]
    fn denser_reuse_raises_hit_rate() {
        // Few sources: feature rows fit in cache, hit rates rise.
        let (offsets, sources) = layer(2_000, 10, 64);
        let trace_small = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 64,
            feature_dim: 64,
        };
        let (offsets2, sources2) = layer(2_000, 10, 200_000);
        let trace_big = SubgraphLayerTrace {
            offsets: &offsets2,
            sources: &sources2,
            num_sources: 200_000,
            feature_dim: 64,
        };
        let k = kernel();
        let small = k.naive_cost(&trace_small);
        let big = k.naive_cost(&trace_big);
        assert!(
            small.l1.hit_rate() > big.l1.hit_rate(),
            "small {} big {}",
            small.l1.hit_rate(),
            big.l1.hit_rate()
        );
    }

    #[test]
    fn known_hit_rates_skip_tracing_but_match_byte_census() {
        let (offsets, sources) = layer(1_000, 8, 5_000);
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 5_000,
            feature_dim: 64,
        };
        let k = kernel();
        let c = k.naive_cost_with_hit_rates(&trace, 0.05, 0.2);
        assert_eq!(
            c.profile.total_bytes(),
            AggregationKernel::naive_logical_bytes(&trace)
        );
        assert!((c.l1.hit_rate() - 0.05).abs() < 1e-3);
        assert!((c.l2.hit_rate() - 0.2).abs() < 1e-3);
        // Higher hit rates must be faster.
        let fast = k.naive_cost_with_hit_rates(&trace, 0.5, 0.8);
        assert!(fast.cost.time() < c.cost.time());
    }

    #[test]
    fn gflops_sane() {
        let (offsets, sources) = layer(4_000, 10, 40_000);
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 40_000,
            feature_dim: 128,
        };
        let c = kernel().naive_cost(&trace);
        // Paper Table 2: naive aggregation achieves ~340-400 GFLOP/s.
        let g = c.gflops();
        assert!(g > 50.0 && g < 2_000.0, "gflops {g}");
    }

    /// The set-class replay, whole or split into any partition of its
    /// classes, counts exactly what a plain line-by-line replay of the same
    /// stream through [`Cache::access`] counts.
    #[test]
    fn class_replay_matches_a_plain_replay() {
        let (offsets, sources) = layer(2_000, 9, 3_000);
        let rtx = DeviceSpec::rtx3090();
        let odd_l2 = DeviceSpec {
            l2_bytes: 33 * 16 * rtx.line_bytes,
            ..rtx.clone()
        };
        let scaled = kernel().with_capacity_scale(1.0 / 256.0);
        let mut truncated = scaled.clone();
        truncated.max_trace_accesses = 10_001;
        let kernels = [
            (scaled, 4),
            (kernel(), 128),
            (AggregationKernel::new(odd_l2, CostParams::default()), 1),
            (truncated, 4),
        ];
        // Rows of 1, 3.125, 8 and 0.25 lines: aligned, straddling, and
        // several rows per line.
        for (k, classes) in kernels {
            for feature_dim in [32, 100, 256, 8] {
                let trace = SubgraphLayerTrace {
                    offsets: &offsets,
                    sources: &sources,
                    num_sources: 3_000,
                    feature_dim,
                };
                let (c1, c2) = k.replay_geometry();
                assert_eq!(gcd(c1.num_sets(), c2.num_sets()), classes);
                let (mut l1, mut l2) = (Cache::new(c1), Cache::new(c2));
                let line = k.device.line_bytes;
                let d_bytes = feature_dim as u64 * 4;
                k.for_each_gathered_row(&trace, |addr| {
                    for ln in addr / line..=(addr + d_bytes - 1) / line {
                        if !l1.access(ln * line) {
                            l2.access(ln * line);
                        }
                    }
                });
                let plain = (l1.stats(), l2.stats());
                assert!(plain.0.hits + plain.1.hits > 0, "no hits: {plain:?}");
                assert_eq!(k.replay_caches(&trace), plain, "dim {feature_dim}");
                for parts in [2, 3, classes].into_iter().filter(|&p| p <= classes) {
                    let split = (0..parts)
                        .map(|p| {
                            let mine = p * classes / parts..(p + 1) * classes / parts;
                            k.replay_classes(&trace, c1, c2, classes, mine)
                        })
                        .fold(Default::default(), |(a1, a2), (b1, b2)| {
                            (sum_stats(a1, b1), sum_stats(a2, b2))
                        });
                    assert_eq!(split, plain, "dim {feature_dim}, {parts} parts");
                }
            }
        }
    }

    #[test]
    fn empty_layer_costs_only_overhead() {
        let offsets = vec![0u64];
        let sources: Vec<u64> = vec![];
        let trace = SubgraphLayerTrace {
            offsets: &offsets,
            sources: &sources,
            num_sources: 0,
            feature_dim: 64,
        };
        let k = kernel();
        let naive = k.naive_cost(&trace);
        assert_eq!(naive.profile.flops, 0);
        let ma = k.memory_aware_cost(&trace);
        assert_eq!(ma.profile.bytes_shared, 0);
    }
}
