//! The ID-map process: converting global node IDs to consecutive local IDs.
//!
//! Every sampled mini-batch must renumber its global node IDs to a dense
//! `0..n` range before features can be gathered into a compact device
//! buffer (paper §2.2, Fig. 4). The paper identifies this step as up to
//! 70 % of the sample phase and contributes the **Fused-Map** algorithm
//! (its Algorithm 2) to remove the thread synchronizations that the
//! baseline (DGL-style) three-kernel approach requires.
//!
//! Two implementations live here:
//!
//! * [`BaselineIdMap`](baseline::BaselineIdMap) — build table, synchronize,
//!   assign local IDs, synchronize, transform (three kernels).
//! * [`FusedIdMap`](fused::FusedIdMap) — Algorithm 2: CAS-insert and local
//!   ID assignment fused in one kernel, then a transform kernel. A truly
//!   parallel variant with real atomics validates lock-freedom; a
//!   sequential replay provides deterministic event counts for the
//!   simulator.
//!
//! Both sequential maps run on the host as one pass, `map_once`, and
//! charge the probes of every modelled kernel from its probe count: the
//! table never deletes, so each later kernel's walk for an ID from its
//! hash slot is exactly as long as that ID's walk in the insert pass.

pub mod baseline;
pub mod fused;

/// Event counts of one ID-map execution, consumed by the cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IdMapStats {
    /// IDs processed (with duplicates).
    pub total_ids: u64,
    /// Distinct IDs discovered.
    pub unique_ids: u64,
    /// Linear-probe steps beyond the first slot.
    pub probes: u64,
    /// CAS operations that lost a race and retried (parallel execution).
    pub cas_conflicts: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Device-wide synchronizations between kernels.
    pub device_syncs: u64,
    /// Per-unique-ID serialized synchronization events (the baseline's
    /// local-ID assignment; zero for Fused-Map).
    pub sync_serializations: u64,
    /// Hash lookups performed by the final transform kernel.
    pub lookups: u64,
}

impl IdMapStats {
    /// Accumulates another execution's counters into this one.
    pub fn merge(&mut self, other: &IdMapStats) {
        self.total_ids += other.total_ids;
        self.unique_ids += other.unique_ids;
        self.probes += other.probes;
        self.cas_conflicts += other.cas_conflicts;
        self.kernel_launches += other.kernel_launches;
        self.device_syncs += other.device_syncs;
        self.sync_serializations += other.sync_serializations;
        self.lookups += other.lookups;
    }
}

/// The output of an ID map over an ID stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdMapOutput {
    /// Distinct global IDs indexed by their assigned local ID.
    pub unique: Vec<u64>,
    /// The input stream rewritten as local IDs (same length and order).
    pub locals: Vec<u64>,
    /// Event counts for the cost model.
    pub stats: IdMapStats,
}

impl IdMapOutput {
    /// Checks that the mapping is a bijection consistent with the input:
    /// every input ID maps to the local whose `unique` entry is that ID.
    pub fn verify(&self, input: &[u64]) -> Result<(), String> {
        if self.locals.len() != input.len() {
            return Err("locals length differs from input".into());
        }
        let n = self.unique.len() as u64;
        for (&id, &local) in input.iter().zip(&self.locals) {
            if local >= n {
                return Err(format!("local {local} out of range {n}"));
            }
            if self.unique[local as usize] != id {
                return Err(format!(
                    "local {local} maps to {} but input was {id}",
                    self.unique[local as usize]
                ));
            }
        }
        let mut sorted = self.unique.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err("unique list contains duplicates".into());
        }
        Ok(())
    }
}

/// A strategy converting a global-ID stream into local IDs.
pub trait IdMap {
    /// Renumbers `ids` (duplicates allowed) into dense local IDs.
    fn map(&self, ids: &[u64]) -> IdMapOutput;

    /// Short display name for tables.
    fn name(&self) -> &'static str;
}

/// Hash-table capacity for `n` IDs: the next power of two at or above
/// `2 n`, keeping the load factor at or below 0.5 like DGL's GPU table.
pub(crate) fn table_capacity(n: usize) -> usize {
    table_capacity_with_factor(n, 2.0)
}

/// Hash-table capacity for `n` IDs with an explicit headroom `factor`
/// (capacity = next power of two ≥ `factor · n`). Lower factors trade
/// memory for longer linear-probe chains — the trade the load-factor
/// ablation sweeps.
pub(crate) fn table_capacity_with_factor(n: usize, factor: f64) -> usize {
    (((n.max(1) as f64) * factor).ceil() as usize)
        .max(2)
        .next_power_of_two()
}

/// Multiplier of [`fib_hash`]: 2^64 divided by the golden ratio.
const FIB_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Fibonacci multiplicative hash into a table of `1 << bits` slots.
#[inline]
pub(crate) fn fib_hash(id: u64, bits: u32) -> usize {
    (id.wrapping_mul(FIB_MULTIPLIER) >> (64 - bits)) as usize
}

/// Empty-slot marker of the hash tables; never a valid global ID.
pub(crate) const EMPTY: u64 = u64::MAX;

/// Linear-probing insertion of `ids` into a table of `capacity` slots (a
/// power of two above the number of distinct IDs), in input order.
///
/// Returns the distinct IDs in first-occurrence order, each input's local
/// ID (emitted as the insert pass finds or claims its slot), and the sum
/// over all inputs of the probe steps beyond the hash slot. Because no
/// slot is ever freed, that sum is also what one more walk of the whole
/// stream through the finished table costs.
pub(crate) fn map_once(ids: &[u64], capacity: usize) -> (Vec<u64>, Vec<u64>, u64) {
    let bits = capacity.trailing_zeros();
    let mask = capacity - 1;
    // (key, local) per slot: a probe touches one cache line, not two.
    let mut table = vec![(EMPTY, 0u64); capacity];
    let mut unique = Vec::new();
    let mut locals = Vec::with_capacity(ids.len());
    let mut probes = 0u64;
    for &id in ids {
        debug_assert_ne!(id, EMPTY, "EMPTY sentinel is reserved");
        let mut slot = fib_hash(id, bits);
        loop {
            let (key, local) = table[slot];
            if key == id {
                locals.push(local);
                break;
            }
            if key == EMPTY {
                let local = unique.len() as u64;
                table[slot] = (id, local);
                unique.push(id);
                locals.push(local);
                break;
            }
            slot = (slot + 1) & mask;
            probes += 1;
        }
    }
    (unique, locals, probes)
}

#[cfg(test)]
mod tests {
    use super::baseline::BaselineIdMap;
    use super::fused::FusedIdMap;
    use super::*;
    use proptest::prelude::*;

    /// The literal three-kernel baseline map (insert, assign, transform,
    /// each walking the table), kept as the reference for
    /// [`BaselineIdMap::map`].
    fn reference_three_pass(ids: &[u64]) -> IdMapOutput {
        let capacity = table_capacity(ids.len());
        let bits = capacity.trailing_zeros();
        let mut keys = vec![EMPTY; capacity];
        let mut values = vec![0u64; capacity];
        let mut stats = IdMapStats {
            total_ids: ids.len() as u64,
            kernel_launches: 3,
            device_syncs: 2,
            ..Default::default()
        };
        for &id in ids {
            let mut slot = fib_hash(id, bits);
            loop {
                if keys[slot] == EMPTY {
                    keys[slot] = id;
                    break;
                }
                if keys[slot] == id {
                    break;
                }
                slot = (slot + 1) & (capacity - 1);
                stats.probes += 1;
            }
        }
        let mut unique = Vec::new();
        let mut seen = vec![false; capacity];
        for &id in ids {
            let mut slot = fib_hash(id, bits);
            while keys[slot] != id {
                slot = (slot + 1) & (capacity - 1);
                stats.probes += 1;
            }
            if !seen[slot] {
                seen[slot] = true;
                values[slot] = unique.len() as u64;
                unique.push(id);
                stats.sync_serializations += 1;
            }
        }
        stats.unique_ids = unique.len() as u64;
        let mut locals = Vec::with_capacity(ids.len());
        for &id in ids {
            let mut slot = fib_hash(id, bits);
            while keys[slot] != id {
                slot = (slot + 1) & (capacity - 1);
                stats.probes += 1;
            }
            locals.push(values[slot]);
            stats.lookups += 1;
        }
        IdMapOutput {
            unique,
            locals,
            stats,
        }
    }

    /// The literal two-kernel Fused-Map replay (fused insert, then a
    /// transform walk), kept as the reference for [`FusedIdMap::map`].
    fn reference_two_pass(ids: &[u64], capacity_factor: f64) -> IdMapOutput {
        let capacity = table_capacity_with_factor(ids.len(), capacity_factor);
        let bits = capacity.trailing_zeros();
        let mask = capacity - 1;
        let mut keys = vec![EMPTY; capacity];
        let mut values = vec![0u64; capacity];
        let mut unique = Vec::new();
        let mut stats = IdMapStats {
            total_ids: ids.len() as u64,
            kernel_launches: 2,
            device_syncs: 1,
            ..Default::default()
        };
        for &id in ids {
            let mut slot = fib_hash(id, bits);
            loop {
                if keys[slot] == EMPTY {
                    keys[slot] = id;
                    values[slot] = unique.len() as u64 + 1;
                    unique.push(id);
                    break;
                }
                if keys[slot] == id {
                    break;
                }
                slot = (slot + 1) & mask;
                stats.probes += 1;
            }
        }
        stats.unique_ids = unique.len() as u64;
        let mut locals = Vec::with_capacity(ids.len());
        for &id in ids {
            let mut slot = fib_hash(id, bits);
            while keys[slot] != id {
                slot = (slot + 1) & mask;
                stats.probes += 1;
            }
            locals.push(values[slot] - 1);
            stats.lookups += 1;
        }
        IdMapOutput {
            unique,
            locals,
            stats,
        }
    }

    /// Checks both maps against their references on one stream.
    fn assert_maps_match_references(ids: &[u64], capacity_factor: f64) {
        assert_eq!(BaselineIdMap::new().map(ids), reference_three_pass(ids));
        assert_eq!(
            FusedIdMap::with_capacity_factor(capacity_factor).map(ids),
            reference_two_pass(ids, capacity_factor),
            "capacity factor {capacity_factor}"
        );
    }

    /// The `i`-th of the IDs whose hash product has its top 32 bits set,
    /// so they land in the last slot of every table up to 2^32 slots.
    fn last_slot_id(i: u64) -> u64 {
        // Inverse of the odd multiplier mod 2^64 by Newton's iteration
        // (each step doubles the correct low bits, starting from 3).
        let mut inverse = FIB_MULTIPLIER;
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FIB_MULTIPLIER.wrapping_mul(inverse)));
        }
        (u64::MAX - i).wrapping_mul(inverse)
    }

    proptest! {
        /// Streams from all-distinct to heavily duplicated, over table
        /// headroom from 1.05 to 4.0, with up to eight IDs spliced in that
        /// hash to the last slot, so that chains wrap past the table end:
        /// both one-pass maps give the reference `unique`, `locals` and
        /// every `IdMapStats` field.
        #[test]
        fn one_pass_maps_match_multi_pass_references(
            stream in prop::collection::vec(0u64..u64::MAX, 0..3000),
            dup_shift in 0u32..12,
            factor_hundredths in 105u64..401,
            last_slot_ids in 0usize..9,
        ) {
            // Shifting the pool size down by `dup_shift` raises the number
            // of repeats of each ID; the multiply keeps IDs spread over
            // the whole hash range.
            let pool = (stream.len() as u64 >> dup_shift).max(1);
            let mut ids: Vec<u64> = stream
                .iter()
                .map(|&x| match dup_shift {
                    0 => x,
                    _ => (x % pool).wrapping_mul(0x2545_F491_4F6C_DD1D) % EMPTY,
                })
                .collect();
            for (k, &x) in stream.iter().enumerate().take(last_slot_ids) {
                let at = (x % ids.len() as u64) as usize;
                ids[at] = last_slot_id(k as u64);
            }
            assert_maps_match_references(&ids, factor_hundredths as f64 / 100.0);
        }
    }

    #[test]
    fn probe_chains_wrapping_the_table_end_match_references() {
        // Every chain after the first wraps to slot 0 and on, in the
        // baseline's table and in the Fused-Map table at each factor.
        for (len, factor) in [(3usize, 2.0), (6, 1.05), (5, 4.0)] {
            let ids: Vec<u64> = (0..len).map(|i| last_slot_id(i as u64 % 3)).collect();
            for capacity in [table_capacity(len), table_capacity_with_factor(len, factor)] {
                assert_eq!(fib_hash(ids[0], capacity.trailing_zeros()), capacity - 1);
                let (_, _, probes) = map_once(&ids, capacity);
                assert!(probes > 0, "stream {ids:?} must probe past the table end");
            }
            assert_maps_match_references(&ids, factor);
        }
    }

    #[test]
    fn capacity_is_power_of_two_and_roomy() {
        for n in [1usize, 2, 3, 100, 1000, 4096] {
            let c = table_capacity(n);
            assert!(c.is_power_of_two());
            assert!(c >= 2 * n);
            assert!(c < 8 * n.max(1));
        }
    }

    #[test]
    fn fib_hash_in_range() {
        for id in [0u64, 1, 42, u64::MAX, 0xdeadbeef] {
            let h = fib_hash(id, 10);
            assert!(h < 1024);
        }
    }

    #[test]
    fn verify_accepts_identity_mapping() {
        let out = IdMapOutput {
            unique: vec![7, 9],
            locals: vec![0, 1, 0],
            stats: IdMapStats::default(),
        };
        assert!(out.verify(&[7, 9, 7]).is_ok());
    }

    #[test]
    fn verify_rejects_wrong_mapping() {
        let out = IdMapOutput {
            unique: vec![7, 9],
            locals: vec![1, 1, 0],
            stats: IdMapStats::default(),
        };
        assert!(out.verify(&[7, 9, 7]).is_err());
    }

    #[test]
    fn verify_rejects_duplicate_unique() {
        let out = IdMapOutput {
            unique: vec![7, 7],
            locals: vec![0, 1],
            stats: IdMapStats::default(),
        };
        assert!(out.verify(&[7, 7]).is_err());
    }
}
