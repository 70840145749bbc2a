//! Set-associative LRU cache simulator.
//!
//! Used to measure the L1/L2 hit rates of the aggregation phase. The paper
//! reports (Table 2) that irregular neighbour accesses achieve only ~4 % L1
//! and ~20 % L2 hit rates on real hardware; this simulator reproduces those
//! numbers from the actual access streams of sampled subgraphs.

/// Geometry of a simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A cache with the given capacity, 128-byte lines, 8 ways.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            line_bytes: 128,
            ways: 8,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero capacity, line size, or
    /// ways, or capacity smaller than one way of lines).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes > 0 && self.ways > 0, "degenerate cache");
        let lines = (self.capacity_bytes / self.line_bytes) as usize;
        let sets = lines / self.ways;
        assert!(sets > 0, "cache too small for its associativity");
        sets
    }
}

/// Running hit/miss counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero when no accesses occurred.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Tag of an empty way. A real tag is `line / num_sets`, which can only
/// reach `u64::MAX` for the last byte of the address space in a one-set
/// cache with 1-byte lines.
const EMPTY: u64 = u64::MAX;

/// A set-associative cache with true-LRU replacement.
///
/// Each set is a ring of `ways` tags in LRU order: the least-recently-used
/// way sits at the set's `head`, the most-recently-used one just before
/// it, and empty ways (holding a `u64::MAX` sentinel) sit at the LRU end.
/// A miss overwrites the head and advances it, so it costs no shifting; a
/// hit rotates the ways between the hit slot and the MRU slot down by one.
///
/// # Example
///
/// ```
/// use fastgl_gpusim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { capacity_bytes: 1024, line_bytes: 64, ways: 2 });
/// assert!(!c.access(0));   // cold miss
/// assert!(c.access(32));   // same line: hit
/// assert_eq!(c.stats().hit_rate(), 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    num_sets: usize,
    /// Set `s` is the ring `tags[s * ways..(s + 1) * ways]`.
    tags: Vec<u64>,
    /// `head[s]` is the ring index of set `s`'s least-recently-used way.
    head: Vec<u32>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`CacheConfig::num_sets`]).
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(u32::try_from(config.ways).is_ok(), "too many ways");
        Self {
            config,
            num_sets,
            tags: vec![EMPTY; num_sets * config.ways],
            head: vec![0; num_sets],
            stats: CacheStats::default(),
        }
    }

    /// Accesses one byte address; returns `true` on hit. Misses insert the
    /// line, evicting the least-recently-used line of the set if full.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes;
        let sets = self.num_sets as u64;
        self.access_set((line % sets) as usize, line / sets)
    }

    /// Accesses the line with `tag` in set `set` (the line number is
    /// `tag * num_sets + set`); returns `true` on hit.
    #[inline]
    pub(crate) fn access_set(&mut self, set: usize, tag: u64) -> bool {
        debug_assert!(tag != EMPTY, "tag collides with the empty-way marker");
        let ways = self.config.ways;
        let ring = &mut self.tags[set * ways..(set + 1) * ways];
        // Compare every way without early exit so the search vectorises.
        let hit = ring.iter().fold(false, |found, &t| found | (t == tag));
        let head = self.head[set] as usize;
        if hit {
            let mru = if head == 0 { ways - 1 } else { head - 1 };
            let mut i = ring.iter().position(|&t| t == tag).unwrap_or(mru);
            while i != mru {
                let next = if i + 1 == ways { 0 } else { i + 1 };
                ring[i] = ring[next];
                i = next;
            }
            ring[mru] = tag;
            self.stats.hits += 1;
        } else {
            ring[head] = tag;
            let next = head + 1;
            self.head[set] = if next == ways { 0 } else { next as u32 };
            self.stats.misses += 1;
        }
        hit
    }

    /// Accesses a contiguous byte range, one access per touched line.
    /// Returns the number of lines that hit.
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr / self.config.line_bytes;
        let last = (addr + bytes - 1) / self.config.line_bytes;
        let mut hits = 0;
        for line in first..=last {
            if self.access(line * self.config.line_bytes) {
                hits += 1;
            }
        }
        hits
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Empties the cache and zeroes the counters.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.head.fill(0);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> Cache {
        // 4 lines of 64 bytes, 2 ways => 2 sets.
        Cache::new(CacheConfig {
            capacity_bytes: 256,
            line_bytes: 64,
            ways: 2,
        })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (line % 2 == 0).
        c.access(0); // miss, set0 = [0]
        c.access(128); // miss, set0 = [0, 2]
        c.access(0); // hit,  set0 = [2, 0]
        c.access(256); // miss, evicts line 2, set0 = [0, 4]
        assert!(c.access(0), "line 0 should survive (was MRU)");
        assert!(!c.access(128), "line 2 was LRU and evicted");
    }

    #[test]
    fn capacity_working_set_all_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 8192,
            line_bytes: 64,
            ways: 4,
        });
        for addr in (0..8192).step_by(64) {
            c.access(addr);
        }
        c.reset();
        // reset clears contents too: warm again then measure.
        for addr in (0..8192).step_by(64) {
            c.access(addr);
        }
        let before = c.stats();
        for addr in (0..8192).step_by(64) {
            assert!(c.access(addr));
        }
        let after = c.stats();
        assert_eq!(after.hits - before.hits, 128);
    }

    #[test]
    fn streaming_over_capacity_never_hits() {
        let mut c = tiny();
        for addr in (0..64 * 1024).step_by(64) {
            c.access(addr);
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn access_range_counts_lines() {
        let mut c = tiny();
        let hits = c.access_range(0, 200); // lines 0..=3 -> 4 accesses
        assert_eq!(hits, 0);
        assert_eq!(c.stats().accesses(), 4);
        let hits = c.access_range(0, 64);
        assert_eq!(hits, 1);
        assert_eq!(c.access_range(0, 0), 0);
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        let r = c.stats().hit_rate();
        assert!(r > 0.0 && r < 1.0);
    }

    #[test]
    #[should_panic(expected = "cache too small")]
    fn degenerate_geometry_rejected() {
        let _ = Cache::new(CacheConfig {
            capacity_bytes: 64,
            line_bytes: 64,
            ways: 2,
        });
    }

    #[test]
    fn config_accessors() {
        let c = tiny();
        assert_eq!(c.config().ways, 2);
        assert_eq!(c.config().num_sets(), 2);
    }

    /// The straightforward true-LRU cache: each set a `Vec` of tags,
    /// most-recently-used last. [`Cache`] must agree with it exactly.
    struct ReferenceLru {
        line_bytes: u64,
        ways: usize,
        sets: Vec<Vec<u64>>,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(config: CacheConfig) -> Self {
            Self {
                line_bytes: config.line_bytes,
                ways: config.ways,
                sets: vec![Vec::with_capacity(config.ways); config.num_sets()],
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let line = addr / self.line_bytes;
            let num_sets = self.sets.len() as u64;
            let set = &mut self.sets[(line % num_sets) as usize];
            let tag = line / num_sets;
            if let Some(pos) = set.iter().position(|&t| t == tag) {
                let t = set.remove(pos);
                set.push(t);
                self.stats.hits += 1;
                true
            } else {
                if set.len() == self.ways {
                    set.remove(0);
                }
                set.push(tag);
                self.stats.misses += 1;
                false
            }
        }
    }

    proptest! {
        /// Random streams over small geometries, with working sets near
        /// capacity so hits land at every LRU position, give the same
        /// hit/miss on every access as the reference LRU.
        #[test]
        fn ring_lru_matches_reference(
            geometry in (1u64..9, 1usize..17, 0u64..2),
            stream in prop::collection::vec(0u64..1_000_000, 1..600),
            resets in 0usize..600,
        ) {
            let (sets, ways, line_shift) = geometry;
            let line_bytes = 32 << line_shift;
            let config = CacheConfig {
                capacity_bytes: sets * ways as u64 * line_bytes,
                line_bytes,
                ways,
            };
            let mut cache = Cache::new(config);
            let mut reference = ReferenceLru::new(config);
            // Draw lines from a range a little larger than the capacity.
            let lines = (sets * ways as u64 * 5).div_ceil(4);
            for (i, &x) in stream.iter().enumerate() {
                if i == resets {
                    cache.reset();
                    reference = ReferenceLru::new(config);
                }
                let addr = (x % lines) * line_bytes + x % line_bytes;
                prop_assert_eq!(
                    cache.access(addr),
                    reference.access(addr),
                    "access {} (addr {}) in {:?}",
                    i,
                    addr,
                    config
                );
            }
            prop_assert_eq!(cache.stats(), reference.stats);
        }
    }
}
