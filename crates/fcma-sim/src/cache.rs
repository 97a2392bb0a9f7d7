//! Set-associative cache simulator.
//!
//! A line-granularity LRU cache model used to replay the access patterns
//! of FCMA's kernels and measure the L2 miss counts the paper reports via
//! vTune (Tables 1, 6, 7). The model is deliberately simple — physical
//! addresses, LRU per set, no prefetcher — because the quantities the
//! paper reasons about (compulsory streaming misses vs. blocked reuse)
//! are first-order effects a basic model captures.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (64 on both the Phi and the Xeon).
    pub line_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    /// Panics if the geometry is inconsistent (capacity not divisible
    /// into `associativity` ways of whole lines).
    pub(crate) fn n_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(self.associativity > 0, "associativity must be positive");
        let lines = self.size_bytes / self.line_bytes;
        assert!(
            lines.is_multiple_of(self.associativity) && lines > 0,
            "cache geometry inconsistent: {} lines, {} ways",
            lines,
            self.associativity
        );
        lines / self.associativity
    }
}

/// Access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
// audit: allow(deadpub) — part of a referenced public signature; demotion trips private_interfaces
pub struct CacheStats {
    /// Line accesses that hit.
    pub hits: u64,
    /// Line accesses that missed (including compulsory).
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; zero when no accesses occurred.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A set-associative LRU cache.
#[derive(Debug, Clone)]
pub struct CacheSim {
    config: CacheConfig,
    n_sets: usize,
    /// `sets[s]` holds up to `associativity` tags, most recently used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl CacheSim {
    /// Construct an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        let n_sets = config.n_sets();
        CacheSim { config, n_sets, sets: vec![Vec::new(); n_sets], stats: CacheStats::default() }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Touch the line containing byte address `addr`; returns `true` on hit.
    // audit: allow(panicpath) — set_idx is line % n_sets, always < n_sets
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set_idx = (line % self.n_sets as u64) as usize;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == line) {
            let t = set.remove(pos);
            set.push(t);
            self.stats.hits += 1;
            true
        } else {
            if set.len() >= self.config.associativity {
                set.remove(0); // evict LRU
            }
            set.push(line);
            self.stats.misses += 1;
            false
        }
    }

    /// Touch every line overlapping `[addr, addr + bytes)`.
    pub(crate) fn access_range(&mut self, addr: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let lb = self.config.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + bytes - 1) / lb;
        for line in first..=last {
            self.access(line * lb);
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheConfig {
        // 4 sets x 2 ways x 64B = 512B
        CacheConfig { size_bytes: 512, line_bytes: 64, associativity: 2 }
    }

    #[test]
    fn geometry() {
        assert_eq!(small().n_sets(), 4);
        let phi = CacheConfig { size_bytes: 512 * 1024, line_bytes: 64, associativity: 8 };
        assert_eq!(phi.n_sets(), 1024);
    }

    #[test]
    #[should_panic(expected = "geometry inconsistent")]
    fn rejects_bad_geometry() {
        let _ = CacheConfig { size_bytes: 100, line_bytes: 64, associativity: 3 }.n_sets();
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = CacheSim::new(small());
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = CacheSim::new(small());
        // Set index = (addr/64) % 4. Lines 0, 4, 8 all map to set 0.
        let line = |i: u64| i * 4 * 64;
        assert!(!c.access(line(0)));
        assert!(!c.access(line(1)));
        assert!(!c.access(line(2))); // evicts line 0
        assert!(!c.access(line(0))); // miss again
        assert!(c.access(line(2))); // still resident
    }

    #[test]
    fn lru_order_updated_on_hit() {
        let mut c = CacheSim::new(small());
        let line = |i: u64| i * 4 * 64;
        c.access(line(0));
        c.access(line(1));
        c.access(line(0)); // 0 becomes MRU
        c.access(line(2)); // evicts 1, not 0
        assert!(c.access(line(0)));
        assert!(!c.access(line(1)));
    }

    #[test]
    fn access_range_touches_every_line() {
        let mut c = CacheSim::new(small());
        c.access_range(10, 120); // spans lines 0 and 1 (bytes 10..130 -> lines 0,1,2)
        assert_eq!(c.stats().accesses(), 3);
        c.access_range(0, 0);
        assert_eq!(c.stats().accesses(), 3);
    }

    #[test]
    fn streaming_larger_than_cache_always_misses() {
        let mut c = CacheSim::new(small());
        // Stream 4 KB twice: no reuse possible in a 512B cache.
        for pass in 0..2 {
            let _ = pass;
            for addr in (0..4096u64).step_by(64) {
                c.access(addr);
            }
        }
        assert_eq!(c.stats().misses, 128);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn working_set_within_cache_fully_reuses() {
        let mut c = CacheSim::new(small());
        // 512B working set = exactly capacity; second pass must fully hit
        // (direct mapping here: 8 lines over 4 sets x 2 ways, 2 per set).
        for pass in 0..3 {
            let _ = pass;
            for addr in (0..512u64).step_by(64) {
                c.access(addr);
            }
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 16);
    }

    #[test]
    fn miss_ratio() {
        let mut c = CacheSim::new(small());
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
