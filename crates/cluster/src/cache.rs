//! Per-worker coverage cache.
//!
//! A byte-bounded LRU of `(fragment, term, radius) → Arc<BitSet>` holding
//! the coverages computed by a worker's engines. Soundness rests on the
//! engines being immutable: `R(term, r) ∩ P` is a pure function of the
//! engine, so a cached value can be replayed for any later query — Lemma 1
//! combining and Theorem 3's zero inter-worker bytes are untouched, only
//! the per-slot Dijkstra is skipped. The cache lives inside the worker
//! thread and dies with it, so a respawned worker always starts cold.
//!
//! Keys carry the fragment id because a worker may host several fragments
//! (and a §5.5 bi-level pair serves one fragment from two engines — both
//! levels are exact for any radius they admit, so the level is *not* part
//! of the key).
//!
//! Under batched dispatch a per-batch shared result map sits *above* this
//! LRU (`worker::BatchStore`): only the first query of a batch to reference
//! a slot reaches the LRU, so these counters stay exact — intra-batch
//! re-references are reported separately as `WireCost::batch_shared`.
//!
//! Recency is one intrusive doubly-linked list over an arena (O(1) evict,
//! refresh, and insert), not a timestamp scan: every touch moves exactly
//! one entry to the MRU end, so list order *is* timestamp order and the
//! eviction order is that of the original linear-scan implementation
//! (`tests::recency_list_matches_linear_scan_model`). There is one
//! eviction policy; the lookup-count *heat admission* that once sat beside
//! it was removed on the benchmark's evidence (DESIGN.md §6i).

use std::collections::HashMap;
use std::sync::Arc;

use disks_core::bitset::BitSet;
use disks_core::Term;

/// Hit/miss/eviction/bypass counters, cumulative over a cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Coverages refused at insert because their content was below the
    /// per-entry bookkeeping overhead (caching them would spend more bytes
    /// on keys and metadata than on coverage).
    pub bypassed: u64,
}

impl CacheCounters {
    /// Hits over admissible lookups, or 0 when the cache saw none. A
    /// bypassed coverage misses on every lookup by design — the cache
    /// *declined* that traffic rather than failing on it — so each bypass
    /// cancels its miss instead of diluting the rate.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses.saturating_sub(self.bypassed);
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }

    /// Component-wise difference against an earlier snapshot.
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            bypassed: self.bypassed - earlier.bypassed,
        }
    }

    /// Component-wise accumulation.
    pub fn absorb(&mut self, other: &CacheCounters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.bypassed += other.bypassed;
    }
}

type Key = (u32, Term, u64);

/// Sentinel for "no neighbour" in the intrusive list.
const NONE: u32 = u32::MAX;

struct Node {
    key: Key,
    coverage: Arc<BitSet>,
    bytes: usize,
    prev: u32,
    next: u32,
}

/// The recency order: `head` is the MRU end, `tail` the LRU end.
#[derive(Clone, Copy)]
struct RecencyList {
    head: u32,
    tail: u32,
}

impl RecencyList {
    const EMPTY: RecencyList = RecencyList { head: NONE, tail: NONE };
}

fn unlink(slots: &mut [Node], list: &mut RecencyList, i: u32) {
    let (p, n) = (slots[i as usize].prev, slots[i as usize].next);
    if p == NONE {
        list.head = n;
    } else {
        slots[p as usize].next = n;
    }
    if n == NONE {
        list.tail = p;
    } else {
        slots[n as usize].prev = p;
    }
    slots[i as usize].prev = NONE;
    slots[i as usize].next = NONE;
}

fn push_front(slots: &mut [Node], list: &mut RecencyList, i: u32) {
    slots[i as usize].prev = NONE;
    slots[i as usize].next = list.head;
    if list.head != NONE {
        slots[list.head as usize].prev = i;
    }
    list.head = i;
    if list.tail == NONE {
        list.tail = i;
    }
}

/// Fixed per-entry overhead charged on top of the bitset payload (key,
/// hash-map slot, and entry metadata — an estimate, not an exact count).
const ENTRY_OVERHEAD: usize = 64;

/// A byte-bounded LRU of coverage bitsets. A budget of 0 disables the
/// cache entirely: every lookup misses without counting, inserts are
/// dropped, so a disabled cache is bit-for-bit invisible.
pub struct CoverageCache {
    budget_bytes: usize,
    bytes: usize,
    entries: HashMap<Key, u32>,
    slots: Vec<Node>,
    free: Vec<u32>,
    recency: RecencyList,
    counters: CacheCounters,
}

impl CoverageCache {
    /// Create an LRU cache bounded to `budget_bytes` of bitset payload
    /// plus per-entry overhead. `0` disables caching.
    pub fn new(budget_bytes: usize) -> Self {
        CoverageCache {
            budget_bytes,
            bytes: 0,
            entries: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            recency: RecencyList::EMPTY,
            counters: CacheCounters::default(),
        }
    }

    /// Whether the cache is a disabled no-op.
    pub fn is_disabled(&self) -> bool {
        self.budget_bytes == 0
    }

    /// Lifetime counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Current resident bytes (payload + overhead).
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of cached coverages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the coverage for `(fragment, term, radius)`, refreshing its
    /// recency on a hit.
    pub fn get(&mut self, fragment: u32, term: Term, radius: u64) -> Option<Arc<BitSet>> {
        if self.is_disabled() {
            return None;
        }
        let key = (fragment, term, radius);
        match self.entries.get(&key).copied() {
            Some(i) => {
                unlink(&mut self.slots, &mut self.recency, i);
                push_front(&mut self.slots, &mut self.recency, i);
                self.counters.hits += 1;
                Some(self.slots[i as usize].coverage.clone())
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Insert a coverage, evicting least-recently-used entries until it
    /// fits. A coverage larger than the whole budget is not cached, and
    /// neither is one whose *content* is below the per-entry bookkeeping
    /// overhead: a dense bitset's resident size is fragment-constant, so
    /// the meaningful size of a coverage is its content at 4 bytes per
    /// covered node (its wire size as a result set) — an entry below
    /// `ENTRY_OVERHEAD` (64 bytes) on that measure spends more budget on
    /// keys and metadata than on coverage, polluting the LRU. Such inserts
    /// are counted as `bypassed` instead.
    pub fn insert(&mut self, fragment: u32, term: Term, radius: u64, coverage: Arc<BitSet>) {
        if self.is_disabled() {
            return;
        }
        if coverage.count() * 4 < ENTRY_OVERHEAD {
            self.counters.bypassed += 1;
            return;
        }
        let bytes = coverage.memory_bytes() + ENTRY_OVERHEAD;
        if bytes > self.budget_bytes {
            return;
        }
        let key = (fragment, term, radius);
        if let Some(i) = self.entries.remove(&key) {
            unlink(&mut self.slots, &mut self.recency, i);
            self.bytes -= self.slots[i as usize].bytes;
            self.free.push(i);
        }
        while self.bytes + bytes > self.budget_bytes {
            self.evict_lru();
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Node { key, coverage, bytes, prev: NONE, next: NONE };
                i
            }
            None => {
                let i = self.slots.len() as u32;
                self.slots.push(Node { key, coverage, bytes, prev: NONE, next: NONE });
                i
            }
        };
        push_front(&mut self.slots, &mut self.recency, i);
        self.bytes += bytes;
        self.entries.insert(key, i);
    }

    /// Evict the LRU entry. O(1): the order is an intrusive list.
    fn evict_lru(&mut self) {
        let victim = self.recency.tail;
        assert!(victim != NONE, "evict_lru called on empty cache with bytes outstanding");
        unlink(&mut self.slots, &mut self.recency, victim);
        let node = &self.slots[victim as usize];
        self.bytes -= node.bytes;
        self.entries.remove(&node.key).expect("victim present");
        self.free.push(victim);
        self.counters.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disks_roadnet::KeywordId;

    fn cov(cap: usize, elems: &[usize]) -> Arc<BitSet> {
        let mut s = BitSet::new(cap);
        for &e in elems {
            s.insert(e);
        }
        Arc::new(s)
    }

    /// A coverage fat enough (16 nodes = 64 content bytes) to clear the
    /// bypass threshold, starting at `start`.
    fn fat(cap: usize, start: usize) -> Arc<BitSet> {
        let mut s = BitSet::new(cap);
        for e in start..start + 16 {
            s.insert(e);
        }
        Arc::new(s)
    }

    fn kw(k: u32) -> Term {
        Term::Keyword(KeywordId(k))
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let mut c = CoverageCache::new(1 << 20);
        assert!(c.get(0, kw(1), 5).is_none());
        c.insert(0, kw(1), 5, fat(64, 2));
        let hit = c.get(0, kw(1), 5).expect("hit");
        assert_eq!(hit.iter().collect::<Vec<_>>(), (2..18).collect::<Vec<_>>());
        // Distinct fragment, term, or radius are distinct keys.
        assert!(c.get(1, kw(1), 5).is_none());
        assert!(c.get(0, kw(2), 5).is_none());
        assert!(c.get(0, kw(1), 6).is_none());
        let counters = c.counters();
        assert_eq!((counters.hits, counters.misses, counters.evictions), (1, 4, 0));
        assert!((counters.hit_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Each 64-capacity bitset costs 40 (struct+1 word) + 64 overhead =
        // 104 bytes; a 250-byte budget holds two.
        let one = fat(64, 0).memory_bytes() + ENTRY_OVERHEAD;
        let mut c = CoverageCache::new(2 * one + one / 2);
        c.insert(0, kw(1), 0, fat(64, 1));
        c.insert(0, kw(2), 0, fat(64, 2));
        assert_eq!(c.len(), 2);
        let _ = c.get(0, kw(1), 0); // refresh #1 → #2 becomes LRU
        c.insert(0, kw(3), 0, fat(64, 3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().evictions, 1);
        assert!(c.get(0, kw(2), 0).is_none(), "LRU entry evicted");
        assert!(c.get(0, kw(1), 0).is_some());
        assert!(c.get(0, kw(3), 0).is_some());
        assert!(c.resident_bytes() <= 2 * one + one / 2);
    }

    #[test]
    fn oversized_entry_not_cached() {
        let mut c = CoverageCache::new(16);
        c.insert(0, kw(1), 0, fat(10_000, 1));
        assert!(c.is_empty());
        assert_eq!(c.resident_bytes(), 0);
        assert_eq!(c.counters().bypassed, 0, "oversized is not the bypass path");
    }

    #[test]
    fn undersized_content_bypassed_not_cached() {
        let mut c = CoverageCache::new(1 << 20);
        // 15 covered nodes = 60 content bytes < 64 overhead → bypass.
        c.insert(0, kw(1), 0, cov(64, &(0..15).collect::<Vec<_>>()));
        assert!(c.is_empty());
        assert_eq!(c.counters().bypassed, 1);
        // 16 nodes = 64 content bytes clears the threshold exactly.
        c.insert(0, kw(2), 0, fat(64, 0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.counters().bypassed, 1);
        assert!(c.get(0, kw(2), 0).is_some());
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = CoverageCache::new(1 << 20);
        c.insert(0, kw(1), 0, fat(64, 1));
        let before = c.resident_bytes();
        c.insert(0, kw(1), 0, fat(64, 2));
        assert_eq!(c.resident_bytes(), before);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.get(0, kw(1), 0).unwrap().iter().collect::<Vec<_>>(),
            (2..18).collect::<Vec<_>>()
        );
    }

    #[test]
    fn zero_budget_disables_everything() {
        let mut c = CoverageCache::new(0);
        assert!(c.is_disabled());
        c.insert(0, kw(1), 0, cov(64, &[1]));
        assert!(c.get(0, kw(1), 0).is_none());
        assert!(c.is_empty());
        assert_eq!(c.counters(), CacheCounters::default(), "disabled cache counts nothing");
    }

    #[test]
    fn counters_since_and_absorb() {
        let a = CacheCounters { hits: 5, misses: 3, evictions: 1, bypassed: 4 };
        let b = CacheCounters { hits: 2, misses: 1, evictions: 0, bypassed: 1 };
        assert_eq!(a.since(&b), CacheCounters { hits: 3, misses: 2, evictions: 1, bypassed: 3 });
        let mut acc = b;
        acc.absorb(&a);
        assert_eq!(acc, CacheCounters { hits: 7, misses: 4, evictions: 1, bypassed: 5 });
    }

    /// Reference model of the historical linear-scan implementation:
    /// timestamped entries, eviction by minimum `last_used`. Ticks are
    /// unique so the scan never ties — the recency list must reproduce its
    /// eviction order byte-for-byte.
    struct ScanModel {
        budget: usize,
        bytes: usize,
        tick: u64,
        entries: HashMap<Key, (Arc<BitSet>, usize, u64)>,
        counters: CacheCounters,
    }

    impl ScanModel {
        fn get(&mut self, key: Key) -> Option<Arc<BitSet>> {
            self.tick += 1;
            match self.entries.get_mut(&key) {
                Some(e) => {
                    e.2 = self.tick;
                    self.counters.hits += 1;
                    Some(e.0.clone())
                }
                None => {
                    self.counters.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: Key, coverage: Arc<BitSet>) {
            if coverage.count() * 4 < ENTRY_OVERHEAD {
                self.counters.bypassed += 1;
                return;
            }
            let bytes = coverage.memory_bytes() + ENTRY_OVERHEAD;
            if bytes > self.budget {
                return;
            }
            if let Some(old) = self.entries.remove(&key) {
                self.bytes -= old.1;
            }
            while self.bytes + bytes > self.budget {
                let victim = *self.entries.iter().min_by_key(|(_, e)| e.2).unwrap().0;
                let e = self.entries.remove(&victim).unwrap();
                self.bytes -= e.1;
                self.counters.evictions += 1;
            }
            self.tick += 1;
            self.bytes += bytes;
            self.entries.insert(key, (coverage, bytes, self.tick));
        }
    }

    #[test]
    fn recency_list_matches_linear_scan_model() {
        let one = fat(64, 0).memory_bytes() + ENTRY_OVERHEAD;
        let budget = 3 * one + one / 2;
        let mut c = CoverageCache::new(budget);
        let mut m = ScanModel {
            budget,
            bytes: 0,
            tick: 0,
            entries: HashMap::new(),
            counters: CacheCounters::default(),
        };
        // Deterministic pseudo-random op stream over 8 keys: lookups and
        // inserts interleaved, with enough distinct keys to force steady
        // eviction churn at a 3-entry budget.
        let mut state = 0x9E37_79B9_u64;
        for _ in 0..4000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = ((state >> 33) % 8) as u32;
            let key = (0u32, kw(k), 0u64);
            if (state >> 7) & 1 == 0 {
                assert_eq!(c.get(key.0, key.1, key.2).is_some(), m.get(key).is_some());
            } else {
                c.insert(key.0, key.1, key.2, fat(64, k as usize));
                m.insert(key, fat(64, k as usize));
            }
            assert_eq!(c.counters(), m.counters);
            assert_eq!(c.resident_bytes(), m.bytes);
            assert_eq!(c.len(), m.entries.len());
        }
        assert!(c.counters().evictions > 100, "stream must exercise eviction");
        for k in 0..8u32 {
            assert_eq!(c.get(0, kw(k), 0).is_some(), m.get((0, kw(k), 0)).is_some());
        }
    }
}
