//! LRU feature cache keyed on quantized inputs, segmented per generator.
//!
//! A feature row is a pure function of (feature generator, data point)
//! (rows are generated with
//! [`pvqnn::FeatureGenerator::generate_rows_standalone`] semantics, so
//! not even the stochastic backends depend on batch position), which
//! makes the quantum stage — by far the expensive part of serving — a
//! perfect caching target: one `S(x)|0⟩` simulation per *unique*
//! (generator, data point) pair, ever, until the entry ages out.
//!
//! Entries are **segmented by the generator fingerprint** that produced
//! them: lookups and inserts carry the fingerprint, and rows from
//! different generators coexist in one shared LRU arena. Deploying a new
//! model therefore never flushes the previous model's warm rows — a
//! rollback (or a canary serving two versions) returns to a warm cache,
//! and a hot-swap can never serve another generator's rows because keys
//! from different segments never collide. Capacity pressure is global:
//! the least-recently-used row of *any* segment is the eviction victim,
//! so dead segments age out naturally without explicit invalidation.
//!
//! Keys quantize each input coordinate to a fixed grid
//! (`round(x · quant_scale)`, grid step `1 / quant_scale`). The contract,
//! per coordinate and measured on the scaled values `x · quant_scale`:
//!
//! * identical points share a key;
//! * two points that share a key differ by less than one grid step;
//! * a coordinate one grid step or more apart always gives a different key;
//! * nearby points may still straddle a rounding boundary: 0.49 and 0.51
//!   steps are 0.02 steps apart yet get keys 0 and 1.
//!
//! So closeness alone never guarantees a shared row; the grid only bounds
//! how far apart two requests served the same features can be. Rounding
//! `x · quant_scale` itself moves that bound by under 1% of a step for
//! coordinates within [`crate::MAX_COORDINATE`] at the default scale
//! (1e8), which is far below any physically meaningful angle difference.
//!
//! The LRU list is intrusive (index links into a slot arena), so `get`
//! and `insert` are O(1) plus hashing, with no per-operation allocation
//! beyond the key.

use std::collections::HashMap;

/// Sentinel for "no neighbour" in the intrusive list.
const NIL: usize = usize::MAX;

/// Quantizes a raw input onto the cache-key grid: each coordinate maps
/// to `round(v · quant_scale) as i64`. This is the *canonical* identity
/// of a data point throughout the serve layer: the cache keys on it.
pub fn quantize_key(x: &[f64], quant_scale: f64) -> Vec<i64> {
    x.iter()
        .map(|&v| (v * quant_scale).round() as i64)
        .collect()
}

/// A cache slot: segment tag + key + feature row + recency links.
#[derive(Debug)]
struct Slot {
    tag: u64,
    key: Vec<i64>,
    row: Vec<f64>,
    prev: usize,
    next: usize,
}

/// Hit/miss/eviction counters, snapshot via [`FeatureCache::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a fresh simulation.
    pub misses: u64,
    /// Entries displaced by capacity pressure.
    pub evictions: u64,
    /// Current entry count (all segments).
    pub len: usize,
}

impl CacheStats {
    /// Hits over lookups (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU map from (generator fingerprint, quantized input) to feature
/// rows. All segments share one slot arena and one global recency list.
#[derive(Debug)]
pub struct FeatureCache {
    capacity: usize,
    quant_scale: f64,
    /// Segment tag → (quantized key → slot index). The nested map keeps
    /// lookups allocation-free: the borrowed key probes only its own
    /// segment.
    map: HashMap<u64, HashMap<Vec<i64>, usize>>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot (NIL when empty).
    head: usize,
    /// Least recently used slot (NIL when empty) — the eviction victim.
    tail: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl FeatureCache {
    /// A cache holding at most `capacity` rows across all segments (0
    /// disables caching: every lookup misses and inserts are dropped),
    /// quantizing inputs at `quant_scale` buckets per unit.
    pub fn new(capacity: usize, quant_scale: f64) -> Self {
        assert!(quant_scale > 0.0, "quantization scale must be positive");
        FeatureCache {
            capacity,
            quant_scale,
            map: HashMap::new(),
            slots: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Drops every entry of every segment, keeping capacity,
    /// quantization, and counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Maximum entry count (shared across segments).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current entry count across all segments.
    pub fn len(&self) -> usize {
        self.map.values().map(HashMap::len).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache key for a raw input (see [`quantize_key`]).
    pub fn quantize(&self, x: &[f64]) -> Vec<i64> {
        quantize_key(x, self.quant_scale)
    }

    /// Looks up a quantized key in the `tag` segment, promoting it to
    /// most-recently-used on a hit. Counts the lookup either way.
    pub fn get(&mut self, tag: u64, key: &[i64]) -> Option<&[f64]> {
        match self.map.get(&tag).and_then(|seg| seg.get(key)).copied() {
            Some(slot) => {
                self.hits += 1;
                self.detach(slot);
                self.attach_front(slot);
                Some(&self.slots[slot].row)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a freshly computed row into the `tag` segment, evicting
    /// the globally least-recently-used entry (of whatever segment) if at
    /// capacity. Re-inserting an existing key refreshes its row and
    /// recency.
    pub fn insert(&mut self, tag: u64, key: Vec<i64>, row: Vec<f64>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&tag).and_then(|seg| seg.get(&key)) {
            self.slots[slot].row = row;
            self.detach(slot);
            self.attach_front(slot);
            return;
        }
        if self.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let vtag = self.slots[victim].tag;
            if let Some(seg) = self.map.get_mut(&vtag) {
                seg.remove(&self.slots[victim].key);
                if seg.is_empty() {
                    self.map.remove(&vtag);
                }
            }
            self.free.push(victim);
            self.evictions += 1;
        }
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Slot {
                    tag,
                    key: key.clone(),
                    row,
                    prev: NIL,
                    next: NIL,
                };
                i
            }
            None => {
                self.slots.push(Slot {
                    tag,
                    key: key.clone(),
                    row,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.entry(tag).or_default().insert(key, slot);
        self.attach_front(slot);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            len: self.len(),
        }
    }

    /// Unlinks `slot` from the recency list (no-op if not linked).
    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    /// Links `slot` in as most-recently-used.
    fn attach_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All single-segment behaviour below runs in segment `TAG`.
    const TAG: u64 = 7;

    fn key(v: i64) -> Vec<i64> {
        vec![v, v + 1]
    }

    #[test]
    fn hit_miss_and_promotion() {
        let mut c = FeatureCache::new(2, 1e8);
        assert!(c.get(TAG, &key(1)).is_none());
        c.insert(TAG, key(1), vec![1.0]);
        c.insert(TAG, key(2), vec![2.0]);
        assert_eq!(c.get(TAG, &key(1)).unwrap(), &[1.0]);
        // 1 was just promoted; inserting 3 must evict 2, not 1.
        c.insert(TAG, key(3), vec![3.0]);
        assert!(c.get(TAG, &key(2)).is_none());
        assert_eq!(c.get(TAG, &key(1)).unwrap(), &[1.0]);
        assert_eq!(c.get(TAG, &key(3)).unwrap(), &[3.0]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.len), (3, 2, 1, 2));
    }

    #[test]
    fn lru_order_under_churn() {
        let mut c = FeatureCache::new(3, 1e8);
        for i in 0..10 {
            c.insert(TAG, key(i), vec![i as f64]);
        }
        // Only the 3 most recent survive.
        for i in 0..7 {
            assert!(c.get(TAG, &key(i)).is_none(), "key {i} should be evicted");
        }
        for i in 7..10 {
            assert_eq!(c.get(TAG, &key(i)).unwrap(), &[i as f64]);
        }
        assert_eq!(c.stats().evictions, 7);
    }

    #[test]
    fn reinsert_refreshes_row_without_growth() {
        let mut c = FeatureCache::new(2, 1e8);
        c.insert(TAG, key(1), vec![1.0]);
        c.insert(TAG, key(1), vec![1.5]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(TAG, &key(1)).unwrap(), &[1.5]);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = FeatureCache::new(0, 1e8);
        c.insert(TAG, key(1), vec![1.0]);
        assert!(c.get(TAG, &key(1)).is_none());
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn quantization_merges_only_near_identical_inputs() {
        let c = FeatureCache::new(4, 100.0); // grid step 0.01
        assert_eq!(c.quantize(&[0.1234]), c.quantize(&[0.1236]));
        assert_ne!(c.quantize(&[0.12]), c.quantize(&[0.13]));
        // Nearness alone does not share a key: 0.02 grid steps apart, on
        // either side of the half-step boundary.
        assert_eq!(quantize_key(&[0.49e-8, 0.51e-8], 1e8), vec![0, 1]);
    }

    #[test]
    fn segments_isolate_generators_without_flushing() {
        // The same quantized key under two fingerprints is two distinct
        // entries; switching segments (a deploy) keeps both warm.
        let mut c = FeatureCache::new(4, 1.0);
        c.insert(7, vec![1], vec![1.0]);
        assert_eq!(c.get(7, &[1]).unwrap(), &[1.0]);
        // A different generator must not see segment 7's row…
        assert!(c.get(8, &[1]).is_none());
        c.insert(8, vec![1], vec![8.0]);
        assert_eq!(c.len(), 2);
        // …and rolling back to segment 7 finds it still warm.
        assert_eq!(c.get(7, &[1]).unwrap(), &[1.0]);
        assert_eq!(c.get(8, &[1]).unwrap(), &[8.0]);
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (3, 1));
    }

    #[test]
    fn eviction_is_global_across_segments() {
        // Capacity pressure evicts the globally least-recent entry, so a
        // dead segment ages out without explicit invalidation.
        let mut c = FeatureCache::new(2, 1.0);
        c.insert(1, vec![10], vec![1.0]);
        c.insert(2, vec![20], vec![2.0]);
        // Touch segment 1 so segment 2 holds the LRU entry.
        assert!(c.get(1, &[10]).is_some());
        c.insert(3, vec![30], vec![3.0]);
        assert!(c.get(1, &[10]).is_some());
        assert!(c.get(3, &[30]).is_some());
        assert!(c.get(2, &[20]).is_none(), "dead segment entry evicted");
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn hit_rate() {
        let mut c = FeatureCache::new(2, 1.0);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.insert(TAG, vec![0], vec![0.0]);
        let _ = c.get(TAG, &[0]);
        let _ = c.get(TAG, &[9]);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
