//! Memoization of casted index arrays.
//!
//! Evaluation loops, multi-epoch training, and — since the serving
//! subsystem — hot inference queries revisit identical index arrays (the
//! same validation batches every epoch; the same popular query's
//! candidate set thousands of times per second). Since Algorithm 2 is a
//! pure function of the index array, its output can be cached and the
//! casting cost paid once. The cache is keyed by a 64-bit FNV-1a hash of
//! the full `(src, dst, num_outputs)` content and verified by equality on
//! hit, so hash collisions cannot return a wrong casted array.

use std::collections::HashMap;

use crate::casted_index::CastedIndexArray;
use crate::casting::tensor_casting_into;
use tcast_embedding::{IndexArray, RadixScratch};

/// A bounded LRU memo table for casted index arrays.
///
/// Eviction is true least-recently-used: every hit refreshes the entry's
/// recency stamp, and a miss on a full cache evicts exactly the entry
/// whose last use is oldest — so a working set of hot entries (the serve
/// engine's repeated queries) survives an arbitrary stream of cold
/// entries passing through, which the old evict-everything policy did
/// not guarantee.
///
/// A miss on a full cache recycles the evicted entry: the new index array
/// is copied into the victim's buffers ([`IndexArray::refill`]) and cast
/// into its casted array in place. Once every entry has held an array
/// this large, misses allocate nothing either.
///
/// ```
/// use tcast_core::CastingCache;
/// use tcast_embedding::IndexArray;
///
/// let mut cache = CastingCache::new(16);
/// let index = IndexArray::from_samples(&[vec![1, 2, 4], vec![0, 2]]).unwrap();
/// let first = cache.get_or_cast(&index).clone();
/// let again = cache.get_or_cast(&index).clone();
/// assert_eq!(first, again);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.evictions(), 0);
/// ```
#[derive(Debug)]
pub struct CastingCache {
    capacity: usize,
    /// Content hash -> slot of the latest entry with that hash; entries
    /// sharing a hash chain through [`Entry::next`].
    heads: HashMap<u64, usize>,
    /// At most `capacity` entries, in slots that outlive their contents.
    entries: Vec<Entry>,
    scratch: RadixScratch,
    /// Monotonic use counter; each access stamps its entry, so the entry
    /// with the smallest stamp is the least recently used.
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct Entry {
    hash: u64,
    index: IndexArray,
    casted: CastedIndexArray,
    last_used: u64,
    /// The slot of the next entry with the same hash.
    next: Option<usize>,
}

impl CastingCache {
    /// Creates a cache holding at most `capacity` casted arrays.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            capacity,
            heads: HashMap::new(),
            entries: Vec::new(),
            scratch: RadixScratch::default(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Number of cached arrays.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted so far (always `misses - len` once full).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hit rate over all accesses so far (0.0 before any access).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Returns the casted array for `index`, computing and caching it on
    /// first sight. When the cache is full, a miss evicts the least
    /// recently used entry and casts into its buffers.
    pub fn get_or_cast(&mut self, index: &IndexArray) -> &CastedIndexArray {
        self.get_or_cast_hashed(index, hash_index(index))
    }

    /// [`CastingCache::get_or_cast`] under a given content hash.
    fn get_or_cast_hashed(&mut self, index: &IndexArray, hash: u64) -> &CastedIndexArray {
        self.clock += 1;
        let mut at = self.heads.get(&hash).copied();
        while let Some(slot) = at {
            if self.entries[slot].index == *index {
                break;
            }
            at = self.entries[slot].next;
        }
        let slot = match at {
            Some(slot) => {
                self.hits += 1;
                slot
            }
            None => {
                self.misses += 1;
                let slot = self.vacant_slot(index);
                let entry = &mut self.entries[slot];
                entry.hash = hash;
                entry.next = self.heads.insert(hash, slot);
                tensor_casting_into(index, &mut entry.casted, &mut self.scratch);
                slot
            }
        };
        let entry = &mut self.entries[slot];
        entry.last_used = self.clock;
        &entry.casted
    }

    /// A slot holding a copy of `index`, not yet linked under its hash: a
    /// new one while the cache fills, then the least recently used
    /// entry's, evicted. The LRU pick is an O(len) scan — eviction happens
    /// at most once per miss, and misses already pay a linear-time casting
    /// transform, so recency bookkeeping stays free on the hit path where
    /// it matters.
    fn vacant_slot(&mut self, index: &IndexArray) -> usize {
        if self.entries.len() < self.capacity {
            self.entries.push(Entry {
                hash: 0,
                index: index.clone(),
                casted: CastedIndexArray::default(),
                last_used: 0,
                next: None,
            });
            return self.entries.len() - 1;
        }
        let victim = (0..self.entries.len())
            .min_by_key(|&slot| self.entries[slot].last_used)
            .expect("a full cache has entries");
        self.unlink(victim);
        self.evictions += 1;
        self.entries[victim]
            .index
            .refill(index.num_outputs(), |src, dst| {
                src.extend_from_slice(index.src());
                dst.extend_from_slice(index.dst());
            })
            .expect("a copy of a valid index array is valid");
        victim
    }

    /// Takes `slot` off its hash's chain.
    fn unlink(&mut self, slot: usize) {
        let (hash, next) = (self.entries[slot].hash, self.entries[slot].next);
        let head = self.heads[&hash];
        if head == slot {
            match next {
                Some(next) => self.heads.insert(hash, next),
                None => self.heads.remove(&hash),
            };
            return;
        }
        let mut at = head;
        while self.entries[at].next != Some(slot) {
            at = self.entries[at]
                .next
                .expect("an entry is on its hash's chain");
        }
        self.entries[at].next = next;
    }
}

fn hash_index(index: &IndexArray) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    let mut feed = |v: u32| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    feed(index.num_outputs() as u32);
    for &s in index.src() {
        feed(s);
    }
    for &d in index.dst() {
        feed(d);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casting::tensor_casting;

    fn idx(seed: u32) -> IndexArray {
        IndexArray::from_samples(&[vec![seed, seed + 1], vec![seed + 2]]).unwrap()
    }

    #[test]
    fn hit_returns_identical_result() {
        let mut cache = CastingCache::new(4);
        let index = idx(1);
        let direct = tensor_casting(&index);
        assert_eq!(cache.get_or_cast(&index), &direct);
        assert_eq!(cache.get_or_cast(&index), &direct);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_indices_do_not_collide() {
        let mut cache = CastingCache::new(8);
        for s in 0..5 {
            let index = idx(s * 10);
            assert_eq!(cache.get_or_cast(&index), &tensor_casting(&index));
        }
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.len(), 5);
        // Revisit all: pure hits.
        for s in 0..5 {
            let index = idx(s * 10);
            cache.get_or_cast(&index);
        }
        assert_eq!(cache.hits(), 5);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn capacity_bound_holds() {
        let mut cache = CastingCache::new(3);
        for s in 0..10 {
            cache.get_or_cast(&idx(s));
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 10);
        assert_eq!(cache.evictions(), 7);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut cache = CastingCache::new(3);
        cache.get_or_cast(&idx(0));
        cache.get_or_cast(&idx(10));
        cache.get_or_cast(&idx(20));
        // Refresh 0's recency: 10 is now the oldest.
        cache.get_or_cast(&idx(0));
        // A fourth entry must evict 10, not 0.
        cache.get_or_cast(&idx(30));
        assert_eq!(cache.evictions(), 1);
        let hits_before = cache.hits();
        cache.get_or_cast(&idx(0)); // still cached
        cache.get_or_cast(&idx(20)); // still cached
        cache.get_or_cast(&idx(30)); // still cached
        assert_eq!(cache.hits(), hits_before + 3);
        cache.get_or_cast(&idx(10)); // evicted: must miss
        assert_eq!(cache.hits(), hits_before + 3);
        assert_eq!(cache.misses(), 5);
    }

    #[test]
    fn hot_working_set_survives_a_cold_stream() {
        // The serving scenario the LRU upgrade exists for: a hot query
        // revisited between every cold query must never be evicted. The
        // old evict-everything policy flushed it on each overflow.
        let mut cache = CastingCache::new(4);
        let hot = idx(1000);
        cache.get_or_cast(&hot);
        for s in 0..20 {
            cache.get_or_cast(&idx(s * 7));
            let misses_before = cache.misses();
            cache.get_or_cast(&hot);
            assert_eq!(cache.misses(), misses_before, "hot entry evicted at {s}");
        }
        assert_eq!(cache.hits(), 20);
    }

    #[test]
    fn equal_content_different_allocation_hits() {
        let mut cache = CastingCache::new(4);
        let a = IndexArray::from_pairs(vec![5, 6], vec![0, 1], 2).unwrap();
        let b = IndexArray::from_pairs(vec![5, 6], vec![0, 1], 2).unwrap();
        cache.get_or_cast(&a);
        cache.get_or_cast(&b);
        assert_eq!(cache.hits(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn same_pairs_different_outputs_miss() {
        // num_outputs participates in identity: a trailing empty slot
        // changes the gradient-table height.
        let mut cache = CastingCache::new(4);
        let a = IndexArray::from_pairs(vec![1], vec![0], 1).unwrap();
        let b = IndexArray::from_pairs(vec![1], vec![0], 2).unwrap();
        cache.get_or_cast(&a);
        cache.get_or_cast(&b);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn colliding_hashes_chain_and_evict_correctly() {
        // Every entry under one hash: lookups walk the chain, and an
        // eviction unlinks its victim wherever it sits on it.
        let mut cache = CastingCache::new(3);
        let get = |cache: &mut CastingCache, s| cache.get_or_cast_hashed(&idx(s), 7).clone();
        for s in [0, 10, 20] {
            assert_eq!(get(&mut cache, s), tensor_casting(&idx(s)));
        }
        // 10 is the oldest once 0 and 20 are refreshed; it sits mid-chain.
        get(&mut cache, 0);
        get(&mut cache, 20);
        assert_eq!(cache.hits(), 2);
        assert_eq!(get(&mut cache, 30), tensor_casting(&idx(30)));
        assert_eq!(cache.evictions(), 1);
        for s in [0, 20, 30] {
            assert_eq!(get(&mut cache, s), tensor_casting(&idx(s)));
        }
        assert_eq!(cache.hits(), 5);
        assert_eq!(get(&mut cache, 10), tensor_casting(&idx(10)));
        assert_eq!((cache.misses(), cache.evictions(), cache.len()), (5, 2, 3));
    }

    #[test]
    fn a_full_cache_casts_misses_into_the_victims_buffers() {
        let mut cache = CastingCache::new(2);
        let buffers = |cache: &CastingCache| -> Vec<*const u32> {
            let mut ptrs: Vec<_> = cache
                .entries
                .iter()
                .flat_map(|e| [e.index.src().as_ptr(), e.casted.gather_src().as_ptr()])
                .collect();
            ptrs.sort();
            ptrs
        };
        cache.get_or_cast(&idx(0));
        cache.get_or_cast(&idx(10));
        let full = buffers(&cache);
        for s in 2..10 {
            assert_eq!(
                cache.get_or_cast(&idx(s * 10)),
                &tensor_casting(&idx(s * 10))
            );
        }
        assert_eq!(cache.evictions(), 8);
        assert_eq!(buffers(&cache), full);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        CastingCache::new(0);
    }
}
