//! A fixed-capacity LRU cache.
//!
//! Hash map + intrusive doubly-linked list over a slab, all `O(1)` per
//! operation. Implemented from scratch — no external cache crates.
//! [`crate::Bsl2`] uses it as its replacement policy.

use std::hash::Hash;
use usi_strings::FxHashMap;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// Least-recently-used cache with at most `capacity` entries.
///
/// ```
/// use usi_baselines::LruCache;
/// let mut lru = LruCache::new(2);
/// lru.insert("a", 1);
/// lru.insert("b", 2);
/// assert_eq!(lru.get(&"a"), Some(&1)); // refreshes "a"
/// lru.insert("c", 3); // evicts "b"
/// assert_eq!(lru.get(&"b"), None);
/// assert_eq!(lru.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: FxHashMap<K, u32>,
    slab: Vec<Entry<K, V>>,
    free: Vec<u32>,
    head: u32, // most recent
    tail: u32, // least recent
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding up to `capacity ≥ 1` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "LRU capacity must be positive");
        Self {
            map: FxHashMap::default(),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let e = &self.slab[idx as usize];
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.slab[idx as usize].prev = NIL;
        self.slab[idx as usize].next = self.head;
        if self.head != NIL {
            self.slab[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most-recently used. Accepts any
    /// borrowed form of the key (e.g. `&[u8]` for `Vec<u8>` keys), so
    /// hot-path lookups need not allocate an owned key.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.detach(idx);
            self.push_front(idx);
        }
        Some(&self.slab[idx as usize].value)
    }

    /// Inserts or refreshes `key`; evicts the least-recently-used entry
    /// when full. Returns the evicted `(key, value)` if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx as usize].value = value;
            if idx != self.head {
                self.detach(idx);
                self.push_front(idx);
            }
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let e = &mut self.slab[victim as usize];
            self.map.remove(&e.key);
            let old_key = e.key.clone();
            e.key = key.clone();
            let old_value = std::mem::replace(&mut e.value, value);
            evicted = Some((old_key, old_value));
            self.map.insert(key, victim);
            self.push_front(victim);
            return evicted;
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.slab[idx as usize] = Entry { key: key.clone(), value, prev: NIL, next: NIL };
            idx
        } else {
            self.slab.push(Entry { key: key.clone(), value, prev: NIL, next: NIL });
            (self.slab.len() - 1) as u32
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Approximate heap footprint in bytes.
    pub fn state_bytes(&self) -> usize {
        self.slab.capacity() * std::mem::size_of::<Entry<K, V>>()
            + self.map.capacity() * (std::mem::size_of::<(K, u32)>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_order_is_lru() {
        let mut lru = LruCache::new(3);
        lru.insert(1, "a");
        lru.insert(2, "b");
        lru.insert(3, "c");
        lru.get(&1); // order now: 1, 3, 2
        let evicted = lru.insert(4, "d");
        assert_eq!(evicted, Some((2, "b")));
        assert!(lru.get(&2).is_none());
        assert!(lru.get(&1).is_some());
    }

    #[test]
    fn reinsert_updates_value_without_eviction() {
        let mut lru = LruCache::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.insert(1, 11), None);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn capacity_one() {
        let mut lru = LruCache::new(1);
        lru.insert("x", 1);
        assert_eq!(lru.insert("y", 2), Some(("x", 1)));
        assert_eq!(lru.get(&"y"), Some(&2));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn borrowed_lookup() {
        let mut lru: LruCache<Vec<u8>, u32> = LruCache::new(4);
        lru.insert(b"abra".to_vec(), 7);
        // no allocation needed to probe by slice
        assert_eq!(lru.get(&b"abra"[..]), Some(&7));
        assert_eq!(lru.get(&b"zzz"[..]), None);
    }

    #[test]
    fn stress_against_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        let cap = 8;
        let mut lru = LruCache::new(cap);
        // reference: Vec<(key, value)> ordered most-recent-first
        let mut model: Vec<(u32, u32)> = Vec::new();
        for _ in 0..5000 {
            let key = rng.gen_range(0..20u32);
            if rng.gen_bool(0.5) {
                let got = lru.get(&key).copied();
                let pos = model.iter().position(|&(k, _)| k == key);
                let want = pos.map(|p| {
                    let e = model.remove(p);
                    model.insert(0, e);
                    e.1
                });
                assert_eq!(got, want);
            } else {
                let value = rng.gen_range(0..1000u32);
                lru.insert(key, value);
                if let Some(p) = model.iter().position(|&(k, _)| k == key) {
                    model.remove(p);
                } else if model.len() == cap {
                    model.pop();
                }
                model.insert(0, (key, value));
            }
            assert_eq!(lru.len(), model.len());
        }
    }
}
