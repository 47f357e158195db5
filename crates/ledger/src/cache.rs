//! A real least-recently-used cache, the one LRU implementation behind
//! every durable tier's hot set.
//!
//! The durable tiers keep hot decoded blocks and pages in memory through
//! [`crate::readview::ShardedCache`], which shards this cache. Provenance
//! queries revisit recent blocks heavily (the paper's E2 repeated-query
//! experiments), so eviction order matters: dropping an *arbitrary*
//! `HashMap` entry would, under iteration-order bad luck, evict the
//! hottest block.
//!
//! O(1) insert / lookup / evict: a `HashMap` keyed by `K` pointing into a
//! slab of slots threaded onto an intrusive doubly-linked recency list.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    /// `None` only while the slot sits on the free list.
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map.
///
/// Inserting beyond capacity evicts the least-recently-used entry and returns
/// it. A capacity of zero stores nothing (every insert evicts itself), which
/// lets callers disable caching without branching.
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    cap: usize,
}

impl<K: Eq + Hash + Copy, V> LruCache<K, V> {
    /// Create a cache holding at most `cap` entries.
    pub fn new(cap: usize) -> Self {
        Self {
            map: HashMap::with_capacity(cap.min(4096)),
            slots: Vec::with_capacity(cap.min(4096)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is cached (does not touch recency).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Fetch a value and mark it most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        self.slots[idx].value.as_ref()
    }

    /// Fetch a value without touching recency order.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).and_then(|&idx| self.slots[idx].value.as_ref())
    }

    /// Insert (or replace) an entry, returning the evicted LRU entry if the
    /// cache was full, or the replaced value under the same key.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.cap == 0 {
            return Some((key, value));
        }
        if let Some(&idx) = self.map.get(&key) {
            let old = self.slots[idx].value.replace(value);
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            return old.map(|v| (key, v));
        }
        let evicted = if self.map.len() >= self.cap {
            self.evict_lru()
        } else {
            None
        };
        let idx = if let Some(free) = self.free.pop() {
            self.slots[free] = Slot {
                key,
                value: Some(value),
                prev: NIL,
                next: NIL,
            };
            free
        } else {
            self.slots.push(Slot {
                key,
                value: Some(value),
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }

    /// Remove an entry by key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        self.free.push(idx);
        self.slots[idx].value.take()
    }

    /// Remove and return the least-recently-used entry, if any.
    pub fn evict_lru(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let key = self.slots[idx].key;
        self.unlink(idx);
        self.map.remove(&key);
        self.free.push(idx);
        self.slots[idx].value.take().map(|v| (key, v))
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most- to least-recently used (test/diagnostic aid).
    pub fn keys_by_recency(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while cursor != NIL {
            out.push(self.slots[cursor].key);
            cursor = self.slots[cursor].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        assert!(c.insert(1, "a").is_none());
        assert!(c.insert(2, "b").is_none());
        // Touch 1 so 2 becomes LRU.
        assert_eq!(c.get(&1), Some(&"a"));
        let evicted = c.insert(3, "c").unwrap();
        assert_eq!(evicted.0, 2);
        assert!(c.contains(&1) && c.contains(&3) && !c.contains(&2));
    }

    #[test]
    fn replace_updates_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.insert(1, 11), Some((1, 10)));
        // 2 is now LRU.
        assert_eq!(c.insert(3, 30).unwrap().0, 2);
        assert_eq!(c.peek(&1), Some(&11));
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut c = LruCache::new(3);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.remove(&1), Some("a"));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.len(), 1);
        c.insert(3, "c");
        c.insert(4, "d");
        assert_eq!(c.len(), 3);
        assert_eq!(c.keys_by_recency(), vec![4, 3, 2]);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(1, "a"), Some((1, "a")));
        assert!(c.is_empty());
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn capacity_is_never_exceeded_under_churn() {
        let mut c = LruCache::new(8);
        for i in 0..1000u64 {
            c.insert(i % 37, i);
            assert!(c.len() <= 8);
        }
        let recent = c.keys_by_recency();
        assert_eq!(recent.len(), 8);
        assert_eq!(recent[0], 999 % 37);
    }

    #[test]
    fn peek_does_not_promote() {
        let mut c = LruCache::new(2);
        c.insert(1, "a");
        c.insert(2, "b");
        assert_eq!(c.peek(&1), Some(&"a"));
        // 1 stays LRU despite the peek.
        assert_eq!(c.insert(3, "c").unwrap().0, 1);
    }

    #[test]
    fn single_entry_cache_cycles_correctly() {
        let mut c = LruCache::new(1);
        for i in 0..10 {
            let evicted = c.insert(i, i * 10);
            if i > 0 {
                assert_eq!(evicted, Some((i - 1, (i - 1) * 10)));
            }
            assert_eq!(c.len(), 1);
            assert_eq!(c.get(&i), Some(&(i * 10)));
        }
    }
}
