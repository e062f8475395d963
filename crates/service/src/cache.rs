//! The daemon's shared solve cache.
//!
//! A bounded **LRU** memo table behind an `Arc<Mutex<…>>`,
//! implementing [`SolveCache`] so worker threads can hand it straight
//! to [`gridvo_core::Mechanism::run_cached_with_budget`]. Hits and
//! re-stores refresh an entry's recency, so a standing program's hot
//! solves survive a churn of one-off requests that plain FIFO would
//! let evict them. Hit / miss counters feed the metrics snapshot's
//! cache hit rate.
//!
//! Correctness needs no invalidation logic: the key
//! ([`gridvo_core::solve_cache::solve_key`]) is a content hash of the
//! full solver input, so any registry mutation that changes what a
//! solve *means* (costs, times, membership) changes the key, while
//! trust-only mutations — which the solver never sees — keep every
//! entry valid. The capacity bound exists purely to bound memory.
//!
//! Eviction on trust / receipt mutations is therefore a *hygiene*
//! concern, and a doubly narrow one: each entry is tagged with the
//! member set it solved ([`CachedSolve::members`]) **and** the
//! registry epoch it was stored against ([`CachedSolve::epoch`],
//! stamped by [`SharedSolveCache::at_epoch`] handles). A mutation at
//! epoch `e` calls [`SharedSolveCache::invalidate_members`] with
//! `before_epoch = e`, dropping only entries that (a) include a
//! touched GSP and (b) were stored *before* the mutation — an entry a
//! concurrent batch stored against the post-mutation snapshot already
//! reflects the new state and stays resident. Membership churn that
//! renumbers ids (a removal) instead clears everything via
//! [`SharedSolveCache::clear`], because stale tags can no longer
//! target entries. `tests/cache_invalidation.rs` holds the
//! differential guarantee: cached and uncached daemons stay
//! byte-identical across interleaved mutations and formations.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use gridvo_core::solve_cache::{CachedSolve, SolveCache};

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, CachedSolve>,
    /// Recency order, least-recently-used at the front. Touch cost is
    /// O(len) — negligible against the solves the cache memoizes.
    order: VecDeque<u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Inner {
    /// Move `key` to the most-recently-used position.
    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }
}

/// Cache counters for the metrics snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A clonable handle to the shared memo table (clones share storage).
///
/// Each handle carries an epoch *stamp*: everything stored through it
/// is tagged with that epoch, so eviction can skip entries younger
/// than the mutation doing the evicting. A plain `clone()` keeps the
/// stamp; [`SharedSolveCache::at_epoch`] re-stamps.
#[derive(Debug, Clone)]
pub struct SharedSolveCache {
    inner: Arc<Mutex<Inner>>,
    /// Epoch stamped onto entries stored through this handle.
    stamp: u64,
}

impl SharedSolveCache {
    /// A cache holding at most `capacity` solves (0 disables caching:
    /// every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        SharedSolveCache {
            inner: Arc::new(Mutex::new(Inner { capacity, ..Inner::default() })),
            stamp: 0,
        }
    }

    /// A handle onto the same storage whose stores are stamped with
    /// `epoch` — the snapshot epoch a formation resolved against.
    pub fn at_epoch(&self, epoch: u64) -> Self {
        SharedSolveCache { inner: Arc::clone(&self.inner), stamp: epoch }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheStats { hits: inner.hits, misses: inner.misses, entries: inner.map.len() }
    }

    /// Drop every entry whose member set includes any of `touched`
    /// **and** whose stamp predates `before_epoch` (the epoch of the
    /// mutation doing the evicting), leaving solves over disjoint
    /// member sets — and solves already stored against the
    /// post-mutation state — resident. Returns how many entries were
    /// dropped.
    pub fn invalidate_members(&self, touched: &[usize], before_epoch: u64) -> usize {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        let doomed: Vec<u64> = inner
            .map
            .iter()
            .filter(|(_, v)| {
                v.epoch < before_epoch && v.members.iter().any(|m| touched.contains(m))
            })
            .map(|(&k, _)| k)
            .collect();
        for key in &doomed {
            inner.map.remove(key);
            if let Some(pos) = inner.order.iter().position(|k| k == key) {
                inner.order.remove(pos);
            }
        }
        doomed.len()
    }

    /// Drop everything (id-renumbering membership churn: the member
    /// tags can no longer address entries).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.map.clear();
        inner.order.clear();
    }
}

impl SolveCache for SharedSolveCache {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        match inner.map.get(&key).cloned() {
            Some(v) => {
                inner.hits += 1;
                inner.touch(key);
                Some(v)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        if inner.capacity == 0 {
            return;
        }
        let mut stored = value.clone();
        stored.epoch = self.stamp;
        inner.map.insert(key, stored);
        inner.touch(key);
        while inner.map.len() > inner.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(nodes: u64) -> CachedSolve {
        CachedSolve {
            solved: None,
            nodes,
            incumbent_source: None,
            gap: None,
            members: vec![0, 1],
            epoch: 0,
        }
    }

    fn entry_for(nodes: u64, members: Vec<usize>) -> CachedSolve {
        CachedSolve { solved: None, nodes, incumbent_source: None, gap: None, members, epoch: 0 }
    }

    /// Mutations in the pre-epoch tests all "happen after" every
    /// store, so member-targeted eviction behaves as it did before
    /// epochs existed.
    const LATER: u64 = u64::MAX;

    #[test]
    fn hit_and_miss_counters() {
        let mut c = SharedSolveCache::new(8);
        assert!(c.lookup(1).is_none());
        c.store(1, &entry(5));
        assert_eq!(c.lookup(1).unwrap().nodes, 5);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn clones_share_storage() {
        let mut a = SharedSolveCache::new(8);
        let mut b = a.clone();
        a.store(9, &entry(1));
        assert!(b.lookup(9).is_some());
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let mut c = SharedSolveCache::new(2);
        c.store(1, &entry(1));
        c.store(2, &entry(2));
        c.store(3, &entry(3));
        assert_eq!(c.stats().entries, 2);
        assert!(c.lookup(1).is_none(), "least-recently-used entry evicted first");
        assert!(c.lookup(2).is_some());
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn hits_refresh_recency() {
        let mut c = SharedSolveCache::new(2);
        c.store(1, &entry(1));
        c.store(2, &entry(2));
        assert!(c.lookup(1).is_some(), "touch 1 so 2 becomes the LRU entry");
        c.store(3, &entry(3));
        assert!(c.lookup(2).is_none(), "2 was least recently used");
        assert!(c.lookup(1).is_some(), "the hit kept 1 resident");
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn re_stores_refresh_recency() {
        let mut c = SharedSolveCache::new(2);
        c.store(1, &entry(1));
        c.store(2, &entry(2));
        c.store(1, &entry(10));
        c.store(3, &entry(3));
        assert!(c.lookup(2).is_none(), "2 was least recently used after 1's re-store");
        assert_eq!(c.lookup(1).unwrap().nodes, 10, "re-store replaced the value");
        assert_eq!(c.stats().entries, 2);
    }

    #[test]
    fn invalidation_targets_only_touched_members() {
        let mut c = SharedSolveCache::new(8);
        c.store(1, &entry_for(1, vec![0, 1, 2]));
        c.store(2, &entry_for(2, vec![0, 1]));
        c.store(3, &entry_for(3, vec![3, 4]));
        assert_eq!(c.invalidate_members(&[2], LATER), 1, "only the entry containing GSP 2 goes");
        assert!(c.lookup(1).is_none());
        assert!(c.lookup(2).is_some());
        assert!(c.lookup(3).is_some());
        assert_eq!(c.invalidate_members(&[7], LATER), 0, "untouched member sets stay resident");
        c.clear();
        assert_eq!(c.stats().entries, 0);
        assert!(c.lookup(2).is_none());
    }

    #[test]
    fn invalidation_skips_entries_stored_at_or_after_the_mutation() {
        let base = SharedSolveCache::new(8);
        base.at_epoch(3).store(1, &entry_for(1, vec![0, 1]));
        base.at_epoch(7).store(2, &entry_for(2, vec![0, 1]));
        // A mutation at epoch 7 touching GSP 0: only the epoch-3
        // entry predates it.
        assert_eq!(base.invalidate_members(&[0], 7), 1);
        assert!(base.clone().lookup(1).is_none(), "pre-mutation entry evicted");
        assert_eq!(
            base.clone().lookup(2).unwrap().epoch,
            7,
            "entry stored against the mutated state survives"
        );
    }

    #[test]
    fn at_epoch_stamps_stores_and_shares_storage() {
        let base = SharedSolveCache::new(8);
        let mut stamped = base.at_epoch(42);
        stamped.store(5, &entry(9));
        assert_eq!(base.clone().lookup(5).unwrap().epoch, 42, "store overrode the driver's 0");
        assert_eq!(base.stats().entries, 1, "handles share one table");
    }

    #[test]
    fn invalidation_keeps_lru_order_consistent() {
        let mut c = SharedSolveCache::new(2);
        c.store(1, &entry_for(1, vec![0]));
        c.store(2, &entry_for(2, vec![1]));
        c.invalidate_members(&[0], LATER);
        c.store(3, &entry_for(3, vec![2]));
        // Capacity 2 with entry 1 gone: both 2 and 3 must fit.
        assert!(c.lookup(2).is_some());
        assert!(c.lookup(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = SharedSolveCache::new(0);
        c.store(1, &entry(1));
        assert!(c.lookup(1).is_none());
        assert_eq!(c.stats().entries, 0);
    }
}
