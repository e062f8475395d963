//! The daemon's shared solve cache.
//!
//! A bounded **LRU** memo table behind an `Arc<Mutex<…>>`,
//! implementing [`SolveCache`] so worker threads can hand it straight
//! to [`gridvo_core::Mechanism::run_cached_with_budget`]. Hits and
//! re-stores refresh an entry's recency, in O(1) however many entries
//! are resident, so a standing program's hot solves survive a churn of
//! one-off requests that plain FIFO would let evict them. Hit / miss
//! counters feed the metrics snapshot's cache hit rate.
//!
//! Correctness needs no invalidation logic: the key
//! ([`gridvo_core::solve_cache::round_key`]) hashes the pool's content
//! digest, the round's member ids and the carried warm start, which
//! together determine the full solver input. Any registry mutation
//! that changes what a solve *means* (costs, times, membership)
//! changes the pool digest and so every key, while trust-only
//! mutations — which the solver never sees — keep every entry valid.
//! Entries stored before a pool change (an `add_gsp`, say) are never
//! looked up again and age out of the LRU, and equal reduced inputs
//! reached through another carry or another pool do not share a slot.
//! The capacity bound exists purely to bound memory.
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

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use gridvo_core::solve_cache::{CachedSolve, SolveCache};

use crate::recover;

/// The null link of the recency list.
const NIL: usize = usize::MAX;

/// One resident solve, linked into the recency list.
#[derive(Debug)]
struct Node {
    key: u64,
    solve: CachedSolve,
    prev: usize,
    next: usize,
}

/// The LRU table: a map from key to node, and the nodes in one
/// doubly linked recency list threaded through `nodes` by index, least
/// recent at `head`. A hit or a store moves one node to the tail and
/// an eviction unlinks the head, so recency costs O(1) per use and a
/// hit hashes its key once. A dropped node goes on `free` for reuse
/// (keeping its solve until then), so `nodes` never outgrows the
/// capacity plus one.
#[derive(Debug)]
struct Inner {
    map: HashMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Inner {
    fn unlink(&mut self, at: usize) {
        let Node { prev, next, .. } = self.nodes[at];
        match prev {
            NIL => self.head = next,
            prev => self.nodes[prev].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.nodes[next].prev = prev,
        }
    }

    /// Link the unlinked node `at` in as the most recently used.
    fn push_back(&mut self, at: usize) {
        (self.nodes[at].prev, self.nodes[at].next) = (self.tail, NIL);
        match self.tail {
            NIL => self.head = at,
            tail => self.nodes[tail].next = at,
        }
        self.tail = at;
    }

    /// Make the resident node `at` the most recently used.
    fn refresh(&mut self, at: usize) {
        if at != self.tail {
            self.unlink(at);
            self.push_back(at);
        }
    }

    /// Unlink the resident node `at` and free it.
    fn drop_node(&mut self, at: usize) {
        self.unlink(at);
        self.map.remove(&self.nodes[at].key);
        self.free.push(at);
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
            inner: Arc::new(Mutex::new(Inner {
                map: HashMap::new(),
                nodes: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                capacity,
                hits: 0,
                misses: 0,
            })),
            stamp: 0,
        }
    }

    /// A handle onto the same storage whose stores are stamped with
    /// `epoch` — the snapshot epoch a formation resolved against.
    pub fn at_epoch(&self, epoch: u64) -> Self {
        SharedSolveCache { inner: Arc::clone(&self.inner), stamp: epoch }
    }

    /// The table, recovered if poisoned (see `crate::recover`).
    fn lock(&self) -> MutexGuard<'_, Inner> {
        recover(self.inner.lock())
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats { hits: inner.hits, misses: inner.misses, entries: inner.map.len() }
    }

    /// Drop every entry whose member set includes any of `touched`
    /// **and** whose stamp predates `before_epoch` (the epoch of the
    /// mutation doing the evicting), leaving solves over disjoint
    /// member sets — and solves already stored against the
    /// post-mutation state — resident. Returns how many entries were
    /// dropped.
    pub fn invalidate_members(&self, touched: &[usize], before_epoch: u64) -> usize {
        let mut inner = self.lock();
        let (mut at, mut dropped) = (inner.head, 0);
        while at != NIL {
            let Node { solve, next, .. } = &inner.nodes[at];
            let (next, stale) = (*next, solve.epoch < before_epoch);
            if stale && solve.members.iter().any(|m| touched.contains(m)) {
                inner.drop_node(at);
                dropped += 1;
            }
            at = next;
        }
        dropped
    }

    /// Drop everything (id-renumbering membership churn: the member
    /// tags can no longer address entries).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.map.clear();
        inner.nodes.clear();
        inner.free.clear();
        (inner.head, inner.tail) = (NIL, NIL);
    }
}

impl SolveCache for SharedSolveCache {
    fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
        let mut inner = self.lock();
        let Some(&at) = inner.map.get(&key) else {
            inner.misses += 1;
            return None;
        };
        inner.hits += 1;
        inner.refresh(at);
        Some(inner.nodes[at].solve.clone())
    }

    fn store(&mut self, key: u64, value: &CachedSolve) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        let solve = CachedSolve { epoch: self.stamp, ..value.clone() };
        if let Some(&at) = inner.map.get(&key) {
            inner.nodes[at].solve = solve;
            return inner.refresh(at);
        }
        let node = Node { key, solve, prev: NIL, next: NIL };
        let at = match inner.free.pop() {
            Some(at) => {
                inner.nodes[at] = node;
                at
            }
            None => {
                inner.nodes.push(node);
                inner.nodes.len() - 1
            }
        };
        inner.map.insert(key, at);
        inner.push_back(at);
        if inner.map.len() > inner.capacity {
            let lru = inner.head;
            inner.drop_node(lru);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection;
    use proptest::prelude::*;

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

    /// The reference LRU: resident entries in recency order, least
    /// recent first.
    #[derive(Default)]
    struct Model {
        entries: Vec<(u64, CachedSolve)>,
        capacity: usize,
        hits: u64,
        misses: u64,
    }

    impl Model {
        fn lookup(&mut self, key: u64) -> Option<CachedSolve> {
            let Some(at) = self.entries.iter().position(|(k, _)| *k == key) else {
                self.misses += 1;
                return None;
            };
            self.hits += 1;
            let used = self.entries.remove(at);
            self.entries.push(used);
            self.entries.last().map(|(_, v)| v.clone())
        }

        fn store(&mut self, key: u64, value: CachedSolve) {
            if self.capacity == 0 {
                return;
            }
            self.entries.retain(|(k, _)| *k != key);
            self.entries.push((key, value));
            if self.entries.len() > self.capacity {
                self.entries.remove(0);
            }
        }

        fn invalidate(&mut self, touched: &[usize], before_epoch: u64) -> usize {
            let resident = self.entries.len();
            self.entries.retain(|(_, v)| {
                v.epoch >= before_epoch || !v.members.iter().any(|m| touched.contains(m))
            });
            resident - self.entries.len()
        }
    }

    #[derive(Debug)]
    enum Op {
        Lookup(u64),
        Store { key: u64, epoch: u64, members: Vec<usize> },
        Invalidate { touched: Vec<usize>, before_epoch: u64 },
        Clear,
    }

    /// Mostly lookups and stores over 12 keys, so entries get reused,
    /// refreshed and evicted; now and then an invalidation or a clear.
    fn op() -> impl Strategy<Value = Op> {
        (0u32..100, 0u64..12, 0u64..5, collection::vec(0usize..5, 0..3)).prop_map(
            |(roll, key, epoch, members)| match roll {
                0..=44 => Op::Lookup(key),
                45..=89 => Op::Store { key, epoch, members },
                90..=97 => Op::Invalidate { touched: members, before_epoch: epoch },
                _ => Op::Clear,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn the_cache_agrees_with_a_reference_lru(
            capacity in 0usize..=8,
            ops in collection::vec(op(), 0..120),
        ) {
            let cache = SharedSolveCache::new(capacity);
            let mut model = Model { capacity, ..Model::default() };
            for op in &ops {
                match op {
                    Op::Lookup(key) => {
                        let found = cache.clone().lookup(*key);
                        prop_assert_eq!(found, model.lookup(*key), "lookup {}", key);
                    }
                    Op::Store { key, epoch, members } => {
                        let value = CachedSolve { epoch: *epoch, ..entry_for(*key, members.clone()) };
                        cache.at_epoch(*epoch).store(*key, &value);
                        model.store(*key, value);
                    }
                    Op::Invalidate { touched, before_epoch } => prop_assert_eq!(
                        cache.invalidate_members(touched, *before_epoch),
                        model.invalidate(touched, *before_epoch)
                    ),
                    Op::Clear => {
                        cache.clear();
                        model.entries.clear();
                    }
                }
                // The recency list, least recent first, and the map
                // hold exactly the model's entries in the model's order.
                let inner = cache.lock();
                let (mut order, mut at) = (Vec::new(), inner.head);
                while at != NIL && order.len() <= inner.nodes.len() {
                    order.push(inner.nodes[at].key);
                    at = inner.nodes[at].next;
                }
                let expected: Vec<u64> = model.entries.iter().map(|(k, _)| *k).collect();
                prop_assert_eq!(&order, &expected, "recency order after {:?}", op);
                prop_assert!(order.iter().all(|k| inner.map.contains_key(k)));
                prop_assert_eq!(inner.map.len(), expected.len());
                prop_assert!(inner.nodes.len() <= capacity + 1);
                prop_assert_eq!((inner.hits, inner.misses), (model.hits, model.misses));
            }
        }
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = SharedSolveCache::new(0);
        c.store(1, &entry(1));
        assert!(c.lookup(1).is_none());
        assert_eq!(c.stats().entries, 0);
    }
}
