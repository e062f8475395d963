//! Sharded write path + epoch-stamped immutable read snapshots.
//!
//! The daemon used to put one `Mutex` around the registry in front of
//! everything: every formation cloned the scenario under the same
//! lock every trust report was fighting for. [`ShardedRegistry`]
//! splits the two sides:
//!
//! * **Reads** ([`ShardedRegistry::snapshot`]) return an
//!   `Arc<EpochSnapshot>` — an immutable, epoch-stamped image of the
//!   pool (the served [`FormationScenario`] plus the serializable
//!   [`RegistrySnapshot`] view) copied once per mutation and swapped
//!   in behind an `RwLock<Arc<…>>`. A reader takes the
//!   read lock only long enough to clone the `Arc`; formations,
//!   registry dumps and batch requests then run against their pinned
//!   snapshot for as long as they like without blocking a single
//!   writer. Everything computed from one `EpochSnapshot` is
//!   consistent *by construction* — there is no window in which a
//!   response can mix state from two epochs, which is exactly what
//!   `tests/torture.rs` hammers on.
//!
//! * **Writes** ([`ShardedRegistry::mutate`]) lock the shards they
//!   touch, keyed by GSP id (`id % shards`), then run
//!   `GspRegistry::commit` — stage, journal, swap — under one writer
//!   lock. Staging runs inside the commit, so the writer lock
//!   serializes all of a write's work and the shard locks add no write
//!   concurrency: they stamp per-shard counters and set the
//!   cache-eviction granularity below. The commit itself must stay
//!   globally serialized — the journal is a single total order and
//!   the epoch *is* that order. A successful commit is journaled
//!   before its fresh `EpochSnapshot` is built and published, still
//!   under the writer lock, so snapshot epoch order equals journal
//!   order and no reader sees an epoch the journal lacks. The build
//!   copies the registry's served scenario and cannot fail, so a
//!   committed write always publishes; a refused commit changes
//!   nothing, so nothing is published.
//!
//! The shard map also narrows cache hygiene: a mutation touching GSP
//! `g` expands to the member ids sharing `g`'s shard
//! ([`ShardedRegistry::shard_members`]), and eviction skips entries
//! stored at-or-after the mutation's epoch (see
//! [`crate::cache::SharedSolveCache::invalidate_members`]).

use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::FormationScenario;

use crate::persist::PersistConfig;
use crate::registry::{GspRegistry, RegistrySnapshot};
use crate::Result;

/// Default shard count (`gridvo serve --shards`).
pub const DEFAULT_SHARDS: usize = 8;

/// An immutable, consistent image of the registry at one epoch.
/// Everything a read-side request needs is copied here once, at
/// mutation time, instead of per-request under a lock.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// The epoch this snapshot reflects (mutations since bootstrap).
    pub epoch: u64,
    /// The pool as a solvable scenario (what formations run against).
    pub scenario: FormationScenario,
    /// The serializable registry view (what `registry` requests dump).
    pub view: RegistrySnapshot,
    /// Global ids of the GSPs held by no live lease — the sub-pool a
    /// market-aware formation (`form --app`) runs against.
    pub free: Vec<usize>,
    /// Digest of the committed set (0 when nothing is committed);
    /// salts market solve-cache keys so a cached optimum is never
    /// served against a different available pool.
    pub free_digest: u64,
    /// Live leases at this epoch, in acquisition order.
    pub leases: Vec<gridvo_market::Lease>,
}

impl EpochSnapshot {
    /// Copy what `reg` serves; nothing here can fail, so a committed
    /// write always publishes.
    fn build(reg: &GspRegistry) -> EpochSnapshot {
        EpochSnapshot {
            epoch: reg.epoch(),
            scenario: reg.served().clone(),
            view: reg.snapshot(),
            free: reg.free_members(),
            free_digest: reg.market().free_digest(),
            leases: reg.leases().to_vec(),
        }
    }
}

/// Which GSP ids a mutation touches, for shard locking.
#[derive(Debug, Clone, Copy)]
pub enum Touched<'a> {
    /// Trust / receipt mutations: the ids whose edges or evidence
    /// change. Ids keep their meaning across the mutation.
    Ids(&'a [usize]),
    /// Membership churn (`add_gsp` / `remove_gsp`): ids renumber, so
    /// the write locks every shard.
    All,
}

/// Per-shard write counters.
#[derive(Debug, Default)]
struct ShardState {
    /// Epoch of the last commit staged through this shard.
    last_epoch: u64,
    /// Commits staged through this shard.
    mutations: u64,
}

/// Per-shard counters, for tests and debugging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStat {
    /// Epoch of the last mutation staged through the shard.
    pub last_epoch: u64,
    /// Mutations staged through the shard.
    pub mutations: u64,
}

/// The daemon's registry: sharded writes, lock-free-after-`Arc`-clone
/// snapshot reads. See the module docs.
#[derive(Debug)]
pub struct ShardedRegistry {
    shards: Vec<Mutex<ShardState>>,
    /// The commit lock: owns the registry and its journal. Held only
    /// for the commit and the snapshot build.
    writer: Mutex<GspRegistry>,
    /// The published snapshot. Readers clone the `Arc` and get out.
    current: RwLock<Arc<EpochSnapshot>>,
}

impl ShardedRegistry {
    /// Bootstrap or recover (see [`GspRegistry::open`]) and publish
    /// the initial snapshot. `shards` is clamped to ≥ 1.
    pub fn open(
        scenario: &FormationScenario,
        engine: ReputationEngine,
        shards: usize,
        persist: Option<&PersistConfig>,
    ) -> Result<(Self, Option<u64>)> {
        let (registry, recovered) = GspRegistry::open(scenario, engine, persist)?;
        let snapshot = Arc::new(EpochSnapshot::build(&registry));
        let sharded = ShardedRegistry {
            shards: (0..shards.max(1)).map(|_| Mutex::new(ShardState::default())).collect(),
            writer: Mutex::new(registry),
            current: RwLock::new(snapshot),
        };
        Ok((sharded, recovered))
    }

    /// The shard owning GSP `id`.
    pub fn shard_of(&self, id: usize) -> usize {
        id % self.shards.len()
    }

    /// The current snapshot. This is the entire read path: one brief
    /// read lock to clone an `Arc`.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// Expand `touched` ids to every pool id sharing a shard with one
    /// of them — the eviction granularity of the solve cache.
    pub fn shard_members(&self, touched: &[usize]) -> Vec<usize> {
        let pool = self.snapshot().view.gsps;
        (0..pool)
            .filter(|&g| touched.iter().any(|&t| self.shard_of(t) == self.shard_of(g)))
            .collect()
    }

    /// Per-shard staging counters.
    pub fn shard_stats(&self) -> Vec<ShardStat> {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().expect("shard lock poisoned");
                ShardStat { last_epoch: s.last_epoch, mutations: s.mutations }
            })
            .collect()
    }

    /// Journal / snapshot counters, when persistence is on.
    pub fn store_stats(&self) -> Option<gridvo_store::StoreStats> {
        self.writer.lock().expect("writer lock poisoned").store_stats()
    }

    /// Run one write: lock the touched shards (ascending-index order,
    /// so concurrent writes can never deadlock), commit under the
    /// writer lock, then publish the new snapshot and stamp the locked
    /// shards. The snapshot is built and swapped *before* the writer
    /// lock drops, so the published epoch sequence is exactly the
    /// journal's. `f` commits through the registry's one write path;
    /// when it fails, nothing was committed and nothing is published.
    pub fn mutate<T>(
        &self,
        touched: Touched<'_>,
        f: impl FnOnce(&mut GspRegistry) -> Result<T>,
    ) -> Result<T> {
        let staged: Vec<usize> = match touched {
            Touched::Ids(ids) => {
                let mut shards: Vec<usize> = ids.iter().map(|&id| self.shard_of(id)).collect();
                shards.sort_unstable();
                shards.dedup();
                shards
            }
            Touched::All => (0..self.shards.len()).collect(),
        };
        let mut guards: Vec<MutexGuard<'_, ShardState>> =
            staged.iter().map(|&i| self.shards[i].lock().expect("shard lock poisoned")).collect();

        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let out = f(&mut writer)?;
        let snapshot = Arc::new(EpochSnapshot::build(&writer));
        *self.current.write().expect("snapshot lock poisoned") = snapshot;
        for guard in &mut guards {
            guard.last_epoch = writer.epoch();
            guard.mutations += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvo_core::Gsp;
    use gridvo_solver::AssignmentInstance;
    use gridvo_trust::TrustGraph;

    fn scenario() -> FormationScenario {
        let gsps = vec![Gsp::new(0, 100.0), Gsp::new(1, 80.0), Gsp::new(2, 60.0)];
        let mut trust = TrustGraph::new(3);
        for i in 0..3usize {
            for j in 0..3usize {
                if i != j {
                    trust.set_trust(i, j, 0.5);
                }
            }
        }
        let inst =
            AssignmentInstance::new(4, 3, vec![1.0; 12], vec![1.0; 12], 10.0, 100.0).unwrap();
        FormationScenario::new(gsps, trust, inst).unwrap()
    }

    fn open(shards: usize) -> ShardedRegistry {
        ShardedRegistry::open(&scenario(), ReputationEngine::default(), shards, None).unwrap().0
    }

    #[test]
    fn snapshots_are_pinned_while_mutations_publish_new_epochs() {
        let reg = open(4);
        let before = reg.snapshot();
        assert_eq!(before.epoch, 0);
        let epoch = reg.mutate(Touched::Ids(&[0, 1]), |r| r.report_trust(0, 1, 0.9)).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(before.epoch, 0, "the pinned snapshot is immutable");
        let after = reg.snapshot();
        assert_eq!(after.epoch, 1);
        assert_ne!(
            before.scenario.trust().trust(0, 1),
            after.scenario.trust().trust(0, 1),
            "the new snapshot reflects the mutation"
        );
    }

    #[test]
    fn shard_staging_stamps_only_touched_shards() {
        let reg = open(3);
        reg.mutate(Touched::Ids(&[1]), |r| r.report_trust(1, 2, 0.7)).unwrap();
        let stats = reg.shard_stats();
        assert_eq!(stats[1], ShardStat { last_epoch: 1, mutations: 1 });
        assert_eq!(stats[0].mutations, 0);
        // Membership churn drains every shard.
        reg.mutate(Touched::All, |r| r.add_gsp(90.0, &[2.0; 4], &[1.5; 4])).unwrap();
        assert!(reg.shard_stats().iter().all(|s| s.last_epoch == 2));
    }

    #[test]
    fn shard_members_expand_to_whole_shards() {
        let reg = open(2); // shards: {0, 2} and {1}
        assert_eq!(reg.shard_members(&[0]), vec![0, 2]);
        assert_eq!(reg.shard_members(&[1]), vec![1]);
        assert_eq!(reg.shard_members(&[0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn failed_mutations_leave_the_snapshot_alone() {
        let reg = open(2);
        let err = reg.mutate(Touched::Ids(&[0]), |r| r.report_trust(0, 99, 0.5));
        assert!(err.is_err());
        assert_eq!(reg.snapshot().epoch, 0, "no epoch, no publish");
    }

    #[test]
    fn concurrent_writers_produce_a_gapless_epoch_order() {
        let reg = std::sync::Arc::new(open(4));
        let mut handles = Vec::new();
        for w in 0..4usize {
            let reg = std::sync::Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let mut acked = Vec::new();
                for i in 0..8usize {
                    let (from, to) = ((w + i) % 3, (w + i + 1) % 3);
                    let e = reg
                        .mutate(Touched::Ids(&[from, to]), |r| {
                            r.report_trust(from, to, 0.2 + 0.1 * (w as f64))
                        })
                        .unwrap();
                    acked.push(e);
                }
                acked
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        assert_eq!(all, (1..=32).collect::<Vec<u64>>(), "epochs are a gapless total order");
        assert_eq!(reg.snapshot().epoch, 32);
    }
}
