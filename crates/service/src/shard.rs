//! The registry's write path and its epoch-stamped immutable read
//! snapshots.
//!
//! The daemon used to put one `Mutex` around the registry in front of
//! everything: every formation cloned the scenario under the same
//! lock every trust report was fighting for. [`ShardedRegistry`]
//! splits the two sides, with two locks in all:
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
//! * **Writes** ([`ShardedRegistry::mutate`]) run `GspRegistry::commit`
//!   — stage, journal, swap — under one writer lock, so commits
//!   exclude each other and the journal is a single total order whose
//!   position *is* the epoch. A successful commit is journaled before
//!   its fresh `EpochSnapshot` is built and published, still under the
//!   writer lock, so snapshot epoch order equals journal order and no
//!   reader sees an epoch the journal lacks. The build copies the
//!   registry's served scenario and cannot fail, so a committed write
//!   always publishes; a refused commit changes nothing, so nothing is
//!   published.
//!
//! Both locks recover a poisoned guard (see `crate::recover`): a
//! panicking write leaves the registry at its old or its new state, so
//! it cannot wedge the writes after it.
//!
//! [`Touched`], [`DEFAULT_SHARDS`], the `shards` argument of
//! [`ShardedRegistry::open`] and [`ShardedRegistry::shard_members`] are
//! kept because the daemon benchmark (`gvbench`) still calls them; the
//! registry has no shards, so `mutate` and `open` ignore what they are
//! passed.

use std::sync::{Arc, Mutex, RwLock};

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::FormationScenario;

use crate::persist::PersistConfig;
use crate::recover;
use crate::registry::{GspRegistry, RegistrySnapshot};
use crate::Result;

/// The `shards` argument the daemon passes to
/// [`ShardedRegistry::open`], which ignores it.
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
    /// Digest of the committed set (0 when nothing is committed). The
    /// daemon does not read it: market solve-cache keys need no market
    /// state (see `crate::market`). The daemon benchmark passes it to
    /// `MarketCache::new`.
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

/// Which GSP ids a mutation touches. [`ShardedRegistry::mutate`]
/// ignores it; the daemon benchmark still passes one.
#[derive(Debug, Clone, Copy)]
pub enum Touched<'a> {
    /// Trust / receipt mutations: the ids whose edges or evidence
    /// change. Ids keep their meaning across the mutation.
    Ids(&'a [usize]),
    /// Membership churn (`add_gsp` / `remove_gsp`): ids renumber.
    All,
}

/// The daemon's registry: writes under one lock, snapshot reads that
/// never wait for a write. See the module docs.
#[derive(Debug)]
pub struct ShardedRegistry {
    /// The commit lock: owns the registry and its journal. Held only
    /// for the commit and the snapshot build.
    writer: Mutex<GspRegistry>,
    /// The published snapshot. Readers clone the `Arc` and get out.
    current: RwLock<Arc<EpochSnapshot>>,
}

impl ShardedRegistry {
    /// Bootstrap or recover (see [`GspRegistry::open`]) and publish
    /// the initial snapshot. `shards` is ignored; it is kept for
    /// callers that pass it.
    pub fn open(
        scenario: &FormationScenario,
        engine: ReputationEngine,
        _shards: usize,
        persist: Option<&PersistConfig>,
    ) -> Result<(Self, Option<u64>)> {
        let (registry, recovered) = GspRegistry::open(scenario, engine, persist)?;
        let snapshot = Arc::new(EpochSnapshot::build(&registry));
        let sharded =
            ShardedRegistry { writer: Mutex::new(registry), current: RwLock::new(snapshot) };
        Ok((sharded, recovered))
    }

    /// The current snapshot. This is the entire read path: one brief
    /// read lock to clone an `Arc`.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&*recover(self.current.read()))
    }

    /// The pool ids among `touched`, ascending and without repeats:
    /// the member ids whose cached solves the daemon evicts after a
    /// trust report or receipt about `touched`.
    pub fn shard_members(&self, touched: &[usize]) -> Vec<usize> {
        (0..self.snapshot().view.gsps).filter(|g| touched.contains(g)).collect()
    }

    /// Journal / snapshot counters, when persistence is on.
    pub fn store_stats(&self) -> Option<gridvo_store::StoreStats> {
        recover(self.writer.lock()).store_stats()
    }

    /// Run one write: `f` commits through the registry's one write path
    /// under the writer lock, and the new snapshot is built and swapped
    /// in *before* the writer lock drops, so the published epoch
    /// sequence is exactly the journal's. When `f` fails, nothing was
    /// committed and nothing is published. `touched` is ignored; it is
    /// kept for callers that pass it.
    pub fn mutate<T>(
        &self,
        _touched: Touched<'_>,
        f: impl FnOnce(&mut GspRegistry) -> Result<T>,
    ) -> Result<T> {
        let mut writer = recover(self.writer.lock());
        let out = f(&mut writer)?;
        *recover(self.current.write()) = Arc::new(EpochSnapshot::build(&writer));
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

    fn open() -> ShardedRegistry {
        ShardedRegistry::open(&scenario(), ReputationEngine::default(), DEFAULT_SHARDS, None)
            .unwrap()
            .0
    }

    #[test]
    fn snapshots_are_pinned_while_mutations_publish_new_epochs() {
        let reg = open();
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
    fn shard_members_are_the_touched_pool_ids() {
        let reg = open(); // pool ids 0, 1, 2
        assert_eq!(reg.shard_members(&[0]), vec![0]);
        assert_eq!(reg.shard_members(&[2, 0, 2]), vec![0, 2], "ascending, no repeats");
        assert_eq!(reg.shard_members(&[1, 9]), vec![1], "ids outside the pool are dropped");
    }

    #[test]
    fn a_panicking_write_does_not_wedge_the_registry() {
        let reg = open();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.mutate(Touched::All, |_| -> Result<()> { panic!("write panicked") })
        }));
        assert!(panicked.is_err());
        assert_eq!(reg.mutate(Touched::Ids(&[0, 1]), |r| r.report_trust(0, 1, 0.9)), Ok(1));
        assert_eq!(reg.snapshot().epoch, 1);
    }

    #[test]
    fn failed_mutations_leave_the_snapshot_alone() {
        let reg = open();
        let err = reg.mutate(Touched::Ids(&[0]), |r| r.report_trust(0, 99, 0.5));
        assert!(err.is_err());
        assert_eq!(reg.snapshot().epoch, 0, "no epoch, no publish");
    }

    #[test]
    fn concurrent_writers_produce_a_gapless_epoch_order() {
        let reg = std::sync::Arc::new(open());
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
