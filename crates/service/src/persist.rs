//! Durability: a [`GspRegistry`] whose commits stream into a
//! `gridvo-store` journal.
//!
//! Opened without a [`PersistConfig`], a registry keeps no journal
//! (the default — `gridvo serve` without `--data-dir`). With one,
//! every write (`GspRegistry::commit`) appends its
//! [`RegistryEvent`](crate::registry::RegistryEvent) to the journal
//! *before* the mutation takes effect or is acknowledged, and the
//! journal is compacted into a full-state snapshot once it crosses
//! the size threshold.
//!
//! ## Recovery
//!
//! [`GspRegistry::open`] on a non-empty data directory rebuilds the
//! registry from the newest snapshot
//! ([`GspRegistry::from_persisted`]) and replays the journal tail
//! ([`GspRegistry::apply_event`]) through the live commit path, but
//! before it attaches the journal — so recovery never rewrites the
//! journal it is reading. The recovered registry is bit-identical to
//! the uninterrupted run at the same epoch: the snapshot carries the
//! exact reputation vector, so the power-method warm-start chain
//! continues unchanged (`tests/persistence.rs` and the SIGKILL harness
//! in `crates/cli/tests/cli_persistence.rs` hold this to byte
//! equality).
//!
//! ## Ordering
//!
//! A commit stages the mutation on a copy of the pool, appends its
//! event, and only then swaps the copy in and bumps the epoch, all
//! under the daemon's writer lock — so the journal order is the epoch
//! order and the served state is never ahead of the journal. A
//! mutation that fails validation, its reputation refresh or its
//! append (disk full, dir vanished) is answered with the error and
//! leaves the registry and the journal as they were; the journal
//! drops any part of a failed append. An acknowledged mutation is in
//! the journal, durable per the fsync policy. Compaction runs after
//! that point: if it fails, the write is still acknowledged, the
//! journal simply stays long, and the next append retries.

use gridvo_core::reputation::ReputationEngine;
use gridvo_core::FormationScenario;
use gridvo_store::{Store, StoreConfig, StoreStats};

use crate::registry::GspRegistry;
use crate::Result;

/// The registry's name from when the journal lived in a wrapper
/// around it; [`GspRegistry`] now owns its journal.
pub type DurableRegistry = GspRegistry;

/// Where and how durably to journal registry mutations: the store's
/// own config. Its data directory holds `journal.log` and snapshots;
/// it is created if absent, and a non-empty one is recovered from.
pub type PersistConfig = StoreConfig;

impl GspRegistry {
    /// Bootstrap or recover. With `persist == None` this is
    /// [`GspRegistry::from_scenario`], journaling nothing. With a
    /// config:
    ///
    /// * an empty (or absent) data directory bootstraps the registry
    ///   from `scenario` and writes the epoch-0 snapshot, so recovery
    ///   always has a base;
    /// * a non-empty directory is recovered — **`scenario` is
    ///   ignored** in favor of the durable state — and the recovered
    ///   epoch is returned as `Some(epoch)`.
    pub fn open(
        scenario: &FormationScenario,
        engine: ReputationEngine,
        persist: Option<&PersistConfig>,
    ) -> Result<(Self, Option<u64>)> {
        let Some(config) = persist else {
            return Ok((GspRegistry::from_scenario(scenario, engine)?, None));
        };
        let (mut store, recovered) = Store::open(config)?;
        let mut registry = match &recovered {
            Some(rec) => {
                let mut registry = GspRegistry::from_persisted(&rec.snapshot, engine)?;
                for event in &rec.tail {
                    registry.apply_event(event)?;
                }
                registry
            }
            None => {
                let registry = GspRegistry::from_scenario(scenario, engine)?;
                store.bootstrap(&registry.persisted_state()?)?;
                registry
            }
        };
        let epoch = recovered.is_some().then(|| registry.epoch());
        registry.journal = Some(store);
        Ok((registry, epoch))
    }

    /// Journal / snapshot counters, when persistence is on.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.journal.as_ref().map(Store::stats)
    }

    /// Snapshot and truncate the journal once it has crossed the
    /// compaction threshold. A failure leaves the journal in place
    /// (see the module docs), so the next commit tries again.
    pub(crate) fn compact_if_due(&mut self) {
        if !self.journal.as_ref().is_some_and(Store::should_compact) {
            return;
        }
        if let (Ok(state), Some(journal)) = (self.persisted_state(), self.journal.as_mut()) {
            let _ = journal.compact(&state);
        }
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

    fn scratch(name: &str) -> PersistConfig {
        let dir =
            std::env::temp_dir().join(format!("gridvo-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PersistConfig::new(dir)
    }

    #[test]
    fn in_memory_mode_journals_nothing() {
        let (mut durable, recovered) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), None).unwrap();
        assert!(recovered.is_none());
        durable.report_trust(0, 1, 0.9).unwrap();
        assert!(durable.store_stats().is_none());
    }

    #[test]
    fn restart_recovers_the_exact_registry() {
        let config = scratch("restart");
        let engine = ReputationEngine::default;
        let (mut durable, recovered) =
            DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
        assert!(recovered.is_none(), "fresh directory must bootstrap, not recover");
        durable.report_trust(0, 2, 0.9).unwrap();
        durable.add_gsp(90.0, &[2.0; 4], &[1.5; 4]).unwrap();
        durable.remove_gsp(1).unwrap();
        let want_snapshot = serde_json::to_string(&durable.snapshot()).unwrap();
        let want_reputation = durable.reputation().to_vec();
        drop(durable);

        let (recovered_reg, epoch) =
            DurableRegistry::open(&scenario(), engine(), Some(&config)).unwrap();
        assert_eq!(epoch, Some(3));
        assert_eq!(serde_json::to_string(&recovered_reg.snapshot()).unwrap(), want_snapshot);
        assert_eq!(recovered_reg.reputation(), want_reputation);
        let _ = std::fs::remove_dir_all(&config.dir);
    }

    #[test]
    fn compaction_truncates_and_recovery_still_works() {
        let mut config = scratch("compact");
        config.compact_bytes = 1; // compact after every append
        let (mut durable, _) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        for i in 0..6u64 {
            durable.report_trust(0, 1, 0.3 + (i as f64) * 0.1).unwrap();
        }
        let stats = durable.store_stats().unwrap();
        assert_eq!(stats.compactions, 6);
        assert_eq!(stats.journal_len, 0, "every append was compacted away");
        let want = serde_json::to_string(&durable.snapshot()).unwrap();
        drop(durable);

        let (recovered, epoch) =
            DurableRegistry::open(&scenario(), ReputationEngine::default(), Some(&config)).unwrap();
        assert_eq!(epoch, Some(6));
        assert_eq!(serde_json::to_string(&recovered.snapshot()).unwrap(), want);
        let _ = std::fs::remove_dir_all(&config.dir);
    }
}
