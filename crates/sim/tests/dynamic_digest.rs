//! Byte pin of `dynamic::simulate`: each configuration's round records
//! over fixed seeds fold into one FNV-1a digest of the fields a caller
//! reads (round, members, mean reliability, delivery, failed members,
//! payoff share; floats by their bits). A refactor of the simulator
//! must leave every digest unchanged.

use gridvo_core::mechanism::{FormationConfig, Mechanism};
use gridvo_sim::adversary::{AdversaryKind, BetaDynamics};
use gridvo_sim::config::TableI;
use gridvo_sim::dynamic::{simulate, DynamicConfig, RoundRecord};
use rand::SeedableRng;

const SEEDS: [u64; 3] = [1, 2, 3];
const ROUNDS: usize = 10;

fn config(beta: Option<BetaDynamics>) -> DynamicConfig {
    let table = TableI {
        gsps: 6,
        task_sizes: vec![18],
        trace_jobs: 1_500,
        deadline_factor_range: (4.0, 16.0),
        ..TableI::default()
    };
    let reliabilities = vec![0.98, 0.95, 0.95, 0.9, 0.35, 0.25];
    let mut cfg = DynamicConfig::new(table, ROUNDS, 18, reliabilities);
    cfg.beta = beta;
    cfg
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn ids(&mut self, ids: &[usize]) {
        self.u64(ids.len() as u64);
        for &g in ids {
            self.u64(g as u64);
        }
    }

    fn record(&mut self, r: &RoundRecord) {
        self.u64(r.round as u64);
        self.ids(&r.members);
        self.u64(r.mean_reliability.to_bits());
        self.u64(u64::from(r.delivered));
        self.ids(&r.failed_members);
        self.u64(r.payoff_share.to_bits());
    }
}

fn digest(cfg: &DynamicConfig, mechanism: Mechanism) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let (mut delivered, mut failed) = (0, 0);
    for seed in SEEDS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let records = simulate(cfg, mechanism, &mut rng).expect("dynamic simulation runs");
        assert_eq!(records.len(), ROUNDS);
        for r in &records {
            h.record(r);
            delivered += usize::from(r.delivered);
            failed += usize::from(!r.failed_members.is_empty());
        }
    }
    // Both evidence signs reach the trust graph, so the pin covers them.
    assert!(delivered > 0 && failed > 0, "{delivered} delivered, {failed} failed rounds");
    h.0
}

#[test]
fn classic_tvof_records_are_pinned() {
    let d = digest(&config(None), Mechanism::tvof(FormationConfig::default()));
    assert_eq!(d, 0x1195_bf10_0fcf_f8fe, "classic TVOF digest {d:#018x}");
}

#[test]
fn classic_rvof_records_are_pinned() {
    let d = digest(&config(None), Mechanism::rvof(FormationConfig::default()));
    assert_eq!(d, 0x10c3_ec49_ed40_9a50, "classic RVOF digest {d:#018x}");
}

#[test]
fn beta_whitewash_records_are_pinned() {
    let attack = BetaDynamics::attack(vec![4, 5], AdversaryKind::Whitewash { period: 3 });
    let d = digest(&config(Some(attack)), Mechanism::tvof(FormationConfig::default()));
    assert_eq!(d, 0x4254_e417_a7a8_3c04, "Beta whitewash TVOF digest {d:#018x}");
}
