//! Byte pin of scenario generation: every scenario a Table-I
//! configuration draws over fixed seeds folds into one FNV-1a digest
//! of its GSP speeds, its instance's `canonical_hash` and its trust
//! weights (floats by their bits). The path covers the synthetic
//! Atlas trace, program extraction, the Braun matrices, deadline and
//! payment calibration and the Erdős–Rényi trust graph. The market
//! simulation's report is pinned the same way. A refactor of the
//! generators must leave every digest unchanged.

use gridvo_core::FormationScenario;
use gridvo_sim::config::TableI;
use gridvo_sim::instance_gen::ScenarioGenerator;
use gridvo_sim::market::{run_market, synthetic_trace, MarketConfig, MarketReport};
use rand::SeedableRng;

const SEEDS: [u64; 3] = [1, 2, 3];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn scenario(&mut self, s: &FormationScenario) {
        self.u64(s.gsp_count() as u64);
        for g in s.gsps() {
            self.f64(g.speed_gflops);
        }
        self.u64(s.instance().canonical_hash());
        let trust = s.trust();
        for i in 0..trust.node_count() {
            for j in 0..trust.node_count() {
                self.f64(trust.trust(i, j));
            }
        }
    }

    fn report(&mut self, r: &MarketReport) {
        self.u64(r.jobs);
        self.u64(r.formed);
        self.u64(r.shed);
        self.f64(r.mean_wait_s);
        self.u64(r.max_live_leases as u64);
        self.u64(r.stability_violations);
        for a in &r.per_app {
            self.bytes(a.app.as_bytes());
            self.u64(a.formed);
            self.u64(a.shed);
            self.f64(a.mean_wait_s);
        }
    }
}

fn digest(cfg: &TableI, tasks: usize) -> u64 {
    let generator = ScenarioGenerator::new(cfg.clone());
    let mut h = Fnv::new();
    for seed in SEEDS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = generator.scenario(tasks, &mut rng).expect("scenario generation runs");
        assert_eq!((s.gsp_count(), s.task_count()), (cfg.gsps, tasks));
        h.scenario(&s);
    }
    h.0
}

#[test]
fn small_table_scenarios_are_pinned() {
    let d = digest(&TableI::small(), 16);
    assert_eq!(d, 0x8fd7_5dcb_4e03_9caf, "TableI::small() at 16 tasks digest {d:#018x}");
    let d = digest(&TableI::small(), 32);
    assert_eq!(d, 0x807c_7660_fe4a_9796, "TableI::small() at 32 tasks digest {d:#018x}");
}

#[test]
fn paper_pool_scenarios_are_pinned() {
    let cfg = TableI { gsps: 16, task_sizes: vec![64], ..TableI::default() };
    let d = digest(&cfg, 64);
    assert_eq!(d, 0x2c95_7a24_2fd3_83a6, "16-GSP x 64-task digest {d:#018x}");
}

#[test]
fn market_report_is_pinned() {
    let cfg =
        MarketConfig { table: TableI { gsps: 4, ..TableI::small() }, ..MarketConfig::small() };
    let report = run_market(&synthetic_trace(24, 5), &cfg).expect("market simulation runs");
    assert!(report.formed > 0, "{report:?}");
    let mut h = Fnv::new();
    h.report(&report);
    assert_eq!(h.0, 0xfc75_5148_32c3_1b17, "market report digest {:#018x}", h.0);
}
