//! Beyond-paper: the decaying-trust freeze critique.
//!
//! The paper's related-work section argues (against Azzedin &
//! Maheswaran) that trust models in which evidence decays with time
//! converge to a state where new VO formation becomes impossible. This
//! experiment demonstrates it: an interaction ledger replays repeated
//! collaborations among a stable clique, then the simulated clock
//! advances without new interactions; under exponential decay the
//! total trust mass — and with it the number of GSPs any power-method
//! reputation can distinguish from zero — collapses, while the
//! no-decay model (the paper's choice) keeps the trust graph intact.

use gridvo_bench::{ascii_table, BenchArgs};
use gridvo_trust::decay::{DecayModel, InteractionLedger, Outcome};

fn main() {
    let args = BenchArgs::from_env();
    let m = 16;
    let mut ledger = InteractionLedger::new(m);
    // A year of weekly collaborations inside two cliques.
    let week = 7.0 * 86_400.0;
    for w in 0..52 {
        let t = w as f64 * week;
        for i in 0..8usize {
            for j in 0..8usize {
                if i != j {
                    ledger.record(i, j, t, Outcome::Delivered);
                }
            }
        }
        for i in 8..16usize {
            for j in 8..16usize {
                if i != j && (i + j + w) % 3 != 0 {
                    ledger.record(i, j, t, Outcome::Delivered);
                }
            }
        }
    }

    let no_decay = DecayModel::default();
    let month_decay = DecayModel { half_life: 30.0 * 86_400.0 };

    let mut rows = Vec::new();
    let mut csv =
        String::from("months_after,no_decay_edges,no_decay_mass,decay_edges,decay_mass\n");
    for months in [0u32, 3, 6, 12, 24] {
        let now = 52.0 * week + months as f64 * 30.0 * 86_400.0;
        let g0 = no_decay.trust_at(&ledger, now);
        let g1 = month_decay.trust_at(&ledger, now);
        let mass0 = no_decay.total_trust_at(&ledger, now);
        let mass1 = month_decay.total_trust_at(&ledger, now);
        rows.push(vec![
            months.to_string(),
            g0.edge_count().to_string(),
            format!("{:.0}", mass0),
            g1.edge_count().to_string(),
            format!("{:.2}", mass1),
        ]);
        csv.push_str(&format!(
            "{},{},{:.2},{},{:.4}\n",
            months,
            g0.edge_count(),
            mass0,
            g1.edge_count(),
            mass1
        ));
    }
    println!(
        "{}",
        ascii_table(
            &[
                "months idle",
                "edges (no decay)",
                "mass (no decay)",
                "edges (30d half-life)",
                "mass (30d half-life)"
            ],
            &rows
        )
    );
    println!(
        "under decay the trust graph empties within months of inactivity — \
         no new VO can form; without decay (the paper's model) history persists"
    );
    args.write_artifact("decay_freeze.csv", &csv).unwrap();
}
