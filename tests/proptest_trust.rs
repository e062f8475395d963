//! Property-based tests for the trust/reputation substrate.

use gridvo_trust::decay::{DecayModel, InteractionLedger, Outcome};
use gridvo_trust::generators;
use gridvo_trust::normalize::{is_row_stochastic, row_normalize};
use gridvo_trust::propagation::propagated_trust;
use gridvo_trust::{DenseMatrix, PowerMethod, TrustGraph};
use proptest::prelude::*;
use rand::SeedableRng;

/// Random trust graph: n nodes, random subset of edges with positive
/// weights.
fn trust_graph() -> impl Strategy<Value = TrustGraph> {
    (2usize..=10).prop_flat_map(|n| {
        proptest::collection::vec(0.0f64..1.0, n * n).prop_map(move |ws| {
            let mut g = TrustGraph::new(n);
            for i in 0..n {
                for j in 0..n {
                    let w = ws[i * n + j];
                    // sparsify: keep ~40% of edges, no self-loops
                    if i != j && w > 0.6 {
                        g.set_trust(i, j, w);
                    }
                }
            }
            g
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    #[test]
    fn normalization_is_row_stochastic(g in trust_graph()) {
        prop_assert!(is_row_stochastic(&row_normalize(&g), 1e-9));
    }

    #[test]
    fn normalization_preserves_proportions(g in trust_graph()) {
        let a = row_normalize(&g);
        let n = g.node_count();
        for i in 0..n {
            let sum = g.out_trust_sum(i);
            if sum > 0.0 {
                for j in 0..n {
                    prop_assert!((a[(i, j)] - g.trust(i, j) / sum).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn power_method_returns_probability_fixed_point(g in trust_graph()) {
        let a = row_normalize(&g);
        let rep = PowerMethod::default().run(&a).expect("lazy iteration converges");
        let sum: f64 = rep.scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-8, "not a distribution: {sum}");
        prop_assert!(rep.scores.iter().all(|&s| s >= -1e-12));
        // fixed point: ‖Aᵀx − λx‖∞ small
        let n = rep.scores.len();
        let mut ax = vec![0.0; n];
        a.mul_transpose_vec_into(&rep.scores, &mut ax).unwrap();
        for (l, r) in ax.iter().zip(rep.scores.iter()) {
            prop_assert!((l - rep.eigenvalue * r).abs() < 1e-5,
                "eigen equation violated: {l} vs λ·{r}");
        }
    }

    #[test]
    fn damped_power_method_always_converges(g in trust_graph()) {
        let a = row_normalize(&g);
        let rep = PowerMethod::damped(0.85).run(&a).expect("damped always converges");
        prop_assert!(rep.iterations < 10_000);
    }

    #[test]
    fn restriction_commutes_with_edge_lookup(g in trust_graph()) {
        let n = g.node_count();
        // take the even-indexed nodes
        let members: Vec<usize> = (0..n).step_by(2).collect();
        let sub = g.restrict(&members).expect("valid subset");
        for (a, &i) in members.iter().enumerate() {
            for (b, &j) in members.iter().enumerate() {
                prop_assert_eq!(sub.trust(a, b), g.trust(i, j));
            }
        }
    }

    #[test]
    fn er_generator_density_concentrates(p in 0.05f64..0.9, seed in 0u64..1000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = 60;
        let g = generators::erdos_renyi(&mut rng, m, p, 0.1..1.0);
        let density = g.density();
        // binomial concentration: 4 std devs over m(m−1) trials
        let trials = (m * (m - 1)) as f64;
        let tol = 4.0 * (p * (1.0 - p) / trials).sqrt() + 1e-9;
        prop_assert!((density - p).abs() <= tol,
            "density {density} vs p {p} (tol {tol})");
    }

    #[test]
    fn matrix_transpose_involution(vals in proptest::collection::vec(-5.0f64..5.0, 12)) {
        let m = DenseMatrix::from_rows(3, 4, vals).unwrap();
        let tt = m.transpose().transpose();
        prop_assert_eq!(m, tt);
    }

    #[test]
    fn mat_vec_linearity(
        vals in proptest::collection::vec(-2.0f64..2.0, 9),
        x in proptest::collection::vec(-2.0f64..2.0, 3),
        y in proptest::collection::vec(-2.0f64..2.0, 3),
    ) {
        let m = DenseMatrix::from_rows(3, 3, vals).unwrap();
        let xy: Vec<f64> = x.iter().zip(y.iter()).map(|(a, b)| a + b).collect();
        let mut mx = vec![0.0; 3];
        let mut my = vec![0.0; 3];
        let mut mxy = vec![0.0; 3];
        m.mul_vec_into(&x, &mut mx).unwrap();
        m.mul_vec_into(&y, &mut my).unwrap();
        m.mul_vec_into(&xy, &mut mxy).unwrap();
        for i in 0..3 {
            prop_assert!((mxy[i] - (mx[i] + my[i])).abs() < 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn power_method_is_permutation_equivariant(g in trust_graph(), shift in 1usize..5) {
        // relabeling GSPs by a cyclic shift permutes scores identically
        let n = g.node_count();
        let shift = shift % n;
        let perm: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
        // build the relabeled graph: new node p(i) = old node i
        let mut h = TrustGraph::new(n);
        for i in 0..n {
            for j in 0..n {
                let w = g.trust(i, j);
                if w > 0.0 {
                    h.set_trust(perm[i], perm[j], w);
                }
            }
        }
        let pm = PowerMethod::default();
        let rg = pm.run(&row_normalize(&g)).unwrap();
        let rh = pm.run(&row_normalize(&h)).unwrap();
        for (i, &p) in perm.iter().enumerate() {
            prop_assert!(
                (rg.scores[i] - rh.scores[p]).abs() < 1e-7,
                "score of node {i} changed under relabeling: {} vs {}",
                rg.scores[i], rh.scores[p]
            );
        }
    }

    #[test]
    fn dot_export_is_structurally_complete(g in trust_graph()) {
        let dot = g.to_dot("t");
        prop_assert_eq!(dot.matches("->").count(), g.edge_count());
        for i in 0..g.node_count() {
            let node_decl = format!("g{i} [label=");
            prop_assert!(dot.contains(&node_decl), "missing node {}", i);
        }
    }
}

/// Random interaction ledger: 2–6 GSPs, up to 30 timestamped
/// interactions in `[0, 50]` with mixed outcomes.
fn ledger_strategy() -> impl Strategy<Value = InteractionLedger> {
    (2usize..=6).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, 0.0f64..50.0, 0.0f64..1.0), 1..30).prop_map(
            move |evs| {
                let mut l = InteractionLedger::new(n);
                for (i, j, t, u) in evs {
                    if i != j {
                        let outcome = if u < 0.7 { Outcome::Delivered } else { Outcome::Failed };
                        l.record(i, j, t, outcome);
                    }
                }
                l
            },
        )
    })
}

/// Success-only variant (all interactions `Delivered`), for the
/// monotone-decay property where clamping can't interfere.
fn success_ledger_strategy() -> impl Strategy<Value = InteractionLedger> {
    ledger_strategy().prop_map(|l| {
        let mut s = InteractionLedger::new(l.gsp_count());
        for rec in l.iter() {
            s.record(rec.rater, rec.ratee, rec.time, Outcome::Delivered);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Decay weights are a monotone non-increasing map from age into
    /// `(0, 1]`, anchored at `weight(0) = 1`.
    #[test]
    fn decay_age_weight_is_monotone_and_bounded(
        hl in 1.0f64..100.0,
        a1 in 0.0f64..500.0,
        a2 in 0.0f64..500.0,
    ) {
        let m = DecayModel { half_life: hl, ..DecayModel::default() };
        let (lo, hi) = if a1 <= a2 { (a1, a2) } else { (a2, a1) };
        prop_assert!(m.age_weight(hi) <= m.age_weight(lo) + 1e-15);
        prop_assert!(m.age_weight(lo) > 0.0 && m.age_weight(lo) <= 1.0);
        prop_assert_eq!(m.age_weight(0.0), 1.0);
        // half-life semantics: weight halves exactly at age = half_life
        prop_assert!((m.age_weight(hl) - 0.5).abs() < 1e-12);
    }

    /// "Idempotent at rate 0": with decay disabled (infinite
    /// half-life, the paper's model), the materialized trust graph is
    /// time-invariant once all evidence is in the past.
    #[test]
    fn decay_at_rate_zero_is_idempotent(l in ledger_strategy(), dt in 0.0f64..1e6) {
        let m = DecayModel::default(); // half_life = ∞
        let g1 = m.trust_at(&l, 50.0);
        let g2 = m.trust_at(&l, 50.0 + dt);
        let n = l.gsp_count();
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(
                    g1.trust(i, j).to_bits(),
                    g2.trust(i, j).to_bits(),
                    "edge {}->{} changed with no decay", i, j
                );
            }
        }
    }

    /// Finite half-life decays trust monotonically toward the zero
    /// prior: total trust mass never grows as the query time advances
    /// past the last interaction, and vanishes in the limit.
    #[test]
    fn decay_is_monotone_toward_zero_prior(
        l in success_ledger_strategy(),
        hl in 1.0f64..20.0,
        d1 in 0.0f64..100.0,
        d2 in 0.0f64..100.0,
    ) {
        let m = DecayModel { half_life: hl, ..DecayModel::default() };
        let now1 = 50.0 + d1;
        let now2 = now1 + d2;
        let t1 = m.total_trust_at(&l, now1);
        let t2 = m.total_trust_at(&l, now2);
        prop_assert!(t2 <= t1 + 1e-12, "trust mass grew: {t1} -> {t2}");
        // limit: evidence a thousand half-lives old carries nothing
        prop_assert!(m.total_trust_at(&l, 50.0 + 1000.0 * hl) < 1e-6);
    }

    /// Propagated trust stays inside the unit interval (the
    /// row-stochastic property of the propagation operator on `[0,1]`
    /// weights), with a zero diagonal, and aggregating every path is
    /// at least the direct edge.
    #[test]
    fn propagation_stays_in_unit_interval(g in trust_graph(), hops in 1usize..=4) {
        let n = g.node_count();
        let agg = propagated_trust(&g, hops).expect("valid weights");
        for i in 0..n {
            prop_assert_eq!(agg[i * n + i], 0.0);
            for j in 0..n {
                let a = agg[i * n + j];
                prop_assert!((0.0..=1.0 + 1e-12).contains(&a), "aggregate {a} out of unit");
                if i != j {
                    prop_assert!(a >= g.trust(i, j) - 1e-12,
                        "aggregate below the direct edge {} -> {}", i, j);
                }
            }
        }
    }

    /// More hops can only reveal more paths: propagated trust is
    /// pointwise monotone in `max_hops`.
    #[test]
    fn propagation_is_monotone_in_hops(g in trust_graph(), hops in 1usize..=3) {
        let n = g.node_count();
        let short = propagated_trust(&g, hops).expect("valid weights");
        let long = propagated_trust(&g, hops + 1).expect("valid weights");
        for k in 0..n * n {
            prop_assert!(long[k] >= short[k] - 1e-12, "trust dropped with more hops");
        }
    }

    /// The propagation-based reputation engine, like every engine,
    /// returns an L1-normalized (probability) score vector.
    #[test]
    fn propagation_engine_scores_are_a_distribution(g in trust_graph(), hops in 1usize..=3) {
        use gridvo_core::reputation::ReputationEngine;
        let members: Vec<usize> = (0..g.node_count()).collect();
        let rep = ReputationEngine::PathPropagation { max_hops: hops }
            .compute(&g, &members)
            .expect("propagation engine runs");
        let sum: f64 = rep.scores.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "scores sum to {sum}, not 1");
        prop_assert!(rep.scores.iter().all(|&s| s >= 0.0));
    }
}
