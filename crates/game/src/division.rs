//! Payoff division rules.
//!
//! The paper divides a VO's profit **equally** among its members
//! (eq. (18)): the Shapley value is the classic alternative but costs
//! exponential time, which is exactly why the paper rejects it. Both
//! are implemented here — equal sharing as the mechanism's rule, and
//! Shapley (exact + Monte Carlo) for the payoff-division ablation.

use crate::characteristic::CharacteristicFn;
use crate::coalition::Coalition;
use crate::{GameError, Result};
use rand::seq::SliceRandom;
use rand::Rng;

/// Equal sharing (eq. (18)): every member of `coalition` receives
/// `v(C) / |C|`. Returns one entry per member, in member order.
/// The empty coalition gets an empty vector.
pub fn equal_split<G: CharacteristicFn + ?Sized>(game: &G, coalition: Coalition) -> Vec<f64> {
    let k = coalition.len();
    if k == 0 {
        return Vec::new();
    }
    let share = game.value(coalition) / k as f64;
    vec![share; k]
}

/// Exact Shapley value of the **grand coalition**, by dynamic
/// programming over subsets: `O(2^n · n)` time, `O(2^n)` space.
/// Capped at 20 players.
///
/// `φ_i = Σ_{S ⊆ N∖{i}} |S|!(n−1−|S|)!/n! · [v(S∪{i}) − v(S)]`.
pub fn shapley_exact<G: CharacteristicFn + ?Sized>(game: &G) -> Result<Vec<f64>> {
    let n = game.player_count();
    if n > 20 {
        return Err(GameError::TooManyPlayers { players: n, cap: 20 });
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    // Precompute v over the whole powerset once.
    let size = 1usize << n;
    let mut v = vec![0.0f64; size];
    for (bits, slot) in v.iter_mut().enumerate() {
        *slot = game.value(Coalition::from_bits(bits as u64));
    }
    // weight[s] = s!(n−1−s)!/n! computed in log-space-free factorial
    // ratios (n ≤ 20 keeps factorials inside f64's exact-integer range
    // for the ratio computed incrementally).
    let mut weight = vec![0.0f64; n];
    // weight[0] = (n−1)!/n! = 1/n; weight[s] = weight[s−1] · s/(n−1−s+1)
    weight[0] = 1.0 / n as f64;
    for s in 1..n {
        weight[s] = weight[s - 1] * s as f64 / (n - s) as f64;
    }
    let mut phi = vec![0.0f64; n];
    for bits in 0..size {
        let s = Coalition::from_bits(bits as u64);
        let slen = s.len();
        for i in 0..n {
            if !s.contains(i) {
                let gain = v[bits | (1 << i)] - v[bits];
                phi[i] += weight[slen] * gain;
            }
        }
    }
    Ok(phi)
}

/// Monte Carlo Shapley value: average marginal contributions over
/// `samples` random permutations. Unbiased; standard error shrinks as
/// `1/√samples`. Works for any player count.
pub fn shapley_monte_carlo<G: CharacteristicFn + ?Sized, R: Rng + ?Sized>(
    game: &G,
    samples: usize,
    rng: &mut R,
) -> Vec<f64> {
    let n = game.player_count();
    if n == 0 || samples == 0 {
        return vec![0.0; n];
    }
    let mut phi = vec![0.0f64; n];
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..samples {
        perm.shuffle(rng);
        let mut s = Coalition::EMPTY;
        let mut prev = game.value(s);
        for &i in &perm {
            s = s.with(i);
            let cur = game.value(s);
            phi[i] += cur - prev;
            prev = cur;
        }
    }
    for p in phi.iter_mut() {
        *p /= samples as f64;
    }
    phi
}

/// Efficiency audit: shares sum to `v(C)` within `tol`.
pub fn is_efficient<G: CharacteristicFn + ?Sized>(
    game: &G,
    coalition: Coalition,
    shares: &[f64],
    tol: f64,
) -> bool {
    (shares.iter().sum::<f64>() - game.value(coalition)).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristic::TableGame;
    use rand::SeedableRng;

    #[test]
    fn equal_split_divides_evenly() {
        let g = TableGame::new(2, vec![0.0, 2.0, 2.0, 10.0]).unwrap();
        let shares = equal_split(&g, Coalition::grand(2));
        assert_eq!(shares, vec![5.0, 5.0]);
        assert!(is_efficient(&g, Coalition::grand(2), &shares, 1e-12));
        assert!(equal_split(&g, Coalition::EMPTY).is_empty());
    }

    #[test]
    fn shapley_symmetric_game_splits_equally() {
        let g = TableGame::majority3();
        let phi = shapley_exact(&g).unwrap();
        for &p in &phi {
            assert!((p - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn shapley_additive_game_returns_weights() {
        let g = TableGame::additive(&[1.0, 2.0, 3.0]).unwrap();
        let phi = shapley_exact(&g).unwrap();
        assert!((phi[0] - 1.0).abs() < 1e-12);
        assert!((phi[1] - 2.0).abs() < 1e-12);
        assert!((phi[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn shapley_unanimity_splits_over_carrier() {
        let carrier = Coalition::from_members([0, 2]);
        let g = TableGame::unanimity(4, carrier).unwrap();
        let phi = shapley_exact(&g).unwrap();
        assert!((phi[0] - 0.5).abs() < 1e-12);
        assert!((phi[2] - 0.5).abs() < 1e-12);
        assert!(phi[1].abs() < 1e-12);
        assert!(phi[3].abs() < 1e-12);
    }

    #[test]
    fn shapley_is_efficient() {
        let g = TableGame::new(3, vec![0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0]).unwrap();
        let phi = shapley_exact(&g).unwrap();
        assert!((phi.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_approaches_exact() {
        let g = TableGame::new(3, vec![0.0, 1.0, 2.0, 4.0, 3.0, 5.0, 6.0, 10.0]).unwrap();
        let exact = shapley_exact(&g).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mc = shapley_monte_carlo(&g, 20_000, &mut rng);
        for (e, m) in exact.iter().zip(mc.iter()) {
            assert!((e - m).abs() < 0.05, "MC too far from exact: {e} vs {m}");
        }
        // MC is exactly efficient per-sample, hence on average
        assert!((mc.iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_zero_samples_is_zero() {
        let g = TableGame::majority3();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(shapley_monte_carlo(&g, 0, &mut rng), vec![0.0; 3]);
    }

    #[test]
    fn shapley_caps_players() {
        struct Big;
        impl CharacteristicFn for Big {
            fn player_count(&self) -> usize {
                25
            }
            fn value(&self, _c: Coalition) -> f64 {
                0.0
            }
        }
        assert!(matches!(
            shapley_exact(&Big),
            Err(GameError::TooManyPlayers { players: 25, cap: 20 })
        ));
    }
}
