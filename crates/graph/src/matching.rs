//! Minimum-cost perfect matching on small complete graphs.
//!
//! The paper pairs the odd-degree vertices of the dual graph by
//! *maximum-weight* matching with weights `L − d(u,v)` (`L` larger than any
//! distance), which makes the maximum-weight matching perfect and equivalent
//! to **minimum total distance** perfect matching — the form implemented
//! here.
//!
//! Instead of the blossom algorithm the paper cites, this module uses an
//! exact `O(2ⁿ·n)` bitmask dynamic program for up to [`EXACT_LIMIT`]
//! vertices (every device the paper evaluates produces far fewer odd
//! vertices) and a greedy + 2-opt local-search fallback beyond that. The
//! DP is checked against brute force on pseudorandom costs by this
//! module's `dp_matches_brute_force_on_pseudorandom_costs` test.

/// Maximum vertex count for which the exact DP is used.
pub const EXACT_LIMIT: usize = 20;

/// Finds a perfect matching of minimum total cost on the complete graph
/// whose costs are given by `cost(i, j)`.
///
/// Returns pairs `(i, j)` with `i < j` covering every vertex exactly once.
///
/// # Panics
///
/// Panics if `n` is odd (no perfect matching exists).
///
/// # Example
///
/// ```
/// use zz_graph::matching::min_cost_perfect_matching;
///
/// // Points on a line: optimal pairing is adjacent pairs.
/// let xs = [0.0f64, 1.0, 10.0, 11.0];
/// let m = min_cost_perfect_matching(4, |i, j| (xs[i] - xs[j]).abs());
/// assert_eq!(m, vec![(0, 1), (2, 3)]);
/// ```
pub fn min_cost_perfect_matching(
    n: usize,
    cost: impl Fn(usize, usize) -> f64,
) -> Vec<(usize, usize)> {
    assert!(
        n.is_multiple_of(2),
        "perfect matching requires an even vertex count"
    );
    if n == 0 {
        return Vec::new();
    }
    if n <= EXACT_LIMIT {
        exact_dp(n, &cost)
    } else {
        greedy_two_opt(n, &cost)
    }
}

/// Exact bitmask DP: `dp[mask]` = minimum cost to perfectly match the
/// vertices in `mask`.
fn exact_dp(n: usize, cost: &impl Fn(usize, usize) -> f64) -> Vec<(usize, usize)> {
    let full = (1usize << n) - 1;
    let mut dp = vec![f64::INFINITY; full + 1];
    let mut choice: Vec<Option<(usize, usize)>> = vec![None; full + 1];
    dp[0] = 0.0;
    for mask in 0..=full {
        if dp[mask].is_infinite() {
            continue;
        }
        if mask == full {
            break;
        }
        // First unmatched vertex must pair with someone: no redundant states.
        let i = (!mask).trailing_zeros() as usize;
        for j in (i + 1)..n {
            if mask & (1 << j) == 0 {
                let next = mask | (1 << i) | (1 << j);
                let c = dp[mask] + cost(i, j);
                if c < dp[next] {
                    dp[next] = c;
                    choice[next] = Some((i, j));
                }
            }
        }
    }
    // Reconstruct.
    let mut pairs = Vec::with_capacity(n / 2);
    let mut mask = full;
    while mask != 0 {
        let (i, j) = choice[mask].expect("full matching must be reachable");
        pairs.push((i, j));
        mask &= !((1 << i) | (1 << j));
    }
    pairs.sort_unstable();
    pairs
}

/// Greedy nearest-pair matching improved by 2-opt swaps until a local
/// optimum. Used only beyond [`EXACT_LIMIT`] vertices.
fn greedy_two_opt(n: usize, cost: &impl Fn(usize, usize) -> f64) -> Vec<(usize, usize)> {
    // Greedy: repeatedly take the globally cheapest remaining pair.
    let mut unmatched: Vec<usize> = (0..n).collect();
    let mut pairs = Vec::with_capacity(n / 2);
    while !unmatched.is_empty() {
        let mut best = (0usize, 1usize, f64::INFINITY);
        for a in 0..unmatched.len() {
            for b in (a + 1)..unmatched.len() {
                let c = cost(unmatched[a], unmatched[b]);
                if c < best.2 {
                    best = (a, b, c);
                }
            }
        }
        let (a, b, _) = best;
        let (u, v) = (unmatched[a], unmatched[b]);
        pairs.push((u.min(v), u.max(v)));
        // Remove b first (larger index) to keep a valid.
        unmatched.swap_remove(b);
        unmatched.swap_remove(a);
    }

    // 2-opt: for each pair of pairs, try the two alternative re-pairings.
    let mut improved = true;
    while improved {
        improved = false;
        for p in 0..pairs.len() {
            for q in (p + 1)..pairs.len() {
                let (a, b) = pairs[p];
                let (c, d) = pairs[q];
                let current = cost(a, b) + cost(c, d);
                let alt1 = cost(a, c) + cost(b, d);
                let alt2 = cost(a, d) + cost(b, c);
                if alt1 < current - 1e-12 && alt1 <= alt2 {
                    pairs[p] = (a.min(c), a.max(c));
                    pairs[q] = (b.min(d), b.max(d));
                    improved = true;
                } else if alt2 < current - 1e-12 {
                    pairs[p] = (a.min(d), a.max(d));
                    pairs[q] = (b.min(c), b.max(c));
                    improved = true;
                }
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// Total cost of a matching under `cost`.
pub fn matching_cost(pairs: &[(usize, usize)], cost: impl Fn(usize, usize) -> f64) -> f64 {
    pairs.iter().map(|&(i, j)| cost(i, j)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force optimal matching cost by recursion (for cross-checks).
    fn brute_force(n: usize, cost: &impl Fn(usize, usize) -> f64) -> f64 {
        fn rec(remaining: &mut [usize], cost: &impl Fn(usize, usize) -> f64) -> f64 {
            if remaining.is_empty() {
                return 0.0;
            }
            let i = remaining[0];
            let mut best = f64::INFINITY;
            for idx in 1..remaining.len() {
                let j = remaining[idx];
                let mut rest: Vec<usize> = remaining[1..].to_vec();
                rest.retain(|&x| x != j);
                let c = cost(i, j) + rec(&mut rest, cost);
                if c < best {
                    best = c;
                }
            }
            best
        }
        rec(&mut (0..n).collect::<Vec<_>>(), cost)
    }

    #[test]
    fn empty_matching() {
        assert!(min_cost_perfect_matching(0, |_, _| 0.0).is_empty());
    }

    #[test]
    fn two_vertices_pair_up() {
        assert_eq!(min_cost_perfect_matching(2, |_, _| 1.0), vec![(0, 1)]);
    }

    #[test]
    fn dp_matches_brute_force_on_pseudorandom_costs() {
        for n in [4usize, 6, 8, 10] {
            let cost = move |i: usize, j: usize| {
                // Deterministic pseudo-random symmetric cost.
                let h = (i.min(j) * 31 + i.max(j) * 17) % 97;
                1.0 + h as f64
            };
            let m = min_cost_perfect_matching(n, cost);
            assert_eq!(m.len(), n / 2);
            let got = matching_cost(&m, cost);
            let want = brute_force(n, &cost);
            assert!((got - want).abs() < 1e-9, "n={n}: got {got}, want {want}");
        }
    }

    #[test]
    fn matching_covers_every_vertex_once() {
        let m = min_cost_perfect_matching(8, |i, j| ((i * j) % 7) as f64 + 1.0);
        let mut seen = [false; 8];
        for (i, j) in m {
            assert!(!seen[i] && !seen[j], "vertex matched twice");
            seen[i] = true;
            seen[j] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "even vertex count")]
    fn odd_count_panics() {
        let _ = min_cost_perfect_matching(3, |_, _| 1.0);
    }

    #[test]
    fn greedy_fallback_is_valid_and_locally_optimal() {
        // Force the fallback path with n > EXACT_LIMIT.
        let n = EXACT_LIMIT + 2;
        let cost = |i: usize, j: usize| ((i as f64) - (j as f64)).abs();
        let m = greedy_two_opt(n, &cost);
        assert_eq!(m.len(), n / 2);
        let mut seen = vec![false; n];
        for &(i, j) in &m {
            assert!(!seen[i] && !seen[j]);
            seen[i] = true;
            seen[j] = true;
        }
        // On a line metric, adjacent pairing is optimal: cost = n/2.
        assert!((matching_cost(&m, cost) - (n / 2) as f64).abs() < 1e-9);
    }
}
