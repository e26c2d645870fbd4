//! Route-case probabilities for regular messages (Eqs. 11–15 and 31),
//! generalized to arbitrary dimension counts.
//!
//! A regular message picks a uniformly-random destination among the other
//! `N - 1` nodes.  On the paper's `k × k` torus under x-then-y
//! dimension-order routing it falls into exactly one of five cases, whose
//! probabilities (averaged over sources, exact `N-1` denominators) are:
//!
//! | case | destination constraint | probability |
//! |------|-------------------------|-------------|
//! | y-only, hot ring | `dx = 0`, source in hot column | `1/(k(k+1))` |
//! | y-only, non-hot ring | `dx = 0`, source elsewhere | `(k-1)/(k(k+1))` |
//! | x-only | `dy = 0` | `1/(k+1)` |
//! | x then hot y-ring | `dx ≠ 0`, `dy ≠ 0`, dest in hot column | `(k-1)/(k(k+1))` |
//! | x then non-hot y-ring | `dx ≠ 0`, `dy ≠ 0`, dest elsewhere | `(k-1)²/(k(k+1))` |
//!
//! [`entry_cases`] carries the n-dimensional form: the cases grouped by
//! the dimension and ring a message enters through.  The five closed forms
//! and the 3-D families are each verified against brute-force enumeration
//! of all `(src, dest)` pairs in the tests, and the 2-D families against
//! the five closed forms.

/// One entry family of the generalized route-case decomposition: the first
/// dimension a regular message moves in, and whether the ring it enters
/// through carries hot-spot traffic.
///
/// The n-dimensional analogues of Eqs. (11)–(15) partition regular
/// messages by their *entry channel family* — finer case splits (which
/// later dimensions are visited, hot or not) only change the expected
/// remaining service, which the solver folds in by linearity of the
/// affine service chains.  With a uniform destination among the other
/// `N - 1` nodes:
///
/// ```text
/// P(entry at dim d)           = (k-1) k^{n-1-d} / (N-1)
/// P(entry ring is hot | d)    = k^{-d}
/// ```
///
/// (entry at `d` pins the `d` lower destination coordinates to the
/// source's, leaves `k-1` choices in `d` and `k` in each higher dimension;
/// the entry ring is hot iff the source — and hence destination — matches
/// the hot node on every dimension below `d`, which no dimension-0 ring
/// can fail).  At `n = 2` the families aggregate the paper's five cases:
/// `(0, hot)` is the three x-entering cases, `(1, hot)`/`(1, nonhot)` are
/// the y-only cases.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EntryCase {
    /// The first dimension the message moves in.
    pub dim: u32,
    /// Whether the entry ring carries hot-spot traffic (always true for
    /// dimension 0).
    pub hot: bool,
    /// Probability of the family over uniform `(src, dest)` pairs with
    /// `dest != src`.
    pub probability: f64,
}

/// The generalized entry-family probabilities for a k-ary n-cube; the
/// families partition the regular messages, so the probabilities sum to 1.
pub fn entry_cases(k: u32, n: u32) -> Vec<EntryCase> {
    assert!(k >= 2);
    assert!(n >= 1);
    let kf = k as f64;
    let nodes = (k as u64).pow(n) as f64;
    let mut cases = Vec::with_capacity(2 * n as usize);
    for d in 0..n {
        let p_entry = (kf - 1.0) * kf.powi((n - 1 - d) as i32) / (nodes - 1.0);
        let hot_share = kf.powi(-(d as i32));
        cases.push(EntryCase {
            dim: d,
            hot: true,
            probability: p_entry * hot_share,
        });
        if d > 0 {
            cases.push(EntryCase {
                dim: d,
                hot: false,
                probability: p_entry * (1.0 - hot_share),
            });
        }
    }
    cases
}

/// The paper's five regular route cases on the `k × k` torus (module
/// table), in table order: y-only in the hot ring, y-only elsewhere,
/// x-only, x then the hot y-ring, x then a non-hot y-ring.
#[cfg(test)]
pub(crate) fn five_cases(k: u32) -> [f64; 5] {
    let kf = k as f64;
    let denom = kf * (kf + 1.0);
    [
        1.0 / denom,
        (kf - 1.0) / denom,
        1.0 / (kf + 1.0),
        (kf - 1.0) / denom,
        (kf - 1.0) * (kf - 1.0) / denom,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use kncube_topology::KAryNCube;

    const CASE_NAMES: [&str; 5] = ["y-hot", "y-non", "x-only", "x-hot", "x-non"];

    #[test]
    fn probabilities_sum_to_one() {
        for k in 2..=32 {
            let p = five_cases(k);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12, "k={k}");
            let kf = k as f64;
            let enters_via_x = p[2] + p[3] + p[4];
            assert!((enters_via_x - kf / (kf + 1.0)).abs() < 1e-12);
        }
    }

    /// Brute-force oracle: enumerate every (src, dest) pair with dest ≠ src
    /// and classify its dimension-order route relative to a hot column.
    fn enumerate(k: u32) -> [f64; 5] {
        let t = KAryNCube::unidirectional(k, 2).unwrap();
        let hot = t.node_at(&[1 % k, 2 % k]);
        let hot_x = t.coord(hot, 0);
        let mut counts = [0u64; 5];
        let mut total = 0u64;
        for src in t.nodes() {
            for dest in t.nodes() {
                if src == dest {
                    continue;
                }
                total += 1;
                let moves_x = t.coord(src, 0) != t.coord(dest, 0);
                let moves_y = t.coord(src, 1) != t.coord(dest, 1);
                let idx = match (moves_x, moves_y) {
                    (false, true) => {
                        if t.coord(src, 0) == hot_x {
                            0
                        } else {
                            1
                        }
                    }
                    (true, false) => 2,
                    (true, true) => {
                        if t.coord(dest, 0) == hot_x {
                            3
                        } else {
                            4
                        }
                    }
                    (false, false) => unreachable!("src == dest filtered"),
                };
                counts[idx] += 1;
            }
        }
        counts.map(|c| c as f64 / total as f64)
    }

    #[test]
    fn closed_forms_match_bruteforce() {
        for k in [2u32, 3, 4, 5, 8] {
            let exact = enumerate(k);
            let model = five_cases(k);
            for ((a, b), name) in exact.iter().zip(&model).zip(CASE_NAMES) {
                assert!(
                    (a - b).abs() < 1e-12,
                    "k={k} case {name}: enumerated {a} vs closed form {b}"
                );
            }
        }
    }

    #[test]
    fn entry_cases_aggregate_the_five_2d_cases() {
        for k in [2u32, 3, 4, 8, 16] {
            let [y_hot, y_non, x_only, x_hot, x_non] = five_cases(k);
            let cases = entry_cases(k, 2);
            let find = |dim: u32, hot: bool| {
                cases
                    .iter()
                    .find(|c| c.dim == dim && c.hot == hot)
                    .map(|c| c.probability)
                    .unwrap_or(0.0)
            };
            assert!(
                (find(0, true) - (x_only + x_hot + x_non)).abs() < 1e-12,
                "k={k}"
            );
            assert!((find(1, true) - y_hot).abs() < 1e-12);
            assert!((find(1, false) - y_non).abs() < 1e-12);
            let total: f64 = cases.iter().map(|c| c.probability).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn entry_cases_match_bruteforce_in_3d() {
        // Enumerate (src, dest) pairs of a 3-D cube and classify by entry
        // dimension + hot-prefix, with the hot node pinned arbitrarily.
        for k in [2u32, 3, 4] {
            let t = KAryNCube::unidirectional(k, 3).unwrap();
            let hot = t.node_at(&[1 % k, 2 % k, 0]);
            let mut counts = std::collections::HashMap::new();
            let mut total = 0u64;
            for src in t.nodes() {
                for dest in t.nodes() {
                    if src == dest {
                        continue;
                    }
                    total += 1;
                    let entry = (0..3)
                        .find(|&d| t.coord(src, d) != t.coord(dest, d))
                        .unwrap();
                    let hot_ring = (0..entry).all(|d| t.coord(src, d) == t.coord(hot, d));
                    *counts.entry((entry, hot_ring)).or_insert(0u64) += 1;
                }
            }
            for case in entry_cases(k, 3) {
                let counted =
                    counts.get(&(case.dim, case.hot)).copied().unwrap_or(0) as f64 / total as f64;
                assert!(
                    (counted - case.probability).abs() < 1e-12,
                    "k={k} dim={} hot={}: enumerated {counted} vs closed {}",
                    case.dim,
                    case.hot,
                    case.probability
                );
            }
        }
    }

    #[test]
    fn route_case_probabilities_are_ordered_sensibly() {
        // For k >= 3 the dominant case is x-then-non-hot-y (two random
        // coordinates both differ, non-hot column); the rarest is
        // y-only within the single hot ring.
        let [y_hot, y_non, x_only, x_hot, x_non] = five_cases(16);
        assert!(x_non > x_only);
        assert!(x_only > x_hot);
        assert!(x_hot > y_hot);
        assert!((x_hot - y_non).abs() < 1e-15);
    }
}
