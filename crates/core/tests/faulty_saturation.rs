//! Differential test of the faulty model's saturation search.
//!
//! [`FaultyNCubeModel::saturation`] brackets λ* from the channel-capacity
//! bound `λ_c` instead of bisecting a wide bracket.  Over fault samples on
//! bidirectional tori and meshes, `k ∈ {4, 8}`, `n ∈ {2, 3}`, and every
//! combination of `V ∈ {1, 2, 4}`, `Lm ∈ {8, 32, 100}` and
//! `h ∈ {0, 0.2, 0.7}`, it must agree with
//! [`find_saturation`] over `[1e-9, 1e-1]` to the search tolerance, in at
//! most one probe more.  The grid includes source-queue-bound
//! configurations (`h = 0`, `V = 1`: λ* below `(1 − ε)·λ_c`, down to about
//! half of it), where the first probe at `(1 − ε)·λ_c` saturates and the
//! search bisects below it.

use kncube_core::sweep::find_saturation;
use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel};
use kncube_topology::{Channel, Direction, FaultSet, KAryNCube};

const REL_TOL: f64 = 1e-3;

/// Fail each router with probability about `1/node_every` and each
/// physical link `(node, dim, Plus)` with probability about
/// `1/link_every`, placed by a seeded hash.
fn sampled_faults(topo: KAryNCube, seed: u64, node_every: u64, link_every: u64) -> FaultSet {
    let hash = |key: u64| (key ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    let mut faults = FaultSet::none(topo);
    for node in topo.nodes() {
        if hash(u64::from(node.0) << 8) % node_every == 0 {
            faults.fail_node(node);
        }
        for dim in 0..topo.n() {
            let key = u64::from(node.0) * u64::from(topo.n()) + u64::from(dim);
            if hash(key) % link_every == 0 {
                faults.fail_link(Channel {
                    from: node,
                    dim,
                    direction: Direction::Plus,
                });
            }
        }
    }
    faults
}

#[test]
fn bound_bracketed_saturation_matches_the_wide_bisection() {
    for (seed, (k, n)) in [(4u32, 2u32), (8, 2), (4, 3), (8, 3)]
        .into_iter()
        .enumerate()
    {
        let geometries = [
            KAryNCube::bidirectional(k, n).unwrap(),
            KAryNCube::mesh(k, n).unwrap(),
        ];
        for topo in geometries {
            let faults = sampled_faults(topo, seed as u64 + 1, 50, 20);
            assert!(!faults.is_empty(), "{topo:?}: no faults sampled");
            for v in [1, 2, 4] {
                for lm in [8, 32, 100] {
                    for h in [0.0, 0.2, 0.7] {
                        let ctx = format!("{topo:?} V={v} Lm={lm} h={h}");
                        let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(
                            faults.clone(),
                            v,
                            lm,
                            0.0,
                            h,
                        ))
                        .unwrap();
                        let fast = model.saturation(1e-9, 1e-1, REL_TOL).unwrap();
                        let wide = find_saturation(&model, 1e-9, 1e-1, REL_TOL).unwrap();
                        let gap = (fast.lambda_star - wide.lambda_star).abs();
                        assert!(
                            gap <= REL_TOL * wide.lambda_star,
                            "{ctx}: λ* {:e} vs the wide bisection's {:e}",
                            fast.lambda_star,
                            wide.lambda_star
                        );
                        assert!(
                            fast.probes <= wide.probes + 1,
                            "{ctx}: {} probes vs the wide bisection's {}",
                            fast.probes,
                            wide.probes
                        );
                        let bound = model.capacity_bound();
                        assert!(fast.lambda_star <= bound, "{ctx}: λ* above λ_c");
                        if h == 0.0 && v == 1 {
                            // Source-queue bound: the first probe, at
                            // 0.99·λ_c, saturates and the search bisects
                            // below it.
                            assert!(
                                fast.lambda_star < 0.99 * bound,
                                "{ctx}: λ* {:e} not source-bound (λ_c {bound:e})",
                                fast.lambda_star
                            );
                        }
                    }
                }
            }
        }
    }
}
