//! Regression test at the fault layer's admitted size limit: a (16,3)
//! bidirectional torus has exactly `MAX_FAULT_ROUTER_NODES` = 4096
//! nodes.  With a fixed ~5% of its links failed, the router build, the
//! deadlock certificate, the reachability census and one faulty-model
//! solve must all complete there.
//!
//! A debug build takes tens of seconds, so the test is ignored by
//! default; run it in release:
//!
//! ```sh
//! cargo test --release -q -p kncube-core --test router_limit -- --ignored
//! ```

use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel};
use kncube_topology::faults::MAX_FAULT_ROUTER_NODES;
use kncube_topology::{Channel, Direction, FaultRouter, FaultSet, KAryNCube};

/// Fail each physical link whose `(node, dim)` hashes into a fixed 1/20
/// of the hash range.
fn five_percent_link_faults(topo: KAryNCube) -> FaultSet {
    let mut faults = FaultSet::none(topo);
    for from in topo.nodes() {
        for dim in 0..topo.n() {
            let key = u64::from(from.0) * u64::from(topo.n()) + u64::from(dim);
            if (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % 20 == 0 {
                faults.fail_link(Channel {
                    from,
                    dim,
                    direction: Direction::Plus,
                });
            }
        }
    }
    faults
}

#[test]
#[ignore = "release-only: tens of seconds in a debug build"]
fn certificate_and_solve_complete_at_the_router_node_limit() {
    let topo = KAryNCube::bidirectional(16, 3).unwrap();
    assert_eq!(topo.num_nodes(), MAX_FAULT_ROUTER_NODES);
    let faults = five_percent_link_faults(topo);
    assert_eq!(faults.num_failed_links(), 613, "the fixed fault set moved");
    assert_eq!(faults.num_failed_routers(), 0);

    let router = FaultRouter::new(faults.clone());
    // The detours around these faults close a cycle in the channel
    // dependency graph, so the certificate refuses this sample.
    assert!(!router.deadlock_free(), "certificate verdict changed");

    let tree_pairs: u64 = topo
        .nodes()
        .map(|dest| router.tree(dest).len() as u64)
        .sum();
    assert_eq!(router.reachable_pairs(), tree_pairs);

    let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(faults, 2, 16, 1e-6, 0.2)).unwrap();
    let out = model.solve_at(1e-6);
    assert!(out.is_ok(), "light-load solve failed: {out:?}");
}
