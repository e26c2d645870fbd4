//! Bit-exact snapshots of the faulty-network model.
//!
//! Each case builds a fixed fault sample (hash-placed router and link
//! failures, no RNG), finds its saturation rate and solves the
//! per-channel model at three fractions of a pinned rate.  Every
//! floating-point output is compared down to the bit (`f64::to_bits`), so
//! a change in which hop a route takes, in the order the in-tree passes
//! add their terms, or in the reachability census shows up here even when
//! it moves a latency by one ulp.
//!
//! If an intentional model change ever lands, re-record the constants in
//! the same change and say so in the commit; a silent diff here is a
//! determinism regression.
//!
//! The loads are shares of `wide_lambda_star`, the λ* that
//! [`find_saturation`] over `[1e-9, 1e-1]` gives these cases.
//! `lambda_star` and `probes` pin [`FaultyNCubeModel::saturation`], which
//! brackets λ* from the channel-capacity bound and lands on a nearby rate
//! in fewer probes; its λ* must stay within the search tolerance of the
//! wide one.

use kncube_core::sweep::find_saturation;
use kncube_core::{FaultyNCubeConfig, FaultyNCubeModel};
use kncube_topology::{Channel, Direction, FaultSet, KAryNCube};

/// The loads each case is solved at, as shares of its wide-bisection λ*.
const LOADS: [f64; 3] = [0.1, 0.5, 0.9];

/// The saturation search's relative tolerance.
const REL_TOL: f64 = 1e-3;

/// Fail each router whose hashed index lands in `1/node_every` of the
/// range, and each physical link whose hashed `(node, dim)` lands in
/// `1/link_every` of it.
fn hashed_faults(topo: KAryNCube, salt: u64, node_every: u64, link_every: u64) -> FaultSet {
    let hash = |key: u64| (key ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
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

/// One solved load: `[latency, regular_latency, hot_latency,
/// source_wait_regular, max_utilization]` as bits.
type Point = [u64; 5];

struct Snapshot {
    name: &'static str,
    faults: FaultSet,
    failed_routers: u32,
    failed_links: u32,
    reachable_pairs: u64,
    mean_detour_hops: u64,
    /// λ* of the wide bisection over `[1e-9, 1e-1]`; the loads' base.
    wide_lambda_star: u64,
    /// λ* and probe count of [`FaultyNCubeModel::saturation`].
    lambda_star: u64,
    probes: usize,
    points: [Point; 3],
}

fn check(s: Snapshot) {
    let ctx = s.name;
    assert_eq!(
        s.faults.num_failed_routers(),
        s.failed_routers,
        "{ctx}: the fixed fault sample moved"
    );
    assert_eq!(
        s.faults.num_failed_links(),
        s.failed_links,
        "{ctx}: the fixed fault sample moved"
    );
    let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(s.faults, 2, 16, 0.0, 0.2)).unwrap();
    assert!(
        !model.delegates_to_ncube(),
        "{ctx}: must take the general path"
    );
    let sat = model.saturation(1e-9, 1e-1, REL_TOL).unwrap();
    assert_eq!(
        sat.lambda_star.to_bits(),
        s.lambda_star,
        "{ctx}: lambda_star"
    );
    assert_eq!(sat.probes, s.probes, "{ctx}: probes");
    let wide = find_saturation(&model, 1e-9, 1e-1, REL_TOL).unwrap();
    assert_eq!(
        wide.lambda_star.to_bits(),
        s.wide_lambda_star,
        "{ctx}: wide_lambda_star"
    );
    let lambda_star = wide.lambda_star;
    assert!(
        (sat.lambda_star - lambda_star).abs() <= REL_TOL * lambda_star,
        "{ctx}: λ* {} strays from the wide bisection's {lambda_star}",
        sat.lambda_star
    );
    for (frac, expected) in LOADS.iter().zip(&s.points) {
        let out = model.solve_at(frac * lambda_star).unwrap();
        assert_eq!(
            out.reachable_pairs, s.reachable_pairs,
            "{ctx}: reachable_pairs"
        );
        assert_eq!(
            out.mean_detour_hops.to_bits(),
            s.mean_detour_hops,
            "{ctx}: mean_detour_hops"
        );
        let got = [
            out.latency,
            out.regular_latency,
            out.hot_latency,
            out.source_wait_regular,
            out.max_utilization,
        ]
        .map(f64::to_bits);
        let fields = [
            "latency",
            "regular_latency",
            "hot_latency",
            "source_wait_regular",
            "max_utilization",
        ];
        for ((field, got), want) in fields.iter().zip(got).zip(expected) {
            assert_eq!(got, *want, "{ctx}: {field} at {frac}·λ*");
        }
    }
}

#[test]
fn snapshot_bi_torus_k8_n2() {
    check(Snapshot {
        name: "bi_torus_k8_n2",
        faults: hashed_faults(KAryNCube::bidirectional(8, 2).unwrap(), 1, 40, 12),
        failed_routers: 3,
        failed_links: 12,
        reachable_pairs: 3660,
        mean_detour_hops: 0x3fc448be405987b2,
        wide_lambda_star: 0x3f81fe6685bdaad6,
        lambda_star: 0x3f81fe1667df15fd,
        probes: 11,
        points: [
            [
                0x40352b38131c61b1,
                0x40351508a4fd6236,
                0x4035817ebf5c0a54,
                0x3fb7697855e8f677,
                0x3fb955562c0f49df,
            ],
            [
                0x403a41d0c173b276,
                0x40390ac036f24740,
                0x403efb82dc15a8b8,
                0x3fe1c18b77c73b93,
                0x3fdfaaabb7131c55,
            ],
            [
                0x4046f1627d707cae,
                0x40413e9fe2c44ebf,
                0x40568d2ba45c5ebf,
                0x400824fc0863b4ca,
                0x3fec8000f191331c,
            ],
        ],
    });
}

#[test]
fn snapshot_mesh_k8_n2() {
    check(Snapshot {
        name: "mesh_k8_n2",
        faults: hashed_faults(KAryNCube::mesh(8, 2).unwrap(), 2, 40, 12),
        failed_routers: 3,
        failed_links: 11,
        reachable_pairs: 3660,
        mean_detour_hops: 0x3fc61a4ca8fcec23,
        wide_lambda_star: 0x3f7204cd0e7f162c,
        lambda_star: 0x3f7202adcb30547a,
        probes: 5,
        points: [
            [
                0x4036c64c4f14f248,
                0x4036277df41a551d,
                0x40392fe09471c745,
                0x3fac96dabf294947,
                0x3fb975afbc1b6140,
            ],
            [
                0x403daa93233c99fd,
                0x4039c087b0297000,
                0x404671b52a43906c,
                0x3fda0d6e05651116,
                0x3fdfd31bab223990,
            ],
            [
                0x405587a1f1c07a88,
                0x4045ad1d4aeba227,
                0x406f8de8461c14f8,
                0x4019d105ecbb150e,
                0x3feca465b39ecd68,
            ],
        ],
    });
}

#[test]
fn snapshot_bi_torus_k4_n3() {
    check(Snapshot {
        name: "bi_torus_k4_n3",
        faults: hashed_faults(KAryNCube::bidirectional(4, 3).unwrap(), 3, 40, 12),
        failed_routers: 2,
        failed_links: 17,
        reachable_pairs: 3782,
        mean_detour_hops: 0x3fab9dfc7aec5ec4,
        wide_lambda_star: 0x3f819199b9031ef7,
        lambda_star: 0x3f81905c58ffeb7c,
        probes: 5,
        points: [
            [
                0x40339f5c67bad493,
                0x40338f75d2b2722e,
                0x4033de34e586a29f,
                0x3fb43ec2970f578a,
                0x3fb95fffa40e4f92,
            ],
            [
                0x403653eb94cfad48,
                0x40358591656e1412,
                0x40398380c9fc1704,
                0x3fdc4295512d83a3,
                0x3fdfb7ff8d11e377,
            ],
            [
                0x404151f7af7208b2,
                0x4039d9ecefdff05c,
                0x405158351ac024fa,
                0x40001642e04778ff,
                0x3fec8bff98901985,
            ],
        ],
    });
}
