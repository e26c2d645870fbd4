//! Cross-validation of the generalized k-ary n-cube model against the two
//! independently-specified instances the workspace already trusts:
//!
//! * at `n = 2` the generalized solver must be **bit-identical** to the
//!   paper's 2-D solver ([`kncube::model::HotSpotModel`]) — the 2-D API is
//!   a thin specialization, and these tests pin that contract across λ
//!   grids, radices, hot fractions and model variants;
//! * at `k = 2` it must reproduce the closed-form binary-hypercube model
//!   ([`kncube::model::HypercubeModel`], the paper's reference \[12\]
//!   rebuilt) within `1e-9` relative — the two are derived separately
//!   (fixed-point recursion over per-dimension chains vs. closed-form
//!   per-level composition), so agreement is a genuine consistency check,
//!   not a tautology.

use kncube::model::{
    find_saturation_ncube_report, HotSpotModel, HypercubeModel, ModelConfig, ModelVariant,
    MultiplexingModel, NCubeConfig, NCubeModel, ServiceTimeModel,
};

/// A λ grid of `points` rates up to `top` times the 2-D model's
/// saturation rate.
fn lambda_grid_2d(base: ModelConfig, points: usize, top: f64) -> Vec<f64> {
    let sat = find_saturation_ncube_report(base.as_ncube(), 1e-9, 1e-1, 1e-3)
        .expect("2-D hot-spot configs saturate")
        .lambda_star;
    (1..=points)
        .map(|i| sat * top * i as f64 / points as f64)
        .collect()
}

#[test]
fn n2_bit_identical_to_the_2d_solver_across_a_lambda_grid() {
    for (k, h) in [(4u32, 0.2f64), (8, 0.4), (16, 0.2), (5, 0.7)] {
        let base = ModelConfig::paper_validation(k, 2, 16, 0.0, h);
        for lambda in lambda_grid_2d(base, 6, 0.9) {
            let cfg = ModelConfig { lambda, ..base };
            let two_d = HotSpotModel::new(cfg).unwrap().solve();
            let general = NCubeModel::new(cfg.as_ncube()).unwrap().solve();
            match (two_d, general) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        a.latency.to_bits(),
                        b.latency.to_bits(),
                        "k={k} h={h} λ={lambda}: latency {} vs {}",
                        a.latency,
                        b.latency
                    );
                    assert_eq!(a.regular_latency.to_bits(), b.regular_latency.to_bits());
                    assert_eq!(a.hot_latency.to_bits(), b.hot_latency.to_bits());
                    assert_eq!(
                        a.source_wait_regular.to_bits(),
                        b.source_wait_regular.to_bits()
                    );
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!(
                    "k={k} h={h} λ={lambda}: solvability mismatch (2-D ok={}, n-cube ok={})",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }
}

#[test]
fn n2_bit_identity_holds_for_every_model_variant() {
    let base = ModelConfig::paper_validation(8, 2, 32, 2e-4, 0.4);
    for variant in [ModelVariant::XRingService, ModelVariant::HotRingServiceEq25] {
        for service in [
            ServiceTimeModel::PipelinedTransfer,
            ServiceTimeModel::PathOccupancy,
        ] {
            for mux in [
                MultiplexingModel::DallyMarkov,
                MultiplexingModel::ClassAware,
            ] {
                let cfg = ModelConfig {
                    variant,
                    service_model: service,
                    multiplexing: mux,
                    ..base
                };
                let two_d = HotSpotModel::new(cfg).unwrap().solve();
                let general = NCubeModel::new(cfg.as_ncube()).unwrap().solve();
                match (two_d, general) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        a.latency.to_bits(),
                        b.latency.to_bits(),
                        "{variant:?}/{service:?}/{mux:?}"
                    ),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!(
                        "{variant:?}/{service:?}/{mux:?}: solvability mismatch ({}, {})",
                        a.is_ok(),
                        b.is_ok()
                    ),
                }
            }
        }
    }
}

#[test]
fn k2_reproduces_the_hypercube_model_within_1e9() {
    // λ grid per dimension count: fractions of the hypercube's flit bound
    // low enough that the source-queue term (the earliest-saturating
    // resource in both derivations) still admits a solution.
    for n in [3u32, 4, 5, 6, 8] {
        for h in [0.0f64, 0.2, 0.5] {
            let bound = HypercubeModel::new(n, 2, 16, 0.0, h)
                .unwrap()
                .saturation_bound();
            for frac in [0.05, 0.15, 0.3, 0.45] {
                let lambda = frac * bound;
                let hyper = HypercubeModel::new(n, 2, 16, lambda, h)
                    .unwrap()
                    .solve()
                    .unwrap_or_else(|e| panic!("hypercube n={n} h={h} frac={frac}: {e}"));
                let cube = NCubeModel::new(NCubeConfig::new(2, n, 2, 16, lambda, h))
                    .unwrap()
                    .solve()
                    .unwrap_or_else(|e| panic!("n-cube n={n} h={h} frac={frac}: {e}"));
                for (name, a, b) in [
                    ("latency", hyper.latency, cube.latency),
                    ("regular", hyper.regular_latency, cube.regular_latency),
                    ("hot", hyper.hot_latency, cube.hot_latency),
                ] {
                    assert!(
                        (a - b).abs() / b.abs().max(1e-300) < 1e-9,
                        "n={n} h={h} frac={frac}: {name} {a} vs {b}"
                    );
                }
            }
        }
    }
}

#[test]
fn k2_solvability_boundary_agrees_with_the_hypercube_model() {
    // Past twice the flit bound both derivations must refuse to produce a
    // number; the generalized model may not silently "solve" a saturated
    // hypercube.
    for (n, h) in [(3u32, 0.3f64), (6, 0.2)] {
        let bound = HypercubeModel::new(n, 2, 16, 0.0, h)
            .unwrap()
            .saturation_bound();
        let lambda = 2.0 * bound;
        assert!(HypercubeModel::new(n, 2, 16, lambda, h)
            .unwrap()
            .solve()
            .is_err());
        assert!(NCubeModel::new(NCubeConfig::new(2, n, 2, 16, lambda, h))
            .unwrap()
            .solve()
            .is_err());
    }
}

#[test]
fn zero_load_closed_forms_agree_across_the_family() {
    // The generalized model's closed-form zero-load latency must agree
    // with the solved model at vanishing λ for non-trivial (k, n), tying
    // the composition to first principles independently of either anchor.
    for (k, n, h) in [(2u32, 5u32, 0.3f64), (4, 3, 0.2), (8, 3, 0.0), (16, 2, 0.4)] {
        let model = NCubeModel::new(NCubeConfig::new(k, n, 2, 16, 1e-12, h)).unwrap();
        let solved = model.solve().unwrap().latency;
        let closed = model.zero_load_latency();
        assert!(
            (solved - closed).abs() / closed < 1e-6,
            "k={k} n={n} h={h}: {solved} vs {closed}"
        );
    }
}
