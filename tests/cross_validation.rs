//! Cross-validation of the k-ary n-cube model against the independently
//! specified closed-form binary-hypercube model
//! ([`kncube::model::HypercubeModel`], the paper's reference \[12\]
//! rebuilt): at `k = 2` the two must agree within `1e-9` relative.  They
//! are derived separately (fixed-point recursion over per-dimension chains
//! vs. closed-form per-level composition), so agreement is a genuine
//! consistency check, not a tautology.

use kncube::model::{HypercubeModel, NCubeConfig, NCubeModel};

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
