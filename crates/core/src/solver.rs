//! Regression tests of the solver at the paper's own operating points:
//! the `k × k` torus of §4 is [`NCubeModel`] at `n = 2`, checked here
//! against Figures 1–2 and against the paper's five-case zero-load
//! derivation, which is independent of [`crate::entry_cases`].

mod tests {
    use crate::probabilities::five_cases;
    use crate::{ModelError, ModelVariant, NCubeConfig, NCubeModel, NCubeOutput};
    use proptest::prelude::*;

    fn solve(k: u32, v: u32, lm: u32, lambda: f64, h: f64) -> Result<NCubeOutput, ModelError> {
        NCubeModel::new(NCubeConfig::new(k, 2, v, lm, lambda, h))
            .unwrap()
            .solve()
    }

    /// The paper's own zero-load derivation for the `k × k` torus: the five
    /// regular route cases of Eqs. (11)–(15) with their closed-form
    /// probabilities, and a sum over every hot-spot source position —
    /// `(j)` in the hot y-ring and `(j, t)` elsewhere (Eqs. 21–24).  Every
    /// path costs one cycle per channel for the header plus `Lm` to drain.
    fn paper_zero_load_latency(k: u32, lm: u32, h: f64) -> f64 {
        let kf = k as f64;
        let lm = lm as f64;
        let [y_only_hot_ring, y_only_nonhot_ring, x_only, x_then_hot_ring, x_then_nonhot_ring] =
            five_cases(k);
        // Mean over j = 1..k-1 of (j + Lm) is (k/2 + Lm).
        let one_dim = kf / 2.0 + lm;
        let two_dim = kf + lm; // j-average + second-dimension entrance average
        let s_r = (y_only_hot_ring + y_only_nonhot_ring + x_only) * one_dim
            + (x_then_hot_ring + x_then_nonhot_ring) * two_dim;
        // Hot messages: source (j) in the hot ring costs j + Lm; source
        // (j, t) costs j + t + Lm for t < k and j + Lm for t = k.
        let mut s_h = 0.0;
        for j in 1..k {
            s_h += j as f64 + lm;
            for t in 1..=k {
                let tail = if t == k { 0.0 } else { t as f64 };
                s_h += j as f64 + tail + lm;
            }
        }
        s_h /= kf * kf - 1.0;
        (1.0 - h) * s_r + h * s_h
    }

    #[test]
    fn rejects_bad_configs() {
        for (k, v, lm, lambda, h) in [
            (1u32, 2u32, 32u32, 1e-4, 0.2),
            (16, 0, 32, 1e-4, 0.2),
            (16, 2, 0, 1e-4, 0.2),
            (16, 2, 32, 1e-4, 1.5),
            (16, 2, 32, -1.0, 0.2),
            (16, 2, 32, f64::NAN, 0.2),
        ] {
            assert!(NCubeModel::new(NCubeConfig::new(k, 2, v, lm, lambda, h)).is_err());
        }
    }

    #[test]
    fn vanishing_load_matches_zero_load_closed_form() {
        for (k, lm, h) in [
            (8u32, 32u32, 0.2f64),
            (16, 32, 0.4),
            (16, 100, 0.7),
            (4, 16, 0.0),
        ] {
            let model = NCubeModel::new(NCubeConfig::new(k, 2, 2, lm, 1e-9, h)).unwrap();
            let out = model.solve().unwrap();
            let expected = paper_zero_load_latency(k, lm, h);
            assert!(
                (out.latency - expected).abs() / expected < 1e-3,
                "k={k} lm={lm} h={h}: solved {} vs closed form {expected}",
                out.latency
            );
            assert!(out.vbar_hot[1] < 1.0 + 1e-3);
            assert!(out.source_wait_regular < 1e-3);
        }
    }

    #[test]
    fn zero_load_closed_forms_agree_across_the_apis() {
        for (k, lm, h) in [
            (8u32, 32u32, 0.2f64),
            (16, 32, 0.4),
            (16, 100, 0.7),
            (4, 16, 0.0),
            (5, 16, 0.45),
        ] {
            let paper = paper_zero_load_latency(k, lm, h);
            let general = NCubeModel::new(NCubeConfig::new(k, 2, 2, lm, 1e-6, h))
                .unwrap()
                .zero_load_latency();
            assert!(
                (paper - general).abs() < 1e-9,
                "k={k}: five-case {paper} vs generalized {general}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Over the whole domain the `latency_at_least_zero_load` property
        /// test samples (and beyond), the generalized zero-load latency it
        /// bounds against is the paper's five-case derivation.
        #[test]
        fn zero_load_closed_forms_agree_on_random_tori(
            k in 2u32..=32,
            lm in 1u32..=128,
            h in 0.0f64..=1.0,
        ) {
            let paper = paper_zero_load_latency(k, lm, h);
            let general = NCubeModel::new(NCubeConfig::new(k, 2, 2, lm, 1e-6, h))
                .unwrap()
                .zero_load_latency();
            prop_assert!(
                (paper - general).abs() < 1e-9,
                "k={} lm={} h={}: five-case {} vs generalized {}", k, lm, h, paper, general
            );
        }
    }

    #[test]
    fn latency_increases_with_load() {
        let mut prev = 0.0;
        for i in 1..=8 {
            let lambda = i as f64 * 5e-5;
            let out = solve(16, 2, 32, lambda, 0.2).unwrap();
            assert!(
                out.latency > prev,
                "λ={lambda}: latency {} not increasing (prev {prev})",
                out.latency
            );
            prev = out.latency;
        }
    }

    #[test]
    fn latency_increases_with_hot_fraction_at_fixed_load() {
        // Hot traffic concentrates load on the hot ring, so at a fixed λ
        // the latency grows with h (until saturation).
        let l20 = solve(16, 2, 32, 1.5e-4, 0.2).unwrap().latency;
        let l40 = solve(16, 2, 32, 1.5e-4, 0.4).unwrap().latency;
        let l70 = solve(16, 2, 32, 1.5e-4, 0.7).unwrap().latency;
        assert!(l20 < l40 && l40 < l70, "{l20} {l40} {l70}");
    }

    #[test]
    fn saturates_at_the_papers_operating_points() {
        // Figure 1 (Lm=32): the h=20% curve saturates near λ ≈ 6e-4.
        assert!(solve(16, 2, 32, 3e-4, 0.2).is_ok());
        assert!(solve(16, 2, 32, 9e-4, 0.2).is_err());
        // h=70% saturates near 2e-4.
        assert!(solve(16, 2, 32, 1e-4, 0.7).is_ok());
        assert!(solve(16, 2, 32, 3e-4, 0.7).is_err());
        // Figure 2 (Lm=100): h=20% saturates near 2e-4.
        assert!(solve(16, 2, 100, 1e-4, 0.2).is_ok());
        assert!(solve(16, 2, 100, 3e-4, 0.2).is_err());
    }

    #[test]
    fn hot_messages_slower_than_regular_under_hot_load() {
        let out = solve(16, 2, 32, 2e-4, 0.4).unwrap();
        assert!(
            out.hot_latency > out.regular_latency,
            "hot {} vs regular {}",
            out.hot_latency,
            out.regular_latency
        );
    }

    #[test]
    fn hot_ring_service_grows_towards_hot_node() {
        // S^h_y,j (chain [1]) is cumulative along the path, so it grows
        // with j; the blocking per channel also peaks nearest the hot node
        // (largest rate), which this ordering inherits.
        let out = solve(16, 2, 32, 3e-4, 0.4).unwrap();
        for w in out.hot_path_services[1].windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn h_zero_hot_and_nonhot_rings_agree() {
        // With no hot traffic the hot ring is statistically identical to
        // every other ring: equal y-ring entrance services S^r_{y,k}
        // (Eqs. 17–18) and equal multiplexing degrees.
        let (k, lm) = (16u32, 32u32);
        let out = solve(k, 2, lm, 4e-4, 0.0).unwrap();
        let entrance = |blocking: f64| lm as f64 + (k as f64 / 2.0) * (1.0 + blocking);
        let (nonhot, hot) = (entrance(out.blocking_nonhot), entrance(out.blocking_hot[1]));
        assert!(
            (nonhot - hot).abs() < 1e-6,
            "h=0 asymmetry: {nonhot} vs {hot}"
        );
        assert!((out.vbar_hot[1] - out.vbar_nonhot).abs() < 1e-6);
    }

    #[test]
    fn more_virtual_channels_multiplex_more() {
        let v2 = solve(16, 2, 32, 4e-4, 0.2).unwrap();
        let v4 = solve(16, 4, 32, 4e-4, 0.2).unwrap();
        assert!(v4.vbar_hot[0] >= v2.vbar_hot[0]);
        assert!(v4.vbar_hot[1] >= v2.vbar_hot[1]);
    }

    #[test]
    fn variant_changes_little_below_saturation() {
        let base = NCubeConfig::new(16, 2, 2, 32, 2e-4, 0.4);
        let a = NCubeModel::new(base).unwrap().solve().unwrap();
        let b = NCubeModel::new(NCubeConfig {
            variant: ModelVariant::HotRingServiceEq25,
            ..base
        })
        .unwrap()
        .solve()
        .unwrap();
        let rel = (a.latency - b.latency).abs() / a.latency;
        assert!(rel < 0.1, "variants diverge by {rel}");
    }

    #[test]
    fn longer_messages_cost_proportionally_at_zero_load() {
        let short = solve(16, 2, 32, 1e-9, 0.2).unwrap().latency;
        let long = solve(16, 2, 100, 1e-9, 0.2).unwrap().latency;
        assert!(
            (long - short - 68.0).abs() < 0.5,
            "short {short} long {long}"
        );
    }
}
