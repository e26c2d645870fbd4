//! The one latency-model interface, and the sweeps built on it.
//!
//! The paper asks two questions of a network: the mean latency at rate
//! `λ`, and the saturation rate `λ*`.  Every model in this crate that can
//! answer them — the closed-form [`NCubeModel`] and the faulty-network
//! [`FaultyNCubeModel`](crate::faulty::FaultyNCubeModel) — implements
//! [`LatencyModel`], and the sweeps are written once against it:
//!
//! * [`latency_curve`] evaluates a model across a λ grid as a rayon
//!   parallel map — a bounded worker pool of at most
//!   `available_parallelism()` threads, not one OS thread per λ point
//!   (grids in the figure binaries reach hundreds of points);
//! * [`find_saturation`] finds `λ*` by bisection on solvability, warm-
//!   starting every probe from the converged state of the last solvable
//!   one and reporting the probe and iteration counts.
//!
//! Neighbouring rates have *nearby fixed points*.  [`solve_continued`]
//! exploits that along a grid of configurations: each solve starts from
//! the previous converged state ([`NCubeModel::solve_warm`]).  Combined
//! with Anderson acceleration (`Acceleration::Anderson` in the config's
//! solver options) this cuts the mean iteration count several-fold under
//! the iterative service model, most of all near saturation, where plain
//! Picard slows to hundreds of iterations per point.

use crate::ncube::{ModelError, NCubeConfig, NCubeModel, NCubeOutput};
use rayon::prelude::*;

/// A latency model that can be solved at any rate `λ`.
pub trait LatencyModel: Sync {
    /// What one solve produces.
    type Output: Send;
    /// The converged fixed-point state a later solve can start from.
    type State;

    /// Solve at `lambda`, starting the fixed point from `warm` when given
    /// (a state the model cannot use falls back to the cold start).
    fn solve_from(
        &self,
        lambda: f64,
        warm: Option<&Self::State>,
    ) -> Result<Solved<Self::Output, Self::State>, ModelError>;
}

/// One converged [`LatencyModel::solve_from`].
#[derive(Clone, Debug)]
pub struct Solved<O, S> {
    /// The model's answer.
    pub output: O,
    /// The converged state, to warm-start the next solve.
    pub state: S,
    /// Fixed-point iterations the solve took.
    pub iterations: usize,
}

/// One point of a latency curve.
#[derive(Clone, Debug)]
pub struct CurvePoint<O> {
    /// The per-node generation rate of this point.
    pub lambda: f64,
    /// The model solution, or the saturation error past `λ*`.
    pub result: Result<O, ModelError>,
}

/// Solve `model` cold at each `lambda`, in parallel on the pooled worker
/// threads.  Points come back in input order.
pub fn latency_curve<M: LatencyModel>(model: &M, lambdas: &[f64]) -> Vec<CurvePoint<M::Output>> {
    lambdas
        .par_iter()
        .map(|&lambda| CurvePoint {
            lambda,
            result: model.solve_from(lambda, None).map(|s| s.output),
        })
        .collect()
}

/// Solve a grid of configurations *in order*, warm-starting each fixed
/// point from the previous converged state.
///
/// The grid may mix geometries (λ/h/k/n sweeps alike): whenever the state
/// shape changes — or the previous point failed — the chain restarts cold,
/// so the result at every point is a valid solve of exactly that
/// configuration.  Order the grid so neighbours are close in parameter
/// space (e.g. ascending λ within a geometry) to get the full warm-start
/// win.
pub fn solve_continued(configs: &[NCubeConfig]) -> Vec<Result<NCubeOutput, ModelError>> {
    let mut warm: Option<Vec<f64>> = None;
    configs
        .iter()
        .map(|&cfg| {
            let solved = NCubeModel::new(cfg).and_then(|m| m.solve_warm(warm.as_deref()));
            match solved {
                Ok((out, state)) => {
                    warm = Some(state);
                    Ok(out)
                }
                Err(e) => {
                    warm = None;
                    Err(e)
                }
            }
        })
        .collect()
}

/// Why [`find_saturation`] could not produce a saturation rate.
#[derive(Clone, Debug, PartialEq)]
pub enum SaturationError {
    /// The requested bracket is malformed: `lo`/`hi`/`rel_tol` must be
    /// finite with `0 <= lo < hi` and `rel_tol > 0`.
    InvalidBracket {
        /// The lower edge as requested.
        lo: f64,
        /// The upper edge as requested.
        hi: f64,
        /// The requested relative tolerance.
        rel_tol: f64,
    },
    /// Geometric widening of `hi` never reached a saturated rate — the
    /// model stayed solvable up to `last_hi` (the last finite rate
    /// probed), so there is no `λ*` inside any reasonable bracket.
    BracketNotFound {
        /// The largest rate probed before giving up.
        last_hi: f64,
    },
    /// No probe solved, a positive `lo` included — typically an invalid
    /// configuration.  Carries the model's error from the last probe.
    Unsolvable(ModelError),
}

impl std::fmt::Display for SaturationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SaturationError::InvalidBracket { lo, hi, rel_tol } => write!(
                f,
                "invalid saturation bracket: lo={lo}, hi={hi}, rel_tol={rel_tol} \
                 (need finite 0 <= lo < hi and rel_tol > 0)"
            ),
            SaturationError::BracketNotFound { last_hi } => write!(
                f,
                "saturation bracket not found: model still solvable at λ={last_hi:e}"
            ),
            SaturationError::Unsolvable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SaturationError {}

/// What a saturation search did to find `λ*` — the bracketing rate plus
/// the solver work it took, so warm-start savings are measurable instead
/// of being discarded with the probe results.
#[derive(Clone, Copy, Debug)]
pub struct SaturationReport {
    /// The saturation rate `λ*` (midpoint of the final bracket).
    pub lambda_star: f64,
    /// Model evaluations performed during widening + bisection.
    pub probes: usize,
    /// Total fixed-point iterations across the *solvable* probes (failed
    /// probes abort without a converged count).
    pub solver_iterations: usize,
}

impl SaturationReport {
    /// Mean fixed-point iterations per probe (0 when nothing was probed;
    /// failed probes count in the denominator but contribute no
    /// iterations).
    pub fn mean_iterations(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.solver_iterations as f64 / self.probes as f64
        }
    }
}

/// Find the saturation rate `λ*` of `model` by bisection: the largest rate
/// at which the model still has a solution, bracketed to a relative width
/// of `rel_tol`.
///
/// `hi` should be saturated and `lo` solvable (or zero); the search widens
/// `hi` geometrically if it is not saturated yet, and reports
/// [`SaturationError::BracketNotFound`] if the widening runs away.  Every
/// probe is warm-started from the converged state of the last *solvable*
/// probe — bisection probes cluster around `λ*`, so the states are close
/// and most probes converge in a handful of iterations.  If every probe
/// lands above `λ*`, a positive `lo` is probed last; only if that fails
/// too does the search report [`SaturationError::Unsolvable`] rather than
/// a `λ*` pinned at `lo`.
pub fn find_saturation<M: LatencyModel>(
    model: &M,
    mut lo: f64,
    mut hi: f64,
    rel_tol: f64,
) -> Result<SaturationReport, SaturationError> {
    check_bracket(lo, hi, rel_tol)?;
    let mut search = Bisection::new(model);
    // Widen until hi is saturated (bounded: utilization grows linearly in
    // λ, so a few doublings always suffice for a solvable model; a model
    // that never saturates exhausts the guard instead).
    let mut guard = 0;
    while search.solvable(hi) {
        lo = hi;
        hi *= 2.0;
        guard += 1;
        if guard >= 64 || !hi.is_finite() {
            return Err(SaturationError::BracketNotFound { last_hi: lo });
        }
    }
    search.bisect(lo, hi, rel_tol)
}

/// [`SaturationError::InvalidBracket`] unless `lo`/`hi`/`rel_tol` are
/// finite with `0 <= lo < hi` and `rel_tol > 0`.
pub(crate) fn check_bracket(lo: f64, hi: f64, rel_tol: f64) -> Result<(), SaturationError> {
    if !(lo.is_finite() && hi.is_finite() && rel_tol.is_finite())
        || lo < 0.0
        || hi <= lo
        || rel_tol <= 0.0
    {
        return Err(SaturationError::InvalidBracket { lo, hi, rel_tol });
    }
    Ok(())
}

/// The probing state of one saturation search: the warm start, the last
/// failure and the work counted so far.
pub(crate) struct Bisection<'m, M: LatencyModel> {
    model: &'m M,
    warm: Option<M::State>,
    last_error: Option<ModelError>,
    probes: usize,
    iterations: usize,
}

impl<'m, M: LatencyModel> Bisection<'m, M> {
    pub(crate) fn new(model: &'m M) -> Self {
        Bisection {
            model,
            warm: None,
            last_error: None,
            probes: 0,
            iterations: 0,
        }
    }

    /// Probe `lambda`, warm-started from the last solvable probe.
    pub(crate) fn solvable(&mut self, lambda: f64) -> bool {
        self.probes += 1;
        match self.model.solve_from(lambda, self.warm.as_ref()) {
            Ok(solved) => {
                self.iterations += solved.iterations;
                self.warm = Some(solved.state);
                true
            }
            Err(e) => {
                self.last_error = Some(e);
                false
            }
        }
    }

    /// Bisect `[lo, hi]` — `hi` saturated, `lo` solvable or zero — to a
    /// relative width of `rel_tol`, and report its midpoint.
    pub(crate) fn bisect(
        mut self,
        mut lo: f64,
        mut hi: f64,
        rel_tol: f64,
    ) -> Result<SaturationReport, SaturationError> {
        while (hi - lo) / hi > rel_tol {
            let mid = 0.5 * (lo + hi);
            if self.solvable(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        // No probe solved, so `lo` never moved: a positive `lo` is the
        // last witness that the model solves at all.
        if self.warm.is_none() && !(lo > 0.0 && self.solvable(lo)) {
            return Err(SaturationError::Unsolvable(
                self.last_error
                    .expect("every probe failed, so one failure was recorded"),
            ));
        }
        Ok(SaturationReport {
            lambda_star: 0.5 * (lo + hi),
            probes: self.probes,
            solver_iterations: self.iterations,
        })
    }
}

/// [`find_saturation`] of the [`NCubeModel`] built from `base` (its `λ`
/// is ignored); an invalid `base` is [`SaturationError::Unsolvable`].
pub fn find_saturation_ncube_report(
    base: NCubeConfig,
    lo: f64,
    hi: f64,
    rel_tol: f64,
) -> Result<SaturationReport, SaturationError> {
    let model = NCubeModel::new(base).map_err(SaturationError::Unsolvable)?;
    find_saturation(&model, lo, hi, rel_tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's 16 × 16 torus with two virtual channels.
    fn paper(lm: u32, h: f64) -> NCubeModel {
        NCubeModel::new(NCubeConfig::new(16, 2, 2, lm, 0.0, h)).unwrap()
    }

    fn saturation(model: &NCubeModel, lo: f64, hi: f64, tol: f64) -> f64 {
        find_saturation(model, lo, hi, tol)
            .expect("hot-spot configs saturate inside the bracket")
            .lambda_star
    }

    #[test]
    fn curve_reports_points_in_input_order() {
        let lambdas = [1e-5, 1e-4, 2e-4, 9e-4];
        let curve = latency_curve(&paper(32, 0.2), &lambdas);
        assert_eq!(curve.len(), 4);
        for (p, &l) in curve.iter().zip(&lambdas) {
            assert_eq!(p.lambda, l);
        }
        // Low points solve, the extreme one saturates.
        assert!(curve[0].result.is_ok());
        assert!(curve[1].result.is_ok());
        assert!(curve[3].result.is_err());
    }

    #[test]
    fn curve_latencies_monotone_until_saturation() {
        let lambdas: Vec<f64> = (1..=10).map(|i| i as f64 * 3e-5).collect();
        let curve = latency_curve(&paper(32, 0.4), &lambdas);
        let mut prev = 0.0;
        for p in curve.iter().filter(|p| p.result.is_ok()) {
            let l = p.result.as_ref().unwrap().latency;
            assert!(l > prev);
            prev = l;
        }
    }

    #[test]
    fn wide_curve_handles_hundreds_of_points() {
        // The pooled sweep must digest a grid far wider than the CPU
        // count (the old code spawned one OS thread per point).
        let lambdas: Vec<f64> = (1..=400).map(|i| i as f64 * 2e-6).collect();
        let curve = latency_curve(&paper(32, 0.2), &lambdas);
        assert_eq!(curve.len(), 400);
        for (p, &l) in curve.iter().zip(&lambdas) {
            assert_eq!(p.lambda, l);
        }
        assert!(curve.first().unwrap().result.is_ok());
        assert!(curve.last().unwrap().result.is_err());
    }

    #[test]
    fn saturation_orders_by_hot_fraction_and_length() {
        let sat = |lm: u32, h: f64| saturation(&paper(lm, h), 1e-6, 1e-3, 1e-3);
        let s20 = sat(32, 0.2);
        let s40 = sat(32, 0.4);
        let s70 = sat(32, 0.7);
        assert!(s20 > s40 && s40 > s70, "{s20} {s40} {s70}");
        // Longer messages saturate earlier.
        let s20_long = sat(100, 0.2);
        assert!(s20_long < s20);
        // And the figures' axes bracket the saturation points: Fig. 1
        // h=20% plots to 6e-4, h=70% to 2e-4.
        assert!(s20 > 2e-4 && s20 < 9e-4, "λ*={s20}");
        assert!(s70 > 5e-5 && s70 < 3e-4, "λ*={s70}");
    }

    #[test]
    fn ncube_saturation_tracks_the_generalized_flit_bound() {
        for (k, n, h) in [(8u32, 3u32, 0.3f64), (4, 4, 0.5), (16, 2, 0.2)] {
            let model = NCubeModel::new(NCubeConfig::new(k, n, 2, 16, 0.0, h)).unwrap();
            let bound = model.flit_bound();
            let sat = saturation(&model, 1e-9, 1e-1, 1e-3);
            assert!(
                sat < bound && sat > 0.5 * bound,
                "k={k} n={n} h={h}: λ*={sat:.3e} vs flit bound {bound:.3e}"
            );
        }
    }

    #[test]
    fn ncube_curve_matches_2d_curve_at_n2() {
        // The pooled curve over the paper's torus equals point-by-point
        // solves, bit for bit.
        let base2d = NCubeConfig::new(8, 2, 2, 16, 0.0, 0.3);
        let lambdas = [2e-5, 1e-4, 2e-4];
        let curve = latency_curve(&NCubeModel::new(base2d).unwrap(), &lambdas);
        for (p, &lambda) in curve.iter().zip(&lambdas) {
            let paper = NCubeModel::new(NCubeConfig { lambda, ..base2d }).and_then(|m| m.solve());
            match (&paper, &p.result) {
                (Ok(x), Ok(y)) => assert_eq!(x.latency.to_bits(), y.latency.to_bits()),
                (Err(_), Err(_)) => {}
                other => panic!("solvability mismatch at λ={lambda}: {other:?}"),
            }
        }
    }

    #[test]
    fn continued_curve_matches_the_cold_curve() {
        let base = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3);
        let lambdas: Vec<f64> = (1..=40).map(|i| i as f64 * 2e-6).collect();
        let cold = latency_curve(&NCubeModel::new(base).unwrap(), &lambdas);
        let configs: Vec<NCubeConfig> = lambdas
            .iter()
            .map(|&lambda| NCubeConfig { lambda, ..base })
            .collect();
        let warm = solve_continued(&configs);
        assert_eq!(warm.len(), cold.len());
        for (c, w) in cold.iter().zip(&warm) {
            match (&c.result, w) {
                (Ok(a), Ok(b)) => {
                    // The default service model's fixed point is reached
                    // exactly from any start, so the curves agree bitwise.
                    assert_eq!(a.latency.to_bits(), b.latency.to_bits());
                }
                (Err(_), Err(_)) => {}
                other => panic!("solvability mismatch at λ={}: {other:?}", c.lambda),
            }
        }
    }

    #[test]
    fn continuation_cuts_iterations_under_the_iterative_ablation() {
        // The payoff regime is the near-saturation band: Picard's
        // contraction rate degrades towards 1 as λ → λ*, so cold solves
        // there cost hundreds of iterations while the accelerated warm
        // chain stays flat.  (Far below saturation Picard converges in a
        // handful of iterations and continuation saves only ~20%.)
        use crate::ncube::ServiceTimeModel;
        use kncube_queueing::fixed_point::Acceleration;
        let mut base = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3);
        base.service_model = ServiceTimeModel::PathOccupancy;
        let sat = saturation(&NCubeModel::new(base).unwrap(), 1e-9, 1e-1, 1e-6);
        let points = 32usize;
        let lambdas: Vec<f64> = (0..points)
            .map(|i| sat * (0.98 + (0.9999 - 0.98) * i as f64 / (points - 1) as f64))
            .collect();
        let configs: Vec<NCubeConfig> = lambdas
            .iter()
            .map(|&lambda| NCubeConfig { lambda, ..base })
            .collect();
        let cold: usize = configs
            .iter()
            .map(|&c| NCubeModel::new(c).unwrap().solve().unwrap().iterations)
            .sum();
        // Plain continuation helps, but acceleration is what collapses the
        // slow near-saturation modes; together they are the query engine's
        // batch path.
        let warm_plain: usize = solve_continued(&configs)
            .into_iter()
            .map(|r| r.unwrap().iterations)
            .sum();
        assert!(
            warm_plain < cold,
            "continuation alone regressed: {warm_plain} vs {cold} iterations"
        );
        let mut accel = configs.clone();
        for c in &mut accel {
            c.options.acceleration = Acceleration::Anderson { depth: 4 };
        }
        let warm: usize = solve_continued(&accel)
            .into_iter()
            .map(|r| r.unwrap().iterations)
            .sum();
        assert!(
            warm * 3 < cold,
            "accelerated continuation saved too little: {warm} vs {cold} iterations"
        );
    }

    #[test]
    fn continuation_restarts_across_geometry_changes() {
        // A grid that changes (k, n) mid-way must still solve every point
        // correctly: the chain restarts cold when the state shape changes.
        let configs = [
            NCubeConfig::new(8, 3, 2, 16, 2e-5, 0.3),
            NCubeConfig::new(8, 3, 2, 16, 3e-5, 0.3),
            NCubeConfig::new(4, 4, 2, 16, 2e-5, 0.3),
            NCubeConfig::new(4, 4, 2, 16, 3e-5, 0.3),
        ];
        let chained = solve_continued(&configs);
        for (cfg, got) in configs.iter().zip(&chained) {
            let cold = NCubeModel::new(*cfg).unwrap().solve().unwrap();
            let got = got.as_ref().expect("all points solvable");
            assert_eq!(cold.latency.to_bits(), got.latency.to_bits());
        }
    }

    #[test]
    fn saturation_report_surfaces_probe_and_iteration_counts() {
        let base = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3);
        let report = find_saturation(&NCubeModel::new(base).unwrap(), 1e-9, 1e-1, 1e-3).unwrap();
        assert!(report.probes > 10, "bisection probes: {}", report.probes);
        assert!(report.solver_iterations > 0);
        assert!(report.mean_iterations() > 0.0);
        // The config-level forward reports through the same search.
        let forward = find_saturation_ncube_report(base, 1e-9, 1e-1, 1e-3).unwrap();
        assert_eq!(forward.lambda_star.to_bits(), report.lambda_star.to_bits());
        assert_eq!(
            (forward.probes, forward.solver_iterations),
            (report.probes, report.solver_iterations)
        );
    }

    #[test]
    fn malformed_brackets_are_errors_not_panics() {
        let model = paper(32, 0.2);
        for (lo, hi, tol) in [
            (1e-3, 1e-6, 1e-3),         // inverted
            (-1.0, 1e-3, 1e-3),         // negative lo
            (0.0, 1e-3, 0.0),           // zero tolerance
            (0.0, f64::INFINITY, 1e-3), // non-finite hi
            (0.0, f64::NAN, 1e-3),      // NaN hi
        ] {
            match find_saturation(&model, lo, hi, tol) {
                Err(SaturationError::InvalidBracket { .. }) => {}
                other => panic!("expected InvalidBracket for ({lo}, {hi}, {tol}), got {other:?}"),
            }
        }
    }

    #[test]
    fn a_solvable_lo_answers_when_every_bisection_probe_saturates() {
        // A tight bracket whose every midpoint lands past λ*: the search
        // must fall back on `lo`, which solves, not report Unsolvable.
        let model = paper(32, 0.2);
        let star = saturation(&model, 1e-9, 1e-1, 1e-3);
        let (lo, hi) = (0.9995 * star, 1.01 * star);
        let mut mid = hi;
        while (mid - lo) / mid > 1e-3 {
            mid = 0.5 * (lo + mid);
            assert!(model.solve_from(mid, None).is_err(), "{mid:e} solves");
        }
        assert!(model.solve_from(lo, None).is_ok());
        let report = find_saturation(&model, lo, hi, 1e-3).expect("lo solves");
        assert_eq!(report.lambda_star, 0.5 * (lo + mid));
        assert!((report.lambda_star - star).abs() <= 1e-3 * star);
    }

    #[test]
    fn unsolvable_models_are_errors_not_a_lambda_star_at_lo() {
        // Every probe of an invalid configuration fails; the search must
        // say so instead of reporting λ* ≈ lo.
        let bad = NCubeConfig::new(16, 2, 2, 32, 0.0, 1.5);
        match find_saturation_ncube_report(bad, 1e-9, 1e-1, 1e-3) {
            Err(SaturationError::Unsolvable(ModelError::BadConfig(_))) => {}
            other => panic!("expected Unsolvable for h = 1.5, got {other:?}"),
        }
        // A valid model whose whole bracket lies past λ* fails the same
        // way, carrying the solver's own error.
        match find_saturation(&paper(32, 0.2), 1e-2, 1e-1, 1e-3) {
            Err(SaturationError::Unsolvable(e)) => assert!(
                matches!(e, ModelError::Saturated { .. } | ModelError::NotConverged),
                "{e:?}"
            ),
            other => panic!("expected Unsolvable past λ*, got {other:?}"),
        }
    }
}
