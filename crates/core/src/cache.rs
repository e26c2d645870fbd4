//! A solved-configuration cache for batched model queries.
//!
//! Design-space exploration re-solves the same neighbourhoods over and
//! over: Pareto scans, saturation bisections and user query batches all
//! revisit configurations that differ only in the last few bits of `λ` or
//! `h`.  [`SolveCache`] memoises [`NCubeModel`] solves behind a quantized
//! key so those revisits become lookups.
//!
//! # Never stale by construction
//!
//! The cache does **not** return "the solution of a nearby config".  A
//! request is first *snapped* to the quantization lattice
//! ([`SolveCache::quantize`] zeroes the low [`QUANT_DROP_BITS`] mantissa
//! bits of `λ` and `h`, a relative perturbation below `2⁻²⁰ ≈ 10⁻⁶`), and
//! what is solved — and cached — is exactly that snapped configuration.
//! Two requests that collide on a key are therefore the *same* lattice
//! configuration, and the cached entry is its exact solution; there is no
//! approximation radius to go stale.  The key also carries every
//! non-geometric knob that changes the numerics (model variant, service
//! model, multiplexing model, and the full fixed-point options including
//! the acceleration scheme), so an ablation run can never be served a
//! default-model entry.
//!
//! Failures are cached too: past `λ*` the solver burns its whole
//! iteration budget before reporting [`ModelError::NotConverged`], which
//! makes negative lookups the most valuable ones.
//!
//! The cache is shared across threads (`&SolveCache` is `Sync`); the map
//! lock is held only for lookups and inserts, never across a solve.

use crate::ncube::{
    ModelError, ModelVariant, MultiplexingModel, NCubeConfig, NCubeModel, NCubeOutput,
    ServiceTimeModel,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Low mantissa bits of `λ` and `h` dropped by key quantization.  An f64
/// mantissa has 52 bits; dropping 32 keeps 20, for a worst-case relative
/// snap of `2⁻²⁰ ≈ 9.5 × 10⁻⁷` — far below the model's physical fidelity
/// and above the bit-noise that would otherwise fragment the cache.
pub const QUANT_DROP_BITS: u32 = 32;

fn quantize_f64(x: f64) -> f64 {
    if x == 0.0 {
        // Collapse -0.0 onto +0.0 so the two zero keys coincide.
        return 0.0;
    }
    f64::from_bits(x.to_bits() & !((1u64 << QUANT_DROP_BITS) - 1))
}

/// The exact-match key of one configuration: every field of an
/// [`NCubeConfig`] that changes the numerics.  [`SolveCache`] keys the
/// *quantized* configuration; zeroing `λ` first gives the key of a
/// warm-start chain, everything that shapes the fixed point except the
/// rate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey {
    k: u32,
    n: u32,
    v: u32,
    lm: u32,
    lambda_bits: u64,
    h_bits: u64,
    variant: ModelVariant,
    service: ServiceTimeModel,
    multiplexing: MultiplexingModel,
    max_iterations: usize,
    tolerance_bits: u64,
    damping_bits: u64,
    acceleration: kncube_queueing::fixed_point::Acceleration,
}

impl CacheKey {
    /// The key of exactly `cfg` (no quantization).
    pub fn of(cfg: &NCubeConfig) -> Self {
        CacheKey {
            k: cfg.k,
            n: cfg.n,
            v: cfg.virtual_channels,
            lm: cfg.message_length,
            lambda_bits: cfg.lambda.to_bits(),
            h_bits: cfg.hot_fraction.to_bits(),
            variant: cfg.variant,
            service: cfg.service_model,
            multiplexing: cfg.multiplexing,
            max_iterations: cfg.options.max_iterations,
            tolerance_bits: cfg.options.tolerance.to_bits(),
            damping_bits: cfg.options.damping.to_bits(),
            acceleration: cfg.options.acceleration,
        }
    }
}

#[derive(Clone)]
struct CacheEntry {
    output: Result<NCubeOutput, ModelError>,
    /// Converged fixed-point state, kept for warm-start chaining.
    state: Option<Vec<f64>>,
}

/// A thread-safe memo of [`NCubeModel`] solves over the quantization
/// lattice, with hit/miss accounting.
#[derive(Default)]
pub struct SolveCache {
    map: Mutex<HashMap<CacheKey, CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> Self {
        SolveCache::default()
    }

    /// Snap a configuration onto the quantization lattice: the returned
    /// config is what [`SolveCache::solve`] actually solves.  Idempotent;
    /// only `lambda` and `hot_fraction` change, each by a relative amount
    /// below `2⁻²⁰`.
    pub fn quantize(cfg: &NCubeConfig) -> NCubeConfig {
        NCubeConfig {
            lambda: quantize_f64(cfg.lambda),
            hot_fraction: quantize_f64(cfg.hot_fraction),
            ..*cfg
        }
    }

    /// Solve the quantized image of `cfg`, consulting the cache first.
    pub fn solve(&self, cfg: &NCubeConfig) -> Result<NCubeOutput, ModelError> {
        self.solve_with_warm(cfg, None).0
    }

    /// [`SolveCache::solve`] with warm-start chaining: `warm` seeds the
    /// fixed point on a miss, and the converged state (cached or fresh)
    /// comes back for the caller's next link in the chain.
    ///
    /// A hit returns the stored solution verbatim — including its
    /// `iterations` count, which reflects the warm state in effect when
    /// the entry was first solved, not the `warm` passed here.
    pub fn solve_with_warm(
        &self,
        cfg: &NCubeConfig,
        warm: Option<&[f64]>,
    ) -> (Result<NCubeOutput, ModelError>, Option<Vec<f64>>) {
        let snapped = Self::quantize(cfg);
        let key = CacheKey::of(&snapped);
        if let Some(entry) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (entry.output.clone(), entry.state.clone());
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let (output, state) = match NCubeModel::new(snapped) {
            Ok(model) => match model.solve_warm(warm) {
                Ok((out, state)) => (Ok(out), Some(state)),
                Err(e) => (Err(e), None),
            },
            Err(e) => (Err(e), None),
        };
        let entry = CacheEntry {
            output: output.clone(),
            state: state.clone(),
        };
        // Racing threads may both have missed; keep the first insert so
        // concurrent readers of the same key always see one entry.
        self.map.lock().unwrap().entry(key).or_insert(entry);
        (output, state)
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to solve.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct lattice configurations stored.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_the_exact_solution_of_the_quantized_config() {
        let cache = SolveCache::new();
        let cfg = NCubeConfig::new(8, 3, 2, 16, 1.234_567_89e-5, 0.3);
        let via_cache = cache.solve(&cfg).unwrap();
        let direct = NCubeModel::new(SolveCache::quantize(&cfg))
            .unwrap()
            .solve()
            .unwrap();
        assert_eq!(via_cache.latency.to_bits(), direct.latency.to_bits());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 1);
        // Asking again is a hit with the identical answer.
        let again = cache.solve(&cfg).unwrap();
        assert_eq!(again.latency.to_bits(), via_cache.latency.to_bits());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn nearby_lambdas_collapse_onto_one_lattice_point() {
        let cache = SolveCache::new();
        let a = NCubeConfig::new(8, 3, 2, 16, 1e-5, 0.3);
        // Perturb λ by one ulp-scale nudge far below the lattice spacing.
        let b = NCubeConfig {
            lambda: f64::from_bits(a.lambda.to_bits() + 3),
            ..a
        };
        assert_ne!(a.lambda.to_bits(), b.lambda.to_bits());
        let ra = cache.solve(&a).unwrap();
        let rb = cache.solve(&b).unwrap();
        assert_eq!(ra.latency.to_bits(), rb.latency.to_bits());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_solver_options_get_distinct_entries() {
        use kncube_queueing::fixed_point::Acceleration;
        let cache = SolveCache::new();
        let mut a = NCubeConfig::new(8, 3, 2, 16, 1e-5, 0.3);
        a.service_model = ServiceTimeModel::PathOccupancy;
        let mut b = a;
        b.options.acceleration = Acceleration::Anderson { depth: 4 };
        cache.solve(&a).unwrap();
        cache.solve(&b).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failures_are_cached_as_failures() {
        let cache = SolveCache::new();
        // Far past saturation for the paper geometry.
        let cfg = NCubeConfig::new(16, 2, 2, 32, 5e-3, 0.2);
        let first = cache.solve(&cfg).unwrap_err();
        let second = cache.solve(&cfg).unwrap_err();
        assert!(matches!(first, ModelError::Saturated { .. }), "{first:?}");
        assert_eq!(first, second);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn quantization_is_idempotent_and_small() {
        for x in [0.0, -0.0, 1e-5, 0.3, 0.999_999, 123.456e-7] {
            let q = quantize_f64(x);
            assert_eq!(q.to_bits(), quantize_f64(q).to_bits());
            if x != 0.0 {
                assert!(((x - q) / x).abs() < 1e-6, "{x} vs {q}");
            } else {
                assert_eq!(q.to_bits(), 0.0f64.to_bits());
            }
        }
    }

    #[test]
    fn warm_chaining_through_the_cache_matches_cold_answers() {
        let mut base = NCubeConfig::new(8, 3, 2, 16, 0.0, 0.3);
        base.service_model = ServiceTimeModel::PathOccupancy;
        let cache = SolveCache::new();
        let mut warm: Option<Vec<f64>> = None;
        for i in 1..=10 {
            let cfg = NCubeConfig {
                lambda: i as f64 * 2e-6,
                ..base
            };
            let (out, state) = cache.solve_with_warm(&cfg, warm.as_deref());
            let out = out.unwrap();
            let cold = NCubeModel::new(SolveCache::quantize(&cfg))
                .unwrap()
                .solve()
                .unwrap();
            assert!(
                (out.latency - cold.latency).abs() <= 1e-6 * cold.latency,
                "λ index {i}: warm {} vs cold {}",
                out.latency,
                cold.latency
            );
            warm = state;
        }
        assert_eq!(cache.misses(), 10);
    }
}
