//! `faulty_sweep`: answering fault samples with the faulty-network model.
//!
//! A request answers one fault sample: `sample_fault_set` →
//! `FaultyNCubeModel::new` → `FaultRouter::deadlock_free` → `saturation`
//! → `solve_at` on a 4-point latency curve up to 0.8·λ\*.  Requests
//! alternate between a (16,2) bidirectional torus and a (16,2) mesh, at
//! 2% router and 3% link failure; the sample seed derives from the
//! workload seed and the request index.

use crate::metrics::Values;
use crate::rng::request_seed;
use crate::stats::{mean, quantile};
use crate::trace::{Layer, Tracer};
use crate::workload::{Checked, Workload};
use kncube_core::sweep::{SaturationError, SaturationReport};
use kncube_core::{
    FaultyChannelRates, FaultyNCubeConfig, FaultyNCubeModel, FaultyNCubeOutput, ModelError,
};
use kncube_topology::{FaultRouter, KAryNCube, NodeId};
use kncube_traffic::{sample_fault_set, FaultSpec};

const K: u32 = 16;
const N: u32 = 2;
const V: u32 = 2;
const LM: u32 = 32;
const H: f64 = 0.2;
const SPEC: FaultSpec = FaultSpec {
    router_failure_prob: 0.02,
    link_failure_prob: 0.03,
};
/// The latency curve, as shares of the sample's λ*.
pub const CURVE: [f64; 4] = [0.2, 0.4, 0.6, 0.8];

/// The answer to one fault sample.
pub struct Answer {
    pub model: FaultyNCubeModel,
    pub certified: bool,
    pub saturation: Result<SaturationReport, SaturationError>,
    pub curve: Vec<Result<FaultyNCubeOutput, ModelError>>,
}

#[derive(Default)]
struct Counts {
    answers: f64,
    probes: f64,
    reachable_pairs: f64,
    route_hops: f64,
    certified: f64,
}

pub struct FaultySweep {
    seed: u64,
    counts: Counts,
}

impl FaultySweep {
    pub fn setup(seed: u64) -> Self {
        FaultySweep {
            seed,
            counts: Counts::default(),
        }
    }

    /// The topology and sample seed of request `index`.
    pub fn sample(&self, index: usize) -> (KAryNCube, u64) {
        let topo = if index.is_multiple_of(2) {
            KAryNCube::bidirectional(K, N)
        } else {
            KAryNCube::mesh(K, N)
        };
        (
            topo.expect("(16,2) is a valid topology"),
            request_seed(self.seed, index),
        )
    }

    /// Everything wrong with `answer`: a failed saturation search or
    /// solve below λ*, a latency that is not finite, decreases along the
    /// curve or undercuts the zero-load latency, or a reachable-pair
    /// census that disagrees with the router's.
    pub fn problems(answer: &Answer) -> Vec<String> {
        let mut problems = Vec::new();
        if let Err(e) = &answer.saturation {
            problems.push(format!("no saturation rate: {e}"));
        }
        let zero_load = answer.model.zero_load_latency();
        let pairs = answer.model.router().reachable_pairs();
        let mut previous = zero_load;
        for (frac, point) in CURVE.iter().zip(&answer.curve) {
            match point {
                Err(e) => problems.push(format!("solve at {frac}·λ* failed: {e}")),
                Ok(out) => {
                    let l = out.latency;
                    if !(l.is_finite() && l >= previous) {
                        problems.push(format!(
                            "latency {l} at {frac}·λ* is not finite or below {previous}"
                        ));
                    }
                    previous = previous.max(l);
                    if out.reachable_pairs != pairs {
                        problems.push(format!(
                            "{} reachable pairs reported, router has {pairs}",
                            out.reachable_pairs
                        ));
                    }
                }
            }
        }
        if answer.curve.len() != CURVE.len() {
            problems.push(format!(
                "{} of {} curve points",
                answer.curve.len(),
                CURVE.len()
            ));
        }
        problems
    }
}

/// Hops one per-channel solve walks: the surviving-route length summed
/// over reachable ordered pairs (computed from the router's distances).
fn route_hops(router: &FaultRouter) -> u64 {
    let topo = router.topology();
    topo.nodes()
        .flat_map(|s| topo.nodes().map(move |d| (s, d)))
        .filter_map(|(s, d)| router.distance(s, d))
        .map(u64::from)
        .sum()
}

impl Workload for FaultySweep {
    type Output = Result<Answer, String>;
    const COUNT_PREFIX: usize = 4;
    /// A torus answer and a mesh answer.
    const WINDOW: usize = 2;

    fn request(&mut self, index: usize, tracer: &mut Tracer) -> Self::Output {
        let (topo, sample_seed) = self.sample(index);
        let faults = tracer.span(Layer::Traffic, "sample_fault_set", || {
            sample_fault_set(topo, SPEC, sample_seed)
        });
        let config = FaultyNCubeConfig::new(faults, V, LM, 0.0, H);
        let model = tracer
            .span(Layer::Core, "FaultyNCubeModel::new", || {
                FaultyNCubeModel::new(config)
            })
            .map_err(|e| e.to_string())?;
        let certified = tracer.span(Layer::Topology, "FaultRouter::deadlock_free", || {
            model.router().deadlock_free()
        });
        let saturation = tracer.span(Layer::Core, "FaultyNCubeModel::saturation", || {
            model.saturation(1e-9, 1e-1, 1e-3)
        });
        let lambda_star = saturation.as_ref().map_or(0.0, |s| s.lambda_star);
        let curve = CURVE
            .iter()
            .map(|frac| {
                tracer.span(Layer::Core, "FaultyNCubeModel::solve_at", || {
                    model.solve_at(frac * lambda_star)
                })
            })
            .collect();
        Ok(Answer {
            model,
            certified,
            saturation,
            curve,
        })
    }

    fn check(&self, index: usize, output: &Self::Output, failures: &mut Vec<String>) -> Checked {
        let problems = match output {
            Ok(answer) => Self::problems(answer),
            Err(e) => vec![e.clone()],
        };
        for p in &problems {
            failures.push(format!("sample {index}: {p}"));
        }
        let failed = u64::from(!problems.is_empty());
        Checked {
            ops: 1,
            failed,
            work: 1 - failed,
        }
    }

    /// Replays the two halves of `FaultyNCubeModel::new` — the router
    /// build and the rate enumeration — outside the request, so the trace
    /// splits construction without touching the timed path.
    fn observe(&mut self, _index: usize, output: &Self::Output, tracer: &mut Tracer) {
        let Ok(answer) = output else { return };
        let faults = answer.model.config().faults.clone();
        let router = tracer.span(Layer::Topology, "FaultRouter::new", || {
            FaultRouter::new(faults)
        });
        tracer.span(Layer::Core, "FaultyChannelRates::from_router", || {
            FaultyChannelRates::from_router(&router, NodeId(0), H)
        });
        let c = &mut self.counts;
        if c.answers as usize >= Self::COUNT_PREFIX {
            return;
        }
        c.answers += 1.0;
        c.probes += answer.saturation.as_ref().map_or(0, |s| s.probes) as f64;
        c.reachable_pairs += answer.model.router().reachable_pairs() as f64;
        c.route_hops += route_hops(answer.model.router()) as f64;
        c.certified += f64::from(u8::from(answer.certified));
    }

    fn per_layer(&self, tracer: &Tracer, values: &mut Values) {
        let mean_of = |name| mean(&tracer.durations_ms(name));
        values.insert("traffic.sample_fault_set_ms", mean_of("sample_fault_set"));
        values.insert(
            "topology.fault_router_build_ms",
            mean_of("FaultRouter::new"),
        );
        values.insert(
            "topology.deadlock_free_ms",
            mean_of("FaultRouter::deadlock_free"),
        );
        values.insert(
            "core.faulty_rates_ms",
            mean_of("FaultyChannelRates::from_router"),
        );
        values.insert(
            "core.faulty_model_build_ms",
            mean_of("FaultyNCubeModel::new"),
        );
        let solves = tracer.durations_ms("FaultyNCubeModel::solve_at");
        values.insert("core.faulty_solve_ms_p50", quantile(&solves, 0.5));
        values.insert("core.faulty_solve_ms_p95", quantile(&solves, 0.95));
        values.insert(
            "core.faulty_saturation_ms",
            mean_of("FaultyNCubeModel::saturation"),
        );
        let c = &self.counts;
        let per_answer = |x: f64| x / c.answers.max(1.0);
        values.insert("core.faulty_saturation.probes", per_answer(c.probes));
        values.insert("core.faulty.route_hops_per_solve", per_answer(c.route_hops));
        values.insert("topology.reachable_pairs", per_answer(c.reachable_pairs));
        values.insert("topology.certified_share", per_answer(c.certified));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_samples() {
        let a = FaultySweep::setup(9);
        let b = FaultySweep::setup(9);
        let c = FaultySweep::setup(10);
        for index in 0..4 {
            let fingerprint = |w: &FaultySweep| {
                let (topo, seed) = w.sample(index);
                sample_fault_set(topo, SPEC, seed).fingerprint()
            };
            assert_eq!(fingerprint(&a), fingerprint(&b));
            assert_ne!(fingerprint(&a), fingerprint(&c));
        }
    }

    #[test]
    fn answers_check_and_a_broken_curve_is_counted() {
        // A small sample answered directly keeps the test quick.
        let topo = KAryNCube::mesh(4, 2).unwrap();
        let model = FaultyNCubeModel::new(FaultyNCubeConfig::new(
            sample_fault_set(topo, SPEC, 1),
            V,
            LM,
            0.0,
            H,
        ))
        .unwrap();
        let saturation = model.saturation(1e-9, 1e-1, 1e-3);
        let star = saturation.as_ref().unwrap().lambda_star;
        let curve = CURVE.iter().map(|f| model.solve_at(f * star)).collect();
        let mut answer = Answer {
            model,
            certified: false,
            saturation,
            curve,
        };
        assert!(FaultySweep::problems(&answer).is_empty());
        let w = FaultySweep::setup(1);
        let mut failures = Vec::new();

        answer.curve.swap(0, 3);
        let broken = w.check(0, &Ok(answer), &mut failures);
        assert_eq!((broken.ops, broken.failed, broken.work), (1, 1, 0));
        assert!(!failures.is_empty());
    }
}
