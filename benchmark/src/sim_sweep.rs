//! `sim_light` and `sim_heavy`: simulator validation runs.
//!
//! The paper's validation configuration — a (16,2) unidirectional torus,
//! V = 2, Lm = 32, h = 0.2, hot-spot traffic — at a light load of
//! 0.25·λ\* and a heavy load of 0.8·λ\*, where λ\* comes from
//! `find_saturation_ncube_report` during set-up.  A request is one
//! `Simulator::new` + `run` to a fixed delivered-message target, with a
//! simulator seed derived from the workload seed and the request index.

use crate::metrics::{declared, Values};
use crate::rng::request_seed;
use crate::stats::median;
use crate::trace::{Layer, Tracer};
use crate::workload::{Checked, Workload};
use kncube_core::{find_saturation_ncube_report, NCubeConfig, NCubeModel};
use kncube_sim::{SimConfig, SimReport, Simulator};

const K: u32 = 16;
const V: u32 = 2;
const LM: u32 = 32;
const H: f64 = 0.2;
const NODES: f64 = (K * K) as f64;
/// Cycles simulated before statistics collection starts.
const WARMUP_CYCLES: u64 = 20_000;

/// One of the two load points of the validation sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoadPoint {
    Light,
    Heavy,
}

impl LoadPoint {
    /// Offered load as a share of λ*.
    pub fn fraction(self) -> f64 {
        match self {
            LoadPoint::Light => 0.25,
            LoadPoint::Heavy => 0.8,
        }
    }

    /// Measured messages each run delivers.  Heavy-load means are far
    /// noisier (hot-spot bursts), so heavy runs are longer.
    pub fn target(self) -> u64 {
        match self {
            LoadPoint::Light => 10_000,
            LoadPoint::Heavy => 40_000,
        }
    }

    /// Relative model-vs-simulator envelope of `tests/model_vs_sim.rs`:
    /// 15% at light load, 25% at moderate load and above.
    pub fn envelope(self) -> f64 {
        match self {
            LoadPoint::Light => 0.15,
            LoadPoint::Heavy => 0.25,
        }
    }

    fn suffix(self) -> &'static str {
        match self {
            LoadPoint::Light => "light",
            LoadPoint::Heavy => "heavy",
        }
    }
}

/// What the traced pass keeps per run.
struct RunObs {
    run_ms: f64,
    cycles: u64,
    completed: u64,
}

pub struct SimSweep {
    point: LoadPoint,
    seed: u64,
    lambda: f64,
    model_latency: f64,
    saturation_probes: usize,
    saturation_iterations: usize,
    first: Option<SimReport>,
    runs: Vec<RunObs>,
}

impl SimSweep {
    /// Find λ* and the model's latency at the load point.
    pub fn setup(seed: u64, point: LoadPoint) -> Result<Self, String> {
        let base = NCubeConfig::new(K, 2, V, LM, 0.0, H);
        let saturation =
            find_saturation_ncube_report(base, 1e-9, 1e-1, 1e-3).map_err(|e| e.to_string())?;
        let lambda = point.fraction() * saturation.lambda_star;
        let model_latency = NCubeModel::new(NCubeConfig { lambda, ..base })
            .and_then(|m| m.solve())
            .map_err(|e| e.to_string())?
            .latency;
        Ok(SimSweep {
            point,
            seed,
            lambda,
            model_latency,
            saturation_probes: saturation.probes,
            saturation_iterations: saturation.solver_iterations,
            first: None,
            runs: Vec::new(),
        })
    }

    /// The simulator configuration of request `index`.
    pub fn config(&self, index: usize) -> SimConfig {
        let target = self.point.target();
        // Three times the cycles the target needs at the offered rate: a
        // run that still misses its target is saturated, not unlucky.
        let max_cycles = WARMUP_CYCLES + (3.0 * target as f64 / (NODES * self.lambda)) as u64;
        SimConfig::paper_validation(K, V, LM, self.lambda, H, request_seed(self.seed, index))
            .with_limits(max_cycles, WARMUP_CYCLES, target)
    }

    /// Everything wrong with `report`: saturation, deadlock, a missed
    /// target, or a mean latency outside the model envelope widened by
    /// the run's own 95% confidence half-width.
    pub fn problems(&self, report: &SimReport) -> Vec<String> {
        let mut problems = Vec::new();
        if report.saturated {
            problems.push("saturated".to_string());
        }
        if report.deadlocked {
            problems.push("deadlocked".to_string());
        }
        if report.completed < self.point.target() {
            problems.push(format!(
                "delivered {} of {} messages",
                report.completed,
                self.point.target()
            ));
        }
        let sim = report.mean_latency;
        let allowed = self.point.envelope() * sim + report.ci_half_width.unwrap_or(0.0);
        // Written so that a NaN latency fails the check.
        let within = (self.model_latency - sim).abs() <= allowed;
        if !within {
            problems.push(format!(
                "mean latency {sim:.2} vs model {:.2}: outside the ±{allowed:.2} envelope",
                self.model_latency
            ));
        }
        problems
    }
}

impl Workload for SimSweep {
    type Output = Result<SimReport, String>;
    const COUNT_PREFIX: usize = 1;
    const WINDOW: usize = 4;

    fn request(&mut self, index: usize, tracer: &mut Tracer) -> Self::Output {
        let config = self.config(index);
        let sim = tracer
            .span(Layer::Sim, "Simulator::new", || Simulator::new(config))
            .map_err(|e| e.to_string())?;
        Ok(tracer.span(Layer::Sim, "Simulator::run", || sim.run()))
    }

    fn check(&self, index: usize, output: &Self::Output, failures: &mut Vec<String>) -> Checked {
        let problems = match output {
            Ok(report) => self.problems(report),
            Err(e) => vec![e.clone()],
        };
        for p in &problems {
            failures.push(format!("run {index}: {p}"));
        }
        Checked {
            ops: 1,
            failed: u64::from(!problems.is_empty()),
            work: output.as_ref().map_or(0, |r| r.completed),
        }
    }

    fn observe(&mut self, _index: usize, output: &Self::Output, tracer: &mut Tracer) {
        if let Ok(report) = output {
            self.runs.push(RunObs {
                run_ms: tracer.last_ms("Simulator::run").unwrap_or(f64::NAN),
                cycles: report.cycles,
                completed: report.completed,
            });
            if self.first.is_none() {
                self.first = Some(report.clone());
            }
        }
    }

    fn per_layer(&self, tracer: &Tracer, values: &mut Values) {
        let sfx = self.point.suffix();
        let key = |stem: &str| declared(&format!("{stem}.{sfx}"));
        let per_run =
            |f: &dyn Fn(&RunObs) -> f64| median(&self.runs.iter().map(f).collect::<Vec<_>>());
        values.insert(key("sim.run_s"), per_run(&|r| r.run_ms * 1e-3));
        values.insert(
            key("sim.ns_per_cycle"),
            per_run(&|r| r.run_ms * 1e6 / r.cycles as f64),
        );
        values.insert(
            key("sim.us_per_msg"),
            per_run(&|r| r.run_ms * 1e3 / r.completed as f64),
        );
        values.insert("sim.new_ms", median(&tracer.durations_ms("Simulator::new")));
        if let Some(first) = &self.first {
            values.insert(key("sim.cycles"), first.cycles as f64);
            values.insert(key("sim.generated"), first.generated as f64);
            values.insert(key("sim.completed"), first.completed as f64);
            values.insert(
                "sim.delivered_share",
                first.completed as f64 / first.generated as f64,
            );
            values.insert(key("sim.mean_latency_cycles"), first.mean_latency);
            values.insert(key("sim.vbar"), first.vbar_measured);
            values.insert(key("sim.max_source_queue"), first.max_source_queue as f64);
        }
        values.insert("core.saturation.probes", self.saturation_probes as f64);
        values.insert(
            "core.saturation.solver_iterations",
            self.saturation_iterations as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_runs_and_load_below_saturation() {
        for point in [LoadPoint::Light, LoadPoint::Heavy] {
            let a = SimSweep::setup(11, point).unwrap();
            let b = SimSweep::setup(11, point).unwrap();
            let c = SimSweep::setup(12, point).unwrap();
            assert_eq!(a.config(3).seed, b.config(3).seed);
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
            assert_ne!(a.config(3).seed, c.config(3).seed);
            assert_ne!(a.config(3).seed, a.config(4).seed);
            let lambda_star = a.lambda / point.fraction();
            assert!(a.lambda > 0.0 && a.lambda < lambda_star);
        }
    }

    #[test]
    fn failure_counter_counts_a_broken_report() {
        let mut w = SimSweep::setup(5, LoadPoint::Light).unwrap();
        let mut tracer = Tracer::new(false);
        let good = w.request(0, &mut tracer);
        let mut failures = Vec::new();
        assert_eq!(w.check(0, &good, &mut failures).failed, 0, "{failures:?}");

        let mut saturated = good.clone().unwrap();
        saturated.saturated = true;
        assert_eq!(w.check(0, &Ok(saturated), &mut failures).failed, 1);

        let mut off_model = good.clone().unwrap();
        off_model.mean_latency *= 2.0;
        assert_eq!(w.check(0, &Ok(off_model), &mut failures).failed, 1);

        let mut short = good.unwrap();
        short.completed = LoadPoint::Light.target() - 1;
        assert_eq!(w.check(0, &Ok(short), &mut failures).failed, 1);
        assert_eq!(failures.len(), 3);
    }
}
