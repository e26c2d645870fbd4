//! What the runner needs from a workload.

use crate::metrics::Values;
use crate::trace::Tracer;

/// The verdict of one output check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checked {
    /// Operations the request attempted (queries, simulator runs or
    /// fault-sample answers).
    pub ops: u64,
    /// Operations among them that failed or produced a wrong output.
    pub failed: u64,
    /// Units of work the request delivered: the numerator of
    /// `throughput_per_s`.
    pub work: u64,
}

/// A closed-loop workload: request `index` is a pure function of the
/// workload seed and `index`, and the runner issues the next request only
/// after the previous one returned.
pub trait Workload {
    /// What one request returns to the checker.
    type Output;

    /// The number of requests at the start of the traced pass whose
    /// outputs give the exact per-layer counts: a fixed prefix, so the
    /// counts do not depend on how many requests fit in the run.
    const COUNT_PREFIX: usize;

    /// Consecutive requests per throughput window (see `throughput_per_s`
    /// in README.md): enough that windows carry comparable work.
    const WINDOW: usize;

    /// Answer request `index`: the timed part.
    fn request(&mut self, index: usize, tracer: &mut Tracer) -> Self::Output;

    /// Check request `index`'s output, pushing a line per failure.
    fn check(&self, index: usize, output: &Self::Output, failures: &mut Vec<String>) -> Checked;

    /// Record what the traced pass needs from request `index` beyond its
    /// spans.  Runs after the request's span has closed.
    fn observe(&mut self, index: usize, output: &Self::Output, tracer: &mut Tracer);

    /// Fill this workload's per-layer metrics from the traced pass.
    fn per_layer(&self, tracer: &Tracer, values: &mut Values);
}
