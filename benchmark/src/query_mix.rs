//! `query_mix`: batched model queries through the JSON front end.
//!
//! A request is one batch document taken through `json::parse` →
//! `queries::run_batch` → `Json::pretty`.  Set-up generates a pool of
//! batch documents from the seed:
//!
//! * batch sizes log-uniform over 8–512 queries, drawn stratified (one
//!   draw per equal-probability stratum, then shuffled) so every seed
//!   sees the same size distribution and only the order and contents
//!   vary;
//! * geometries from {(16,2), (8,3), (4,4), (32,2)} with h and Lm varied,
//!   half of the queries on the iterating `path_occupancy` service model;
//! * latency rates drawn below each configuration's λ\*, with about a
//!   quarter of the latency queries repeating an earlier one of the same
//!   batch so the per-batch `SolveCache` gets hits;
//! * a saturation query about every 50 queries and a Pareto query about
//!   every 100, both on the default pipelined service model.

use crate::metrics::Values;
use crate::rng::SplitMix64;
use crate::stats::{mean, quantile};
use crate::trace::{Layer, Tracer};
use crate::workload::{Checked, Workload};
use kncube_bench::json::{self, Json};
use kncube_bench::queries;
use kncube_core::{find_saturation_ncube_report, NCubeConfig, ServiceTimeModel};
use std::fmt::Write as _;

const GEOMETRIES: [(u32, u32); 4] = [(16, 2), (8, 3), (4, 4), (32, 2)];
const HOT_FRACTIONS: [f64; 3] = [0.1, 0.2, 0.4];
const MESSAGE_LENGTHS: [u32; 3] = [16, 32, 64];
const V: u32 = 2;
/// Batch documents generated at set-up; requests cycle through them.
pub const POOL: usize = 256;
const MIN_BATCH: f64 = 8.0;
const MAX_BATCH: f64 = 512.0;
const REPEAT_SHARE: f64 = 0.25;
const SATURATION_SHARE: f64 = 1.0 / 50.0;
const PARETO_SHARE: f64 = 1.0 / 100.0;
/// Latency rates are drawn from this band of λ*.
const LAMBDA_BAND: (f64, f64) = (0.05, 0.9);

/// One model configuration of the mix, without its rate.
#[derive(Clone, Copy, Debug)]
pub struct Family {
    pub k: u32,
    pub n: u32,
    pub h: f64,
    pub lm: u32,
    pub path_occupancy: bool,
    pub lambda_star: f64,
}

impl Family {
    fn config(&self, lambda: f64) -> NCubeConfig {
        let mut cfg = NCubeConfig::new(self.k, self.n, V, self.lm, lambda, self.h);
        if self.path_occupancy {
            cfg.service_model = ServiceTimeModel::PathOccupancy;
        }
        cfg
    }

    /// The JSON fields shared by every query on this family.
    fn fields(&self) -> String {
        let mut s = format!("\"v\": {V}, \"lm\": {}, \"h\": {}", self.lm, self.h);
        if self.path_occupancy {
            s.push_str(", \"service_model\": \"path_occupancy\"");
        }
        s
    }
}

/// The generated inputs of a run: the batch documents as text and their
/// query counts.
pub struct Inputs {
    pub docs: Vec<String>,
    pub sizes: Vec<usize>,
}

/// The λ* of every family in the mix.
fn families() -> Result<Vec<Family>, String> {
    let mut out = Vec::new();
    for &(k, n) in &GEOMETRIES {
        for &h in &HOT_FRACTIONS {
            for &lm in &MESSAGE_LENGTHS {
                for path_occupancy in [false, true] {
                    let mut f = Family {
                        k,
                        n,
                        h,
                        lm,
                        path_occupancy,
                        lambda_star: 0.0,
                    };
                    f.lambda_star = find_saturation_ncube_report(f.config(0.0), 1e-9, 1e-1, 1e-3)
                        .map_err(|e| format!("λ* of {f:?}: {e}"))?
                        .lambda_star;
                    out.push(f);
                }
            }
        }
    }
    Ok(out)
}

/// Generate the run's inputs from `seed`.
pub fn generate(seed: u64) -> Result<Inputs, String> {
    let families = families()?;
    let mut rng = SplitMix64::new(seed, 0x0DE5);
    let ratio = MAX_BATCH / MIN_BATCH;
    let mut sizes: Vec<usize> = (0..POOL)
        .map(|j| {
            let u = (j as f64 + rng.unit()) / POOL as f64;
            (MIN_BATCH * ratio.powf(u)).round() as usize
        })
        .collect();
    rng.shuffle(&mut sizes);

    let mut docs = Vec::with_capacity(POOL);
    for &size in &sizes {
        let mut queries: Vec<String> = Vec::with_capacity(size);
        let mut latency_in_batch: Vec<usize> = Vec::new();
        for _ in 0..size {
            let r = rng.unit();
            let fam = families[rng.below(families.len())];
            // Saturation and Pareto queries ask about the default
            // pipelined service model: a path-occupancy saturation search
            // to the engine's 1e-6 tolerance costs 10–200 ms (against
            // about 1 ms), so at one query in fifty it would take most of
            // the run and hide the cache, warm-start and JSON layers.
            let pipelined = Family {
                path_occupancy: false,
                ..fam
            };
            if r < SATURATION_SHARE {
                let (k, n) = (fam.k, fam.n);
                queries.push(format!(
                    "{{\"type\": \"saturation\", \"k\": {k}, \"n\": {n}, {}}}",
                    pipelined.fields()
                ));
            } else if r < SATURATION_SHARE + PARETO_SHARE {
                // Half the smallest λ* over the candidates: every
                // candidate answers, so the pick always exists.
                let lambda = 0.5
                    * families
                        .iter()
                        .filter(|f| f.h == fam.h && f.lm == fam.lm && !f.path_occupancy)
                        .map(|f| f.lambda_star)
                        .fold(f64::INFINITY, f64::min);
                let min_nodes = [64, 256][rng.below(2)];
                let candidates: Vec<String> = GEOMETRIES
                    .iter()
                    .map(|(k, n)| format!("[{k}, {n}]"))
                    .collect();
                queries.push(format!(
                    "{{\"type\": \"pareto\", {}, \"lambda\": {lambda:e}, \"min_nodes\": {min_nodes}, \
                     \"candidates\": [{}]}}",
                    pipelined.fields(),
                    candidates.join(", ")
                ));
            } else if !latency_in_batch.is_empty() && rng.unit() < REPEAT_SHARE {
                let again = latency_in_batch[rng.below(latency_in_batch.len())];
                queries.push(queries[again].clone());
            } else {
                let (lo, hi) = LAMBDA_BAND;
                let lambda = fam.lambda_star * (lo + (hi - lo) * rng.unit());
                latency_in_batch.push(queries.len());
                let (k, n) = (fam.k, fam.n);
                queries.push(format!(
                    "{{\"type\": \"latency\", \"k\": {k}, \"n\": {n}, {}, \"lambda\": {lambda:e}}}",
                    fam.fields()
                ));
            }
        }
        let mut doc = String::from("{\"queries\": [\n");
        for (i, q) in queries.iter().enumerate() {
            let sep = if i + 1 < queries.len() { "," } else { "" };
            let _ = writeln!(doc, "  {q}{sep}");
        }
        doc.push_str("]}\n");
        docs.push(doc);
    }
    Ok(Inputs { docs, sizes })
}

/// What one batch request returns.
pub struct BatchOutput {
    pub input: Result<Json, String>,
    pub output: Result<Json, String>,
    pub text: String,
}

/// Counts of the traced pass's first batches, read from the outputs.
#[derive(Default)]
struct Counts {
    hits: f64,
    misses: f64,
    latency_queries: f64,
    iterations: f64,
    saturation_probes: f64,
    saturation_iterations: f64,
}

pub struct QueryMix {
    inputs: Inputs,
    counts: Counts,
    counted: usize,
    parse_ns_per_byte: Vec<f64>,
}

impl QueryMix {
    pub fn setup(seed: u64) -> Result<Self, String> {
        Ok(QueryMix {
            inputs: generate(seed)?,
            counts: Counts::default(),
            counted: 0,
            parse_ns_per_byte: Vec::new(),
        })
    }

    fn doc(&self, index: usize) -> &str {
        &self.inputs.docs[index % POOL]
    }
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

impl Workload for QueryMix {
    type Output = BatchOutput;
    const COUNT_PREFIX: usize = 32;
    const WINDOW: usize = 64;

    fn request(&mut self, index: usize, tracer: &mut Tracer) -> BatchOutput {
        let text = self.doc(index);
        let input = tracer
            .span(Layer::BenchJson, "json::parse", || json::parse(text))
            .map_err(|e| e.to_string());
        let output = match &input {
            Ok(doc) => tracer.span(Layer::BenchQueries, "queries::run_batch", || {
                queries::run_batch(doc)
            }),
            Err(e) => Err(e.clone()),
        };
        let text = match &output {
            Ok(out) => tracer.span(Layer::BenchJson, "Json::pretty", || out.pretty()),
            Err(_) => String::new(),
        };
        BatchOutput {
            input,
            output,
            text,
        }
    }

    /// Every query must answer `ok: true`, every latency answer must
    /// match a cold solve to 1e-9 (`queries::check_cold`), and the
    /// serialised document must be a JSON object.  A query that is both
    /// refused and off the cold solve counts once.
    fn check(&self, index: usize, out: &BatchOutput, failures: &mut Vec<String>) -> Checked {
        let ops = self.inputs.sizes[index % POOL] as u64;
        let mut all_failed = |why: String| {
            failures.push(format!("batch {index}: {why}"));
            Checked {
                ops,
                failed: ops,
                work: 0,
            }
        };
        let (input, output) = match (&out.input, &out.output) {
            (Ok(i), Ok(o)) => (i, o),
            (Err(e), _) | (_, Err(e)) => return all_failed(e.clone()),
        };
        let results = output.get("results").and_then(Json::as_arr).unwrap_or(&[]);
        if results.len() as u64 != ops {
            return all_failed(format!("{} results for {ops} queries", results.len()));
        }
        let violations = match queries::check_cold(input, output) {
            Ok(v) => v,
            Err(e) => return all_failed(e),
        };
        let refused = results
            .iter()
            .filter(|r| r.get("ok") != Some(&Json::Bool(true)))
            .count() as u64;
        for v in &violations {
            failures.push(format!("batch {index}: {v}"));
        }
        if refused > 0 {
            failures.push(format!(
                "batch {index}: {refused} queries answered ok:false"
            ));
        }
        let mut failed = (refused + violations.len() as u64).min(ops);
        if !(out.text.starts_with('{') && out.text.trim_end().ends_with('}')) {
            failures.push(format!(
                "batch {index}: serialised output is not a JSON object"
            ));
            failed = ops;
        }
        Checked {
            ops,
            failed,
            work: ops - failed,
        }
    }

    fn observe(&mut self, index: usize, out: &BatchOutput, tracer: &mut Tracer) {
        if let Some(ms) = tracer.last_ms("json::parse") {
            self.parse_ns_per_byte
                .push(ms * 1e6 / self.doc(index).len() as f64);
        }
        if self.counted >= Self::COUNT_PREFIX {
            return;
        }
        self.counted += 1;
        let Ok(output) = &out.output else { return };
        let c = &mut self.counts;
        if let Some(cache) = output.get("cache") {
            c.hits += num(cache, "hits");
            c.misses += num(cache, "misses");
        }
        for r in output.get("results").and_then(Json::as_arr).unwrap_or(&[]) {
            match r.get("type").and_then(Json::as_str) {
                Some("latency") => {
                    c.latency_queries += 1.0;
                    c.iterations += num(r, "iterations");
                }
                Some("saturation") => {
                    c.saturation_probes += num(r, "probes");
                    c.saturation_iterations += num(r, "solver_iterations");
                }
                _ => {}
            }
        }
    }

    fn per_layer(&self, tracer: &Tracer, values: &mut Values) {
        values.insert(
            "bench.json.parse_ms",
            mean(&tracer.durations_ms("json::parse")),
        );
        values.insert(
            "bench.json.parse_ns_per_byte_p95",
            quantile(&self.parse_ns_per_byte, 0.95),
        );
        values.insert(
            "bench.json.serialise_ms",
            mean(&tracer.durations_ms("Json::pretty")),
        );
        values.insert(
            "bench.queries.run_batch_ms",
            mean(&tracer.durations_ms("queries::run_batch")),
        );
        values.insert("bench.batch_ms_p95", quantile(&tracer.request_ms(), 0.95));
        let c = &self.counts;
        values.insert("core.cache.hits", c.hits);
        values.insert("core.cache.misses", c.misses);
        values.insert(
            "core.cache.hit_ratio",
            c.hits / (c.hits + c.misses).max(1.0),
        );
        values.insert("queueing.fixed_point.iterations", c.iterations);
        values.insert(
            "queueing.fixed_point.iters_per_query",
            c.iterations / c.latency_queries.max(1.0),
        );
        values.insert("core.saturation.probes", c.saturation_probes);
        values.insert("core.saturation.solver_iterations", c.saturation_iterations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_documents() {
        let a = generate(42).unwrap();
        let b = generate(42).unwrap();
        let c = generate(43).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_ne!(a.docs, c.docs);
        assert_eq!(a.docs.len(), POOL);
    }

    #[test]
    fn every_rate_is_below_its_saturation_point() {
        let families = families().unwrap();
        let inputs = generate(7).unwrap();
        let mut checked = 0;
        for doc in &inputs.docs {
            let doc = json::parse(doc).unwrap();
            for q in doc.get("queries").and_then(Json::as_arr).unwrap() {
                if q.get("type").and_then(Json::as_str) != Some("latency") {
                    continue;
                }
                let field = |k: &str| q.get(k).and_then(Json::as_f64).unwrap();
                let path = q.get("service_model").is_some();
                let fam = families
                    .iter()
                    .find(|f| {
                        (f.k, f.n, f.lm)
                            == (field("k") as u32, field("n") as u32, field("lm") as u32)
                            && f.h == field("h")
                            && f.path_occupancy == path
                    })
                    .expect("every query belongs to a family");
                let lambda = field("lambda");
                assert!(
                    lambda > 0.0 && lambda < fam.lambda_star,
                    "λ={lambda} vs {fam:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 1000, "only {checked} latency queries");
        let sizes = &inputs.sizes;
        assert!(sizes.iter().all(|&s| (8..=512).contains(&s)));
        let total: usize = sizes.iter().sum();
        assert_eq!(
            total,
            inputs
                .docs
                .iter()
                .map(|d| d.lines().count() - 2)
                .sum::<usize>()
        );
    }

    #[test]
    fn failure_counter_counts_a_tampered_answer() {
        let mut w = QueryMix::setup(3).unwrap();
        let mut tracer = Tracer::new(false);
        // The smallest batch of the pool keeps the test quick.
        let index = (0..POOL).min_by_key(|&i| w.inputs.sizes[i]).unwrap();
        let mut out = w.request(index, &mut tracer);
        let mut failures = Vec::new();
        let clean = w.check(index, &out, &mut failures);
        assert_eq!(clean.failed, 0, "{failures:?}");
        assert_eq!(clean.work, clean.ops);

        // Shift one latency answer by 1%: check_cold must catch it.
        let Ok(Json::Obj(fields)) = &mut out.output else {
            panic!("batch answered")
        };
        let Json::Arr(results) = &mut fields[0].1 else {
            panic!("results first")
        };
        let latency = results
            .iter_mut()
            .find(|r| r.get("type") == Some(&Json::Str("latency".into())))
            .expect("a latency answer");
        let Json::Obj(pairs) = latency else { panic!() };
        for (k, v) in pairs.iter_mut() {
            if k == "latency" {
                *v = Json::Num(v.as_f64().unwrap() * 1.01);
            }
        }
        let tampered = w.check(index, &out, &mut failures);
        assert_eq!(tampered.failed, 1, "{failures:?}");
    }
}
