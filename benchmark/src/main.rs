//! The kncube benchmark: one closed-loop workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets the workload up three times (reporting
//! the median set-up time), then issues requests for `--seconds` seconds
//! and prints the end-to-end metrics.  With `--trace 1` it sets up once,
//! runs half the time untraced and half traced over the same request
//! sequence, prints the per-layer metrics (the untraced half gives the
//! tracing overhead) and writes the spans to `benchmark/traces/`.  Every
//! output is checked; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.  See README.md for
//! the workloads and what each metric should move.

mod faulty_sweep;
mod metrics;
mod query_mix;
mod rng;
mod sim_sweep;
mod stats;
mod trace;
mod workload;

use faulty_sweep::FaultySweep;
use metrics::{MetricDef, Values, END_TO_END, PER_LAYER};
use query_mix::QueryMix;
use sim_sweep::{LoadPoint, SimSweep};
use stats::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Layer, Tracer};
use workload::{Checked, Workload};

/// Every workload, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["sim_light", "sim_heavy", "query_mix", "faulty_sweep"];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed over the whole run, with the first
/// failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, c: Checked) {
        self.attempted += c.ops;
        self.failed += c.failed;
    }
}

/// The requests of one timed pass.
#[derive(Default)]
struct Pass {
    request_s: Vec<f64>,
    work: Vec<u64>,
}

impl Pass {
    /// Work per second of request time: the median over consecutive
    /// windows of `window` requests, so a burst of interference from
    /// outside the process moves one window rather than the result (and
    /// a window left incomplete by the clock is dropped).  Falls back to
    /// the whole pass when it holds no complete window.
    fn throughput(&self, window: usize) -> f64 {
        let rate = |s: &[f64], w: &[u64]| w.iter().sum::<u64>() as f64 / s.iter().sum::<f64>();
        let windows: Vec<f64> = self
            .request_s
            .chunks_exact(window)
            .zip(self.work.chunks_exact(window))
            .map(|(s, w)| rate(s, w))
            .collect();
        if windows.is_empty() {
            rate(&self.request_s, &self.work)
        } else {
            median(&windows)
        }
    }
}

/// Issue requests 0, 1, 2, … for `seconds` of wall time (and at least
/// `min_requests`), checking each output after its request returns.
fn timed_pass<W: Workload>(
    w: &mut W,
    tracer: &mut Tracer,
    seconds: f64,
    min_requests: usize,
    tally: &mut Tally,
) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    let mut index = 0;
    while index < min_requests.max(1) || start.elapsed().as_secs_f64() < seconds {
        tracer.begin_request(index);
        let t = Instant::now();
        let out = w.request(index, tracer);
        pass.request_s.push(t.elapsed().as_secs_f64());
        tracer.end_request();
        let checked = w.check(index, &out, &mut tally.failures);
        tally.add(checked);
        pass.work.push(checked.work);
        if tracer.enabled() {
            w.observe(index, &out, tracer);
        }
        index += 1;
    }
    pass
}

/// Set up a workload and answer one warm-up request (request 0), so
/// lazy initialisation (thread pool, allocator, page faults) is over
/// before timing starts.  Returns the workload and the set-up seconds.
fn set_up<W: Workload>(
    setup: &impl Fn(u64) -> Result<W, String>,
    seed: u64,
    tally: &mut Tally,
) -> Result<(W, f64), String> {
    let t = Instant::now();
    let mut w = setup(seed)?;
    let warm = w.request(0, &mut Tracer::new(false));
    let secs = t.elapsed().as_secs_f64();
    let checked = w.check(0, &warm, &mut tally.failures);
    tally.add(checked);
    Ok((w, secs))
}

struct Report {
    summary: String,
    tally: Tally,
    metrics: Vec<(MetricDef, f64)>,
}

fn run<W: Workload>(
    args: &Args,
    setup: impl Fn(u64) -> Result<W, String>,
) -> Result<Report, String> {
    let mut tally = Tally::default();
    if !args.trace {
        let mut setup_s = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let (w, secs) = set_up(&setup, args.seed, &mut tally)?;
            setup_s.push(secs);
            last = Some(w);
        }
        let mut w = last.expect("at least one set-up");
        let pass = timed_pass(&mut w, &mut Tracer::new(false), args.seconds, 1, &mut tally);
        let busy_s: f64 = pass.request_s.iter().sum();
        let values: Values = [
            ("setup_s", median(&setup_s)),
            ("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN)),
            ("throughput_per_s", pass.throughput(W::WINDOW)),
            ("request_ms_p50", median(&pass.request_s) * 1e3),
        ]
        .into_iter()
        .collect();
        let summary = format!(
            "{} requests in {busy_s:.2} s of request time, throughput median of {} windows; \
             set-up median of {SETUP_REPEATS}",
            pass.request_s.len(),
            pass.request_s.len() / W::WINDOW
        );
        return Ok(Report {
            summary,
            tally,
            metrics: END_TO_END.iter().map(|d| (*d, values[d.name])).collect(),
        });
    }

    let (mut w, _) = set_up(&setup, args.seed, &mut tally)?;
    let half = args.seconds / 2.0;
    let min = W::COUNT_PREFIX;
    let untraced = timed_pass(&mut w, &mut Tracer::new(false), half, min, &mut tally);
    let mut tracer = Tracer::new(true);
    let traced = timed_pass(&mut w, &mut tracer, half, min, &mut tally);

    let mut values: Values = PER_LAYER.iter().map(|d| (d.name, 0.0)).collect();
    let requests = tracer.request_ms();
    let total_ms: f64 = requests.iter().sum();
    for (layer, self_ms) in Layer::ALL.iter().zip(tracer.self_ms_by_layer()) {
        let name = layer.name();
        let per_request = self_ms / requests.len() as f64;
        values.insert(metrics::declared(&format!("{name}.self_ms")), per_request);
        values.insert(
            metrics::declared(&format!("{name}.share")),
            self_ms / total_ms,
        );
    }
    // Overhead over the requests both passes answered (the same inputs).
    let common = untraced.request_s.len().min(traced.request_s.len());
    let sum = |p: &Pass| p.request_s[..common].iter().sum::<f64>();
    values.insert("trace.overhead", sum(&traced) / sum(&untraced) - 1.0);
    values.insert("bench.requests", requests.len() as f64);
    w.per_layer(&tracer, &mut values);
    assert_eq!(values.len(), PER_LAYER.len(), "undeclared per-layer metric");

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write spans to {}: {e}", path.display());
    }
    let summary = format!(
        "{} untraced then {} traced requests; {} spans written to {}",
        untraced.request_s.len(),
        traced.request_s.len(),
        tracer.spans().len(),
        path.display()
    );
    Ok(Report {
        summary,
        tally,
        metrics: PER_LAYER.iter().map(|d| (*d, values[d.name])).collect(),
    })
}

impl Report {
    /// The human-readable table, then the one-line JSON result.
    fn print(&self, args: &Args) {
        let mode = if args.trace { "traced" } else { "untraced" };
        println!(
            "# {} seed {} ({mode}): {}",
            args.workload, args.seed, self.summary
        );
        for (def, value) in &self.metrics {
            println!(
                "{:<36} {:>18.6} {:<7} ({} is better)",
                def.name,
                value,
                def.unit,
                def.better.as_str()
            );
        }
        let t = &self.tally;
        println!(
            "{:<36} {:>18.6} {:<7} (lower is better; {} of {} operations)",
            "failed_frac",
            t.failed as f64 / t.attempted.max(1) as f64,
            "ratio",
            t.failed,
            t.attempted
        );
        for f in t.failures.iter().take(10) {
            eprintln!("FAILED: {f}");
        }
        let unmeasured: Vec<&str> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(d, _)| d.name)
            .collect();
        for name in &unmeasured {
            eprintln!("FAILED: metric {name} could not be measured");
        }
        let correct = t.failed == 0 && unmeasured.is_empty();
        let mut json = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            t.attempted, t.failed
        );
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "{e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "sim_light" => run(&args, |s| SimSweep::setup(s, LoadPoint::Light)),
        "sim_heavy" => run(&args, |s| SimSweep::setup(s, LoadPoint::Heavy)),
        "query_mix" => run(&args, QueryMix::setup),
        "faulty_sweep" => run(&args, |s| Ok(FaultySweep::setup(s))),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    };
    match report {
        Ok(report) => {
            report.print(&args);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kncube_bench::json::{parse, Json};

    /// `BENCHMARK.json` must declare exactly the workloads and metrics
    /// this program prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("an array")
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(entries.len(), defs.len(), "{key}");
            for (entry, def) in entries.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(Json::as_str).unwrap();
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = args("--workload query_mix --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query_mix", 3, 10.0, true)
        );
        assert!(args("--workload query_mix --seed 3 --seconds 10 --trace 2").is_err());
        assert!(args("--workload query_mix --seconds 10").is_err());
        assert!(args("--seed 1 --seconds 1 --bogus 1").is_err());
    }
}
