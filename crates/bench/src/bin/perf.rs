//! Perf trajectory harness: measures simulator throughput (cycles/s) and
//! model solve time across representative `(k, n)` configurations and
//! emits a machine-readable `BENCH_simulator.json`.
//!
//! Three load points per configuration, all driven through the production
//! `Simulator::run()` path:
//!
//! * `anchor` — 5% of the model's saturation rate λ*, the near-zero-load
//!   regime the paper's validation curves start from.  This is the
//!   **headline** `cycles_per_sec`: the engine's idle fast-forward makes
//!   it the rate a validation sweep actually experiences at its first
//!   grid points.
//! * `light` — 25% of λ*: busy-cycle dominated, little queueing.
//! * `moderate` — 50% of λ*: every cycle does flit work.
//!
//! The committed `BENCH_simulator.json` at the repo root is the baseline;
//! CI re-runs this harness with `--quick` and compares via `--baseline`:
//! a throughput ratio below `--min-ratio` (default 0.8) prints a warning
//! (exit 0 — timing on shared runners is noisy), a malformed or
//! schema-drifted baseline exits 1, and any measurement failure exits 2.

use kncube_bench::json::{parse, Json};
use kncube_bench::stamp::{git_commit, utc_now_iso8601};
use kncube_core::{find_saturation_ncube_report, NCubeConfig, NCubeModel};
use kncube_sim::{SimConfig, Simulator};
use std::time::Instant;

/// Schema version of the emitted document; bump on breaking changes.
const SCHEMA_VERSION: f64 = 1.0;

/// One benchmarked configuration: `(k, n, v, lm, h)`.
const CONFIGS: [(u32, u32, u32, u32, f64); 3] =
    [(16, 2, 2, 32, 0.2), (8, 3, 2, 16, 0.2), (4, 4, 2, 16, 0.2)];

/// `(label, fraction of λ*, full-run cycle budget, quick-run cycle budget)`.
const LOADS: [(&str, f64, u64, u64); 3] = [
    ("anchor", 0.05, 20_000_000, 2_000_000),
    ("light", 0.25, 6_000_000, 600_000),
    ("moderate", 0.50, 2_000_000, 200_000),
];

const SEED: u64 = 7;

struct Options {
    quick: bool,
    out: Option<String>,
    baseline: Option<String>,
    min_ratio: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf [--quick] [--out FILE] [--baseline FILE] [--min-ratio R]\n\
         \n\
         Measures simulator cycles/s and model solve time across (k,n) in\n\
         {{(16,2),(8,3),(4,4)}} and writes a BENCH_simulator.json document.\n\
         With --baseline, compares against a previous document: ratios below\n\
         R (default 0.8) warn; a malformed baseline is an error (exit 1)."
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        out: None,
        baseline: None,
        min_ratio: 0.8,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(args.next().unwrap_or_else(|| usage())),
            "--baseline" => opts.baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--min-ratio" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.min_ratio = v.parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    opts
}

/// Time one production `run()` and return `(cycles/s, cycles, seconds,
/// completed)`.
fn time_run(cfg: SimConfig) -> (f64, u64, f64, u64) {
    let sim = match Simulator::new(cfg) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error: invalid benchmark configuration: {e}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let report = sim.run();
    let dt = start.elapsed().as_secs_f64().max(1e-9);
    (
        report.cycles as f64 / dt,
        report.cycles,
        dt,
        report.completed,
    )
}

/// Mean solve time of the generalized model, in microseconds.
fn time_model_solve(cfg: NCubeConfig, iters: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        let out = NCubeModel::new(cfg).and_then(|m| m.solve());
        if let Err(e) = out {
            eprintln!("error: model failed to solve at λ={}: {e}", cfg.lambda);
            std::process::exit(2);
        }
    }
    start.elapsed().as_secs_f64() / iters as f64 * 1e6
}

fn measure(opts: &Options) -> Json {
    let mut configs = Vec::new();
    for (k, n, v, lm, h) in CONFIGS {
        let base = NCubeConfig::new(k, n, v, lm, 0.0, h);
        let sat = match find_saturation_ncube_report(base, 1e-9, 1e-1, 1e-3) {
            Ok(report) => report.lambda_star,
            Err(e) => {
                eprintln!("error: no saturation rate for k={k} n={n}: {e}");
                std::process::exit(2);
            }
        };
        let mut entry = Json::obj();
        entry.set("k", Json::Num(k as f64));
        entry.set("n", Json::Num(n as f64));
        entry.set("v", Json::Num(v as f64));
        entry.set("lm", Json::Num(lm as f64));
        entry.set("h", Json::Num(h));
        entry.set("saturation_lambda", Json::Num(sat));

        let mut loads = Vec::new();
        let mut headline = 0.0;
        for (label, frac, full_cycles, quick_cycles) in LOADS {
            let budget = if opts.quick {
                quick_cycles
            } else {
                full_cycles
            };
            let lambda = sat * frac;
            let cfg = SimConfig::ncube(k, n, v, lm, lambda, h, SEED).with_limits(budget, 0, 0);
            let (cps, cycles, seconds, completed) = time_run(cfg);
            eprintln!(
                "k={k} n={n} {label:>8} λ={lambda:.3e}: {:.3}M cycles/s \
                 ({cycles} cycles, {completed} messages, {seconds:.2}s)",
                cps / 1e6
            );
            if label == "anchor" {
                headline = cps;
            }
            let mut point = Json::obj();
            point.set("label", Json::Str(label.into()));
            point.set("lambda", Json::Num(lambda));
            point.set("cycles", Json::Num(cycles as f64));
            point.set("seconds", Json::Num(seconds));
            point.set("cycles_per_sec", Json::Num(cps));
            point.set("completed", Json::Num(completed as f64));
            loads.push(point);
        }
        entry.set("cycles_per_sec", Json::Num(headline));
        entry.set("loads", Json::Arr(loads));

        let solve_iters = if opts.quick { 20 } else { 200 };
        let solve_cfg = NCubeConfig::new(k, n, v, lm, sat * 0.5, h);
        let solve_us = time_model_solve(solve_cfg, solve_iters);
        eprintln!("k={k} n={n} model solve: {solve_us:.1} µs");
        entry.set("model_solve_us", Json::Num(solve_us));

        configs.push(entry);
    }

    let mut doc = Json::obj();
    doc.set("schema_version", Json::Num(SCHEMA_VERSION));
    doc.set("commit", Json::Str(git_commit()));
    doc.set("date", Json::Str(utc_now_iso8601()));
    doc.set("quick", Json::Bool(opts.quick));
    doc.set("configs", Json::Arr(configs));
    doc
}

/// Validate the benchmark document schema.  Returns the list of
/// violations (empty = conforming).
fn schema_violations(doc: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    match doc.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => bad.push(format!("schema_version {v} != {SCHEMA_VERSION}")),
        None => bad.push("missing numeric schema_version".into()),
    }
    if doc.get("commit").and_then(Json::as_str).is_none() {
        bad.push("missing string commit".into());
    }
    if doc.get("date").and_then(Json::as_str).is_none() {
        bad.push("missing string date".into());
    }
    let Some(configs) = doc.get("configs").and_then(Json::as_arr) else {
        bad.push("missing configs array".into());
        return bad;
    };
    if configs.is_empty() {
        bad.push("configs array is empty".into());
    }
    for (i, cfg) in configs.iter().enumerate() {
        for key in ["k", "n", "v", "lm", "h", "cycles_per_sec", "model_solve_us"] {
            match cfg.get(key).and_then(Json::as_f64) {
                Some(v) if v.is_finite() && v >= 0.0 => {}
                _ => bad.push(format!("configs[{i}].{key} missing or not a finite number")),
            }
        }
        match cfg.get("loads").and_then(Json::as_arr) {
            Some(loads) if !loads.is_empty() => {
                for (j, point) in loads.iter().enumerate() {
                    if point.get("label").and_then(Json::as_str).is_none()
                        || point.get("cycles_per_sec").and_then(Json::as_f64).is_none()
                    {
                        bad.push(format!("configs[{i}].loads[{j}] malformed"));
                    }
                }
            }
            _ => bad.push(format!("configs[{i}].loads missing or empty")),
        }
    }
    bad
}

/// Compare against a baseline document; returns the number of warnings.
fn compare(new: &Json, baseline: &Json, min_ratio: f64) -> u32 {
    let mut warnings = 0;
    let empty = Vec::new();
    let base_cfgs = baseline
        .get("configs")
        .and_then(Json::as_arr)
        .unwrap_or(&empty);
    for cfg in new.get("configs").and_then(Json::as_arr).unwrap_or(&empty) {
        let (k, n) = (
            cfg.get("k").and_then(Json::as_f64).unwrap_or(-1.0),
            cfg.get("n").and_then(Json::as_f64).unwrap_or(-1.0),
        );
        let Some(base) = base_cfgs.iter().find(|b| {
            b.get("k").and_then(Json::as_f64) == Some(k)
                && b.get("n").and_then(Json::as_f64) == Some(n)
        }) else {
            eprintln!("note: no baseline entry for k={k} n={n}");
            continue;
        };
        let now = cfg
            .get("cycles_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let then = base
            .get("cycles_per_sec")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        if then <= 0.0 {
            continue;
        }
        let ratio = now / then;
        if ratio < min_ratio {
            eprintln!(
                "WARNING: k={k} n={n} throughput regressed to {ratio:.2}x of baseline \
                 ({:.3}M vs {:.3}M cycles/s)",
                now / 1e6,
                then / 1e6
            );
            warnings += 1;
        } else {
            eprintln!(
                "ok: k={k} n={n} at {ratio:.2}x of baseline ({:.3}M vs {:.3}M cycles/s)",
                now / 1e6,
                then / 1e6
            );
        }
    }
    warnings
}

fn main() {
    let opts = parse_args();
    let doc = measure(&opts);

    let violations = schema_violations(&doc);
    assert!(
        violations.is_empty(),
        "freshly measured document violates its own schema: {violations:?}"
    );

    let text = doc.pretty();
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }

    if let Some(path) = &opts.baseline {
        let raw = match std::fs::read_to_string(path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("error: cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        };
        let baseline = match parse(&raw) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("error: baseline {path} is not valid JSON: {e}");
                std::process::exit(1);
            }
        };
        let drift = schema_violations(&baseline);
        if !drift.is_empty() {
            eprintln!("error: baseline {path} does not match the schema:");
            for v in &drift {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
        let warnings = compare(&doc, &baseline, opts.min_ratio);
        if warnings > 0 {
            eprintln!(
                "{warnings} regression warning(s) — not failing the build; \
                 timing on shared runners is noisy"
            );
        }
    }
}
