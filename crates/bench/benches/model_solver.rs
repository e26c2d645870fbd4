//! Criterion micro-benchmarks for the analytical side (experiment MICRO):
//! fixed-point solve time across radix and load, and the queueing
//! primitives it is built from.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kncube_core::{NCubeConfig, NCubeModel, UniformModel};
use kncube_queueing::blocking::{blocking_delay, TrafficClass};
use kncube_queueing::vc_multiplex::multiplexing_factor;
use std::hint::black_box;

fn bench_model_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_solve");
    group.sample_size(20);
    for k in [8u32, 16, 32] {
        // A moderate operating point: 40% of the k=16 figure-1 load scaled
        // by k so every radix is comfortably below saturation.
        let lambda = 2e-4 * (16.0 / k as f64);
        let cfg = NCubeConfig::new(k, 2, 2, 32, lambda, 0.2);
        group.bench_with_input(BenchmarkId::new("hotspot_k", k), &cfg, |b, cfg| {
            b.iter(|| {
                NCubeModel::new(black_box(*cfg))
                    .unwrap()
                    .solve()
                    .unwrap()
                    .latency
            })
        });
    }
    for lambda in [1e-4, 3e-4, 5e-4] {
        let cfg = NCubeConfig::new(16, 2, 2, 32, lambda, 0.2);
        group.bench_with_input(
            BenchmarkId::new("hotspot_load", format!("{lambda:.0e}")),
            &cfg,
            |b, cfg| {
                b.iter(|| {
                    NCubeModel::new(black_box(*cfg))
                        .unwrap()
                        .solve()
                        .unwrap()
                        .latency
                })
            },
        );
    }
    group.bench_function("uniform_k16", |b| {
        b.iter(|| {
            UniformModel::new(16, 2, 32, black_box(1e-3))
                .solve()
                .unwrap()
                .latency
        })
    });
    group.finish();
}

fn bench_queueing_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("queueing");
    group.bench_function("blocking_delay", |b| {
        b.iter(|| {
            blocking_delay(
                black_box(TrafficClass::new(1e-3, 40.0)),
                black_box(TrafficClass::new(5e-3, 33.0)),
                32.0,
                1.0 - 1e-7,
            )
        })
    });
    group.bench_function("vc_multiplexing_v4", |b| {
        b.iter(|| multiplexing_factor(black_box(0.6), 4))
    });
    group.finish();
}

criterion_group!(benches, bench_model_solve, bench_queueing_primitives);
criterion_main!(benches);
