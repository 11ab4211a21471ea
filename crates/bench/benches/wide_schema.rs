//! Factored vs dense evaluation across schema widths.
//!
//! Each workload fits the same maxent problem with the factored
//! (variable-elimination) kernel and — below the dense ceiling — the CSR
//! kernel, then times covered probes (lattice lookups, factored-built vs
//! dense-built tables), fallback probes (elimination vs dense stride
//! walk), and one from-scratch fit per kernel.  The 2^20-cell workload is
//! factored-only: its dense side cannot exist, which is what the factored
//! path is for.  Measured numbers are snapshotted in `BENCH_wide.json` at
//! the repository root.
//!
//! The `refit` group times one warm order-2 acquisition refit at 2^12,
//! 2^16 and 2^20 binary cells — counting, scoring, solving and
//! normalisation together, the write side of a wide snapshot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pka_bench::{RefitWorkload, WideWorkload};
use pka_maxent::IncidenceCache;
use std::hint::black_box;

fn wide_schema(c: &mut Criterion) {
    let workloads = [
        WideWorkload::paper(),
        WideWorkload::medium(),
        WideWorkload::large(),
        WideWorkload::wide8(),
        WideWorkload::wide12(),
        WideWorkload::wide20(),
    ];

    let mut group = c.benchmark_group("wide_schema");
    group.sample_size(20);
    for w in &workloads {
        group.bench_with_input(BenchmarkId::new("covered/factored", w.label()), w, |b, w| {
            b.iter(|| black_box(w.covered_factored()))
        });
        if w.has_dense() {
            group.bench_with_input(BenchmarkId::new("covered/dense", w.label()), w, |b, w| {
                b.iter(|| black_box(w.covered_dense()))
            });
        }
        group.bench_with_input(BenchmarkId::new("fallback/factored", w.label()), w, |b, w| {
            b.iter(|| black_box(w.fallback_factored()))
        });
        if w.has_dense() {
            group.bench_with_input(BenchmarkId::new("fallback/dense", w.label()), w, |b, w| {
                b.iter(|| black_box(w.fallback_dense()))
            });
        }
        group.bench_with_input(BenchmarkId::new("fit/factored", w.label()), w, |b, w| {
            b.iter(|| black_box(w.fit_factored()))
        });
        if w.has_dense() {
            group.bench_with_input(BenchmarkId::new("fit/dense", w.label()), w, |b, w| {
                b.iter(|| black_box(w.fit_dense()))
            });
        }
    }
    group.finish();

    // Correctness gate (runs in CI smoke mode too): both paths agree ≤1e-9
    // per probe and at the fixed point wherever the dense side exists, and
    // the fallback probes really do miss the lattice.
    for w in &workloads {
        w.assert_paths_agree();
    }
}

fn refit(c: &mut Criterion) {
    let workloads = [12, 16, 20].map(|attributes| RefitWorkload::binary(attributes, 5000));
    let mut group = c.benchmark_group("refit");
    group.sample_size(10);
    for w in &workloads {
        let mut cache = IncidenceCache::new();
        group.bench_with_input(BenchmarkId::new("warm", w.label()), w, |b, w| {
            b.iter(|| black_box(w.warm_refit(&mut cache)))
        });
    }
    group.finish();

    // Correctness gate (runs in CI smoke mode too).
    for w in &workloads {
        w.assert_warm_matches_cold();
    }
}

criterion_group!(benches, wide_schema, refit);
criterion_main!(benches);
