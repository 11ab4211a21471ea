//! Streaming-engine benchmarks: sharded ingestion throughput vs one-shot
//! dataset construction, and warm- vs cold-started refit cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pka_contingency::{Dataset, Sample};
use pka_core::{Acquisition, AcquisitionConfig};
use pka_datagen::sampler::{sample_dataset, seeded_rng};
use pka_stream::{ingest, RefreshPolicy, StreamConfig, StreamingEngine};
use std::hint::black_box;
use std::sync::Arc;

const STREAM_LEN: u64 = 200_000;

fn survey_samples(n: u64) -> Dataset {
    let joint = pka_datagen::survey::ground_truth();
    sample_dataset(&joint, n, &mut seeded_rng(42))
}

/// Tuples/sec: one-shot sequential construction vs sharded parallel
/// tabulation of the same batch.
fn ingest_throughput(c: &mut Criterion) {
    let dataset = survey_samples(STREAM_LEN);
    let schema = dataset.shared_schema();
    let samples: Vec<Sample> = dataset.samples().to_vec();

    let mut group = c.benchmark_group("streaming_ingest");
    group.throughput(Throughput::Elements(STREAM_LEN));

    group.bench_function("one_shot_dataset_to_table", |b| b.iter(|| black_box(dataset.to_table())));

    for shards in [1, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("sharded_tabulate", shards),
            &shards,
            |b, &shards| {
                b.iter(|| {
                    let parts = ingest::tabulate_sharded(&schema, &samples, shards).unwrap();
                    black_box(ingest::merge_shards(&schema, parts).unwrap())
                })
            },
        );
    }
    group.finish();
}

/// Warm- vs cold-started refit latency on a growing stream: the engine has
/// fitted a prefix, a new batch arrives, and the knowledge base must be
/// refreshed over the union.
fn refit_latency(c: &mut Criterion) {
    let dataset = survey_samples(30_000);
    let (prefix, growth) = dataset.split_every(4, 0); // 75 % fitted, 25 % new

    let acquisition = Acquisition::new(AcquisitionConfig::new());
    let prefix_outcome = acquisition.run(&prefix.to_table()).unwrap();

    let mut full = prefix.clone();
    full.merge_from(&growth).unwrap();
    let full_table = full.to_table();

    let mut group = c.benchmark_group("streaming_refit");
    group.sample_size(10);
    group.bench_function("cold_refit_full_data", |b| {
        b.iter(|| black_box(acquisition.run(&full_table).unwrap()))
    });
    group.bench_function("warm_refit_full_data", |b| {
        b.iter(|| {
            black_box(
                acquisition.run_warm_started(&full_table, &prefix_outcome.knowledge_base).unwrap(),
            )
        })
    });
    group.finish();

    // Solver-iteration comparison (printed once; the wall-clock numbers
    // above are what criterion measures).
    let warm = acquisition.run_warm_started(&full_table, &prefix_outcome.knowledge_base).unwrap();
    let cold = acquisition.run(&full_table).unwrap();
    eprintln!(
        "  refit solver iterations: warm {} vs cold {}",
        warm.trace.total_solver_iterations(),
        cold.trace.total_solver_iterations()
    );
}

/// End-to-end engine throughput: batched stream with policy-driven refits.
fn engine_stream(c: &mut Criterion) {
    let dataset = survey_samples(50_000);
    let schema = dataset.shared_schema();
    let batches: Vec<Dataset> = dataset.split_chunks(50);

    let mut group = c.benchmark_group("streaming_engine");
    group.sample_size(10);
    group.throughput(Throughput::Elements(50_000));
    group.bench_function("stream_50_batches_dirty10pct", |b| {
        b.iter(|| {
            let config = StreamConfig::new().with_policy(RefreshPolicy::DirtyFraction(0.1));
            let mut engine = StreamingEngine::new(Arc::clone(&schema), config).unwrap();
            for batch in &batches {
                engine.ingest_dataset(batch).unwrap();
            }
            black_box(engine.refit_count())
        })
    });
    group.finish();
}

criterion_group!(benches, ingest_throughput, refit_latency, engine_stream);
criterion_main!(benches);
