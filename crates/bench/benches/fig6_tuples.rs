//! Experiment F5/F6 — Appendix A of the memo: converting raw samples to
//! attribute-tuple form and summing them into the contingency table.

use criterion::{criterion_group, criterion_main, Criterion};
use pka_contingency::builder;
use std::hint::black_box;

fn fig6(c: &mut Criterion) {
    let table = pka_datagen::smoking::table();
    let dataset = pka_datagen::smoking::dataset();

    let mut group = c.benchmark_group("fig6_tuples");
    group.bench_function("expand_table_to_samples", |b| {
        b.iter(|| black_box(builder::expand(&table)))
    });
    group.bench_function("tabulate_samples", |b| b.iter(|| black_box(builder::tabulate(&dataset))));
    group.finish();

    // Correctness gate: the round trip is lossless.
    let roundtrip = builder::tabulate(&builder::expand(&table));
    assert_eq!(roundtrip, table);
}

criterion_group!(benches, fig6);
criterion_main!(benches);
