//! Experiment F1 — Figure 1 of the memo: building the smoking/cancer
//! contingency table from raw per-respondent samples.
//!
//! Regenerates the 3×2×2 table (N = 3428) and times the Appendix-A
//! conversion path (samples → attribute tuples → cell counts).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn fig1(c: &mut Criterion) {
    let dataset = pka_datagen::smoking::dataset();

    let mut group = c.benchmark_group("fig1_contingency");
    group.bench_function("tabulate_3428_samples", |b| b.iter(|| black_box(dataset.to_table())));
    group.bench_function("expand_and_tabulate", |b| {
        b.iter(|| {
            let table = pka_bench::fig1_contingency();
            black_box(table.total())
        })
    });
    group.finish();

    // Correctness gate: the regenerated table must match Figure 1 exactly.
    let table = pka_bench::fig1_contingency();
    assert_eq!(table, pka_datagen::smoking::table());
    assert_eq!(table.total(), 3428);
}

criterion_group!(benches, fig1);
criterion_main!(benches);
