//! Algebraic laws of sharded ingestion, checked as properties.
//!
//! The streaming engine's correctness rests on two facts:
//!
//! 1. count-shard `merge` is associative and commutative (cell counts form
//!    a commutative monoid under addition), so *any* partition of a stream
//!    tabulated in *any* order reproduces the one-shot contingency table
//!    exactly, and
//! 2. a warm-started refit converges to the same knowledge base as a cold
//!    run over the same data (the maximum-entropy solution per constraint
//!    set is unique; the warm start only changes where the solver starts).

use pka::contingency::{ContingencyTable, Dataset, Sample, Schema};
use pka::core::{Acquisition, AcquisitionConfig};
use pka::maxent::ConvergenceCriteria;
use pka::stream::CountShard;
use proptest::prelude::*;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::uniform(&[3, 2, 2]).unwrap().into_shared()
}

/// Decodes a list of cell indices into a shard over `schema`.
fn shard_from_cells(schema: &Arc<Schema>, cells: &[usize]) -> CountShard {
    let mut shard = CountShard::new(Arc::clone(schema));
    for &cell in cells {
        let values = schema.cell_values(cell % schema.cell_count());
        shard.record(&values).unwrap();
    }
    shard
}

proptest! {
    /// merge is commutative: a ⊕ b == b ⊕ a.
    #[test]
    fn prop_merge_commutative(
        a in proptest::collection::vec(0usize..12, 0..40),
        b in proptest::collection::vec(0usize..12, 0..40),
    ) {
        let s = schema();
        let ab = shard_from_cells(&s, &a).merge(shard_from_cells(&s, &b)).unwrap();
        let ba = shard_from_cells(&s, &b).merge(shard_from_cells(&s, &a)).unwrap();
        prop_assert_eq!(ab, ba);
    }

    /// merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
    #[test]
    fn prop_merge_associative(
        a in proptest::collection::vec(0usize..12, 0..30),
        b in proptest::collection::vec(0usize..12, 0..30),
        c in proptest::collection::vec(0usize..12, 0..30),
    ) {
        let s = schema();
        let left = shard_from_cells(&s, &a)
            .merge(shard_from_cells(&s, &b)).unwrap()
            .merge(shard_from_cells(&s, &c)).unwrap();
        let right = shard_from_cells(&s, &a)
            .merge(shard_from_cells(&s, &b).merge(shard_from_cells(&s, &c)).unwrap())
            .unwrap();
        prop_assert_eq!(left, right);
    }

    /// The empty shard is the identity: a ⊕ 0 == a.
    #[test]
    fn prop_empty_shard_is_identity(
        a in proptest::collection::vec(0usize..12, 0..40),
    ) {
        let s = schema();
        let shard = shard_from_cells(&s, &a);
        let merged = shard.clone().merge(CountShard::new(Arc::clone(&s))).unwrap();
        prop_assert_eq!(merged, shard);
    }

    /// Ingesting a dataset in k shards — any k, any assignment of samples
    /// to shards — yields a contingency table identical to one-shot
    /// construction.
    #[test]
    fn prop_sharded_ingest_matches_one_shot(
        cells in proptest::collection::vec(0usize..12, 1..120),
        assignment_seed in proptest::collection::vec(0usize..16, 1..120),
        k in 1usize..16,
    ) {
        let s = schema();

        // One-shot: a single sequential table.
        let mut one_shot = ContingencyTable::zeros(Arc::clone(&s));
        let mut dataset = Dataset::with_shared_schema(Arc::clone(&s));
        for &cell in &cells {
            let values = s.cell_values(cell % s.cell_count());
            one_shot.increment(&values).unwrap();
            dataset.push(Sample::new(values)).unwrap();
        }

        // Sharded: samples dealt to k shards by an arbitrary assignment.
        let mut shards: Vec<CountShard> =
            (0..k).map(|_| CountShard::new(Arc::clone(&s))).collect();
        for (i, sample) in dataset.samples().iter().enumerate() {
            let pick = assignment_seed[i % assignment_seed.len()] % k;
            shards[pick].record_sample(sample).unwrap();
        }
        let merged = shards
            .into_iter()
            .try_fold(CountShard::new(Arc::clone(&s)), CountShard::merge)
            .unwrap();
        prop_assert_eq!(merged.into_table(), one_shot);
    }
}

/// A warm-started refit converges to the same knowledge base as a cold run
/// on the same data: same constraints, same joint distribution.
#[test]
fn warm_started_refit_matches_cold_run() {
    // The memo's survey, split in half: acquire on the first half, then
    // refit on the full table warm-started from the half-data knowledge
    // base, and compare against a cold full-table run.
    let full = pka::datagen::smoking::table();
    let mut half = ContingencyTable::zeros(full.shared_schema());
    for (values, count) in full.nonzero_cells() {
        half.increment_by(&values, count / 2).unwrap();
    }

    let tight = AcquisitionConfig::new().with_convergence(
        ConvergenceCriteria::new().with_tolerance(1e-13).with_max_iterations(5000),
    );
    let acquisition = Acquisition::new(tight);

    let first = acquisition.run(&half).expect("half-data acquisition");
    let warm =
        acquisition.run_warm_started(&full, &first.knowledge_base).expect("warm-started refit");
    let cold = acquisition.run(&full).expect("cold full-data acquisition");

    // Same constraint cells (order may differ: the warm run inherits its
    // prior constraints before searching).
    let mut warm_cells: Vec<_> = warm
        .knowledge_base
        .constraints()
        .constraints()
        .iter()
        .map(|c| c.assignment.clone())
        .collect();
    let mut cold_cells: Vec<_> = cold
        .knowledge_base
        .constraints()
        .constraints()
        .iter()
        .map(|c| c.assignment.clone())
        .collect();
    warm_cells.sort_by_key(|a| format!("{a:?}"));
    cold_cells.sort_by_key(|a| format!("{a:?}"));
    assert_eq!(warm_cells, cold_cells, "warm and cold discover the same constraint set");

    // Same joint distribution, hence identical answers to every query.
    let warm_joint = warm.knowledge_base.joint();
    let cold_joint = cold.knowledge_base.joint();
    for (w, c) in warm_joint.probabilities().iter().zip(cold_joint.probabilities()) {
        assert!((w - c).abs() < 1e-9, "joint cells differ: warm {w} vs cold {c}");
    }
}
