//! Sampling observations from a joint distribution.
//!
//! The synthetic experiments need datasets drawn from *known* distributions
//! so recovered structure can be compared against ground truth.  Sampling is
//! plain multinomial draws over the dense cell probabilities, seeded
//! explicitly so every benchmark run is reproducible.

use pka_contingency::{ContingencyTable, Dataset};
use pka_maxent::JointDistribution;
use rand::prelude::*;

/// Draws `n` observations from `joint` and returns them as a contingency
/// table.
pub fn sample_table(joint: &JointDistribution, n: u64, rng: &mut StdRng) -> ContingencyTable {
    let mut table = ContingencyTable::zeros(joint.shared_schema());
    let cumulative = joint.cumulative();
    let schema = joint.schema();
    for _ in 0..n {
        let cell = draw_cell(&cumulative, rng);
        let values = schema.cell_values(cell);
        table.increment(&values).expect("sampled cell is valid");
    }
    table
}

/// Draws `n` observations from `joint` and returns them as a raw dataset.
pub fn sample_dataset(joint: &JointDistribution, n: u64, rng: &mut StdRng) -> Dataset {
    let mut dataset = Dataset::with_shared_schema(joint.shared_schema());
    let cumulative = joint.cumulative();
    let schema = joint.schema();
    for _ in 0..n {
        let cell = draw_cell(&cumulative, rng);
        dataset.push_values(schema.cell_values(cell)).expect("sampled cell is valid");
    }
    dataset
}

/// Draws one cell index from a cumulative distribution by binary search.
fn draw_cell(cumulative: &[f64], rng: &mut StdRng) -> usize {
    let total = *cumulative.last().expect("at least one cell");
    let u: f64 = rng.random::<f64>() * total;
    match cumulative.binary_search_by(|probe| probe.partial_cmp(&u).expect("finite")) {
        Ok(i) => i,
        Err(i) => i.min(cumulative.len() - 1),
    }
}

/// Convenience wrapper: a seeded standard RNG for the generators in this
/// crate.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Assignment, Schema};
    use std::sync::Arc;

    fn skewed_joint() -> JointDistribution {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        JointDistribution::from_unnormalized(schema, vec![8.0, 1.0, 1.0, 0.0])
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let joint = skewed_joint();
        let a = sample_table(&joint, 500, &mut seeded_rng(7));
        let b = sample_table(&joint, 500, &mut seeded_rng(7));
        assert_eq!(a, b);
        let c = sample_table(&joint, 500, &mut seeded_rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn sample_counts_total_n() {
        let joint = skewed_joint();
        let t = sample_table(&joint, 1234, &mut seeded_rng(1));
        assert_eq!(t.total(), 1234);
        let d = sample_dataset(&joint, 321, &mut seeded_rng(2));
        assert_eq!(d.len(), 321);
    }

    #[test]
    fn zero_probability_cells_are_never_drawn() {
        let joint = skewed_joint();
        let t = sample_table(&joint, 5000, &mut seeded_rng(3));
        assert_eq!(t.count_values(&[1, 1]), 0);
    }

    #[test]
    fn empirical_frequencies_approach_the_distribution() {
        let joint = skewed_joint();
        let t = sample_table(&joint, 20_000, &mut seeded_rng(4));
        let p_hat = t.frequency(&Assignment::from_pairs([(0, 0), (1, 0)]));
        assert!((p_hat - 0.8).abs() < 0.02, "p_hat = {p_hat}");
        let marginal = t.frequency(&Assignment::single(0, 0));
        assert!((marginal - 0.9).abs() < 0.02);
    }

    #[test]
    fn dataset_and_table_sampling_agree_statistically() {
        let joint = skewed_joint();
        let d = sample_dataset(&joint, 4000, &mut seeded_rng(5));
        let t = d.to_table();
        assert_eq!(t.total(), 4000);
        // Dominant cell stays dominant.
        let (cell, _) = JointDistribution::empirical(&t).most_probable_cell();
        assert_eq!(cell, vec![0, 0]);
    }

    #[test]
    fn uniform_distribution_covers_all_cells() {
        let schema = Schema::uniform(&[3, 2]).unwrap().into_shared();
        let joint = JointDistribution::uniform(Arc::clone(&schema));
        let t = sample_table(&joint, 6000, &mut seeded_rng(6));
        for (_, count) in t.cells() {
            assert!(count > 800, "every cell should be hit roughly 1000 times, got {count}");
        }
    }
}
