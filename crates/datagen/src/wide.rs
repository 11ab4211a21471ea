//! Wide-schema workloads: N binary/ternary attributes with planted
//! low-order dependencies, generated and sampled **without ever
//! materialising the dense joint**.
//!
//! The other generators in this crate hand back a
//! [`pka_maxent::JointDistribution`], which caps them at schemas whose
//! cell count fits in memory.  A [`WideExperiment`] instead defines its
//! ground truth as a [`LogLinearModel`] — per-attribute bias factors plus
//! `dependencies` planted pairwise factors — normalised through the factor
//! graph's partition function, and draws tuples by the chain rule over
//! variable-elimination conditionals.  Both operations cost
//! `O(attributes · factors)` per tuple, so a 20-attribute schema
//! (2^20-cell joint) samples as easily as the memo's 12-cell survey.

use crate::planted::PlantedInteraction;
use pka_contingency::{Assignment, ContingencyTable, Dataset, Schema};
use pka_maxent::{FactorGraph, LogLinearModel};
use rand::prelude::*;
use std::sync::Arc;

/// A wide-schema ground truth: the factored model, its elimination view,
/// and the list of planted dependencies a perfect acquisition run should
/// recover.
#[derive(Debug, Clone)]
pub struct WideExperiment {
    schema: Arc<Schema>,
    model: LogLinearModel,
    graph: FactorGraph,
    planted: Vec<PlantedInteraction>,
}

impl WideExperiment {
    /// Generates a ground truth over `attributes` uniform attributes of the
    /// given `cardinality` (2 = binary, 3 = ternary) with `dependencies`
    /// planted pairwise interactions of multiplicative `strength`
    /// (strength 1 = independence; larger is easier to detect).  Every
    /// attribute also gets a random first-order bias so marginals are not
    /// degenerate.  Deterministic per `rng` seed.
    pub fn generate(
        attributes: usize,
        cardinality: usize,
        dependencies: usize,
        strength: f64,
        rng: &mut StdRng,
    ) -> Self {
        assert!(attributes >= 2, "a wide schema needs at least 2 attributes");
        assert!((2..=3).contains(&cardinality), "cardinality must be 2 (binary) or 3 (ternary)");
        assert!(strength > 0.0 && strength.is_finite(), "strength must be positive");

        let cards = vec![cardinality; attributes];
        let schema = Schema::uniform(&cards)
            .expect("wide schema within the contingency layer's limits")
            .into_shared();

        // First-order biases: a random factor on value 1 of every attribute.
        let mut factors: Vec<(Assignment, f64)> = (0..attributes)
            .map(|attr| (Assignment::single(attr, 1), 0.5 + 1.5 * rng.random::<f64>()))
            .collect();

        // Planted pairwise dependencies on distinct attribute pairs, chosen
        // without replacement; the affected value configuration is random.
        let mut pairs: Vec<(usize, usize)> =
            (0..attributes).flat_map(|i| (i + 1..attributes).map(move |j| (i, j))).collect();
        let dependencies = dependencies.min(pairs.len());
        let mut planted = Vec::with_capacity(dependencies);
        for _ in 0..dependencies {
            let (i, j) = pairs.swap_remove(rng.random_range(0..pairs.len()));
            let assignment = Assignment::from_pairs([
                (i, rng.random_range(0..cardinality)),
                (j, rng.random_range(0..cardinality)),
            ]);
            factors.push((assignment.clone(), strength));
            planted.push(PlantedInteraction { assignment, strength });
        }

        let mut model = LogLinearModel::from_factors(Arc::clone(&schema), 1.0, factors)
            .expect("factor assignments are within the schema");
        // Normalise through the partition function — one variable
        // elimination, never a dense scatter.
        let z = FactorGraph::from_model(&model).partition();
        assert!(z.is_finite() && z > 0.0, "generated model has no probability mass");
        model.scale_a0(1.0 / z);
        let graph = FactorGraph::from_model(&model);
        Self { schema, model, graph, planted }
    }

    /// The generated schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The normalised ground-truth model.
    pub fn model(&self) -> &LogLinearModel {
        &self.model
    }

    /// The elimination view of the ground truth — the reference every
    /// served answer is compared against in the wide-schema tests.
    pub fn graph(&self) -> &FactorGraph {
        &self.graph
    }

    /// The planted dependencies, in generation order.
    pub fn planted(&self) -> &[PlantedInteraction] {
        &self.planted
    }

    /// Ground-truth probability of a (partial) assignment, by variable
    /// elimination.
    pub fn truth(&self, assignment: &Assignment) -> f64 {
        self.graph.probability(assignment)
    }

    /// Draws `n` tuples by the chain rule: attribute by attribute, each
    /// value is drawn from its conditional given the values already fixed,
    /// with every conditional weight computed by variable elimination.
    pub fn sample_dataset(&self, n: u64, rng: &mut StdRng) -> Dataset {
        let mut dataset = Dataset::with_shared_schema(Arc::clone(&self.schema));
        for _ in 0..n {
            let values = self.sample_tuple(rng);
            dataset.push_values(values).expect("chain-rule tuple is a complete valid row");
        }
        dataset
    }

    /// Draws `n` tuples (as [`WideExperiment::sample_dataset`]) directly
    /// into a contingency table.
    pub fn sample_table(&self, n: u64, rng: &mut StdRng) -> ContingencyTable {
        let mut table = ContingencyTable::zeros(Arc::clone(&self.schema));
        for _ in 0..n {
            let values = self.sample_tuple(rng);
            table.increment(&values).expect("chain-rule tuple is a complete valid row");
        }
        table
    }

    /// One chain-rule draw: `P(x_i | x_0..x_{i-1})` for each attribute in
    /// turn, each conditional read off unnormalised elimination weights.
    fn sample_tuple(&self, rng: &mut StdRng) -> Vec<usize> {
        let attributes = self.schema.len();
        let mut fixed: Vec<(usize, usize)> = Vec::with_capacity(attributes);
        for attr in 0..attributes {
            let card = self.schema.cardinality(attr).expect("attr in range");
            let mut weights = Vec::with_capacity(card);
            for v in 0..card {
                fixed.push((attr, v));
                weights.push(self.graph.weight(&Assignment::from_pairs(fixed.iter().copied())));
                fixed.pop();
            }
            let total: f64 = weights.iter().sum();
            assert!(total > 0.0 && total.is_finite(), "conditional has no mass");
            let u = rng.random::<f64>() * total;
            let mut cumulative = 0.0;
            let mut chosen = card - 1;
            for (v, w) in weights.iter().enumerate() {
                cumulative += w;
                if u < cumulative {
                    chosen = v;
                    break;
                }
            }
            fixed.push((attr, chosen));
        }
        fixed.into_iter().map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::seeded_rng;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = WideExperiment::generate(8, 2, 3, 4.0, &mut seeded_rng(1));
        let b = WideExperiment::generate(8, 2, 3, 4.0, &mut seeded_rng(1));
        assert_eq!(a.planted(), b.planted());
        assert_eq!(a.model().a0(), b.model().a0());
        assert_eq!(a.model().factors(), b.model().factors());
        let da = a.sample_dataset(200, &mut seeded_rng(2));
        let db = b.sample_dataset(200, &mut seeded_rng(2));
        assert_eq!(da.to_table(), db.to_table());
        let dc = a.sample_dataset(200, &mut seeded_rng(3));
        assert_ne!(da.to_table(), dc.to_table());
    }

    #[test]
    fn planted_dependencies_are_distinct_pairs_of_order_two() {
        let exp = WideExperiment::generate(10, 3, 5, 6.0, &mut seeded_rng(4));
        assert_eq!(exp.planted().len(), 5);
        for (i, p) in exp.planted().iter().enumerate() {
            assert_eq!(p.assignment.order(), 2);
            assert!((p.strength - 6.0).abs() < 1e-12);
            for q in &exp.planted()[i + 1..] {
                assert_ne!(p.assignment.vars(), q.assignment.vars(), "pairs must not repeat");
            }
        }
    }

    #[test]
    fn ground_truth_matches_the_dense_joint_on_small_schemas() {
        // 4 binary attributes: small enough to cross-check the factored
        // ground truth against a dense materialisation.
        let exp = WideExperiment::generate(4, 2, 2, 3.0, &mut seeded_rng(5));
        let joint = exp.model().to_joint();
        assert!((exp.truth(&Assignment::empty()) - 1.0).abs() < 1e-9, "model is normalised");
        for cell in 0..exp.schema().cell_count() {
            let values = exp.schema().cell_values(cell);
            let probe = Assignment::from_pairs(values.iter().copied().enumerate());
            assert!((exp.truth(&probe) - joint.probability(&probe)).abs() < 1e-12);
        }
        for p in exp.planted() {
            let product: f64 = p
                .assignment
                .pairs()
                .map(|(attr, v)| exp.truth(&Assignment::single(attr, v)))
                .product();
            assert!(
                (exp.truth(&p.assignment) - product).abs() > 1e-4,
                "planted cell should deviate from independence"
            );
        }
    }

    #[test]
    fn chain_rule_sampling_approaches_the_ground_truth() {
        let exp = WideExperiment::generate(3, 2, 1, 5.0, &mut seeded_rng(6));
        let t = exp.sample_table(20_000, &mut seeded_rng(7));
        assert_eq!(t.total(), 20_000);
        // First-order marginals and the planted pair all converge.
        for attr in 0..3 {
            let a = Assignment::single(attr, 0);
            assert!(
                (t.frequency(&a) - exp.truth(&a)).abs() < 0.02,
                "marginal {attr} drifted: {} vs {}",
                t.frequency(&a),
                exp.truth(&a)
            );
        }
        let planted = &exp.planted()[0].assignment;
        assert!((t.frequency(planted) - exp.truth(planted)).abs() < 0.02);
    }

    #[test]
    fn twenty_attribute_schemas_generate_and_sample_without_the_joint() {
        // 2^20 joint cells: dense materialisation would be a megacell
        // allocation per probe; generation, normalisation, truth queries
        // and sampling all go through elimination instead.
        let exp = WideExperiment::generate(20, 2, 6, 4.0, &mut seeded_rng(8));
        assert_eq!(exp.schema().cell_count(), 1 << 20);
        assert!((exp.truth(&Assignment::empty()) - 1.0).abs() < 1e-9);
        let d = exp.sample_dataset(50, &mut seeded_rng(9));
        assert_eq!(d.len(), 50);
        for p in exp.planted() {
            let truth = exp.truth(&p.assignment);
            assert!(truth > 0.0 && truth < 1.0);
        }
    }
}
