//! The empirical (relative-frequency) joint distribution baseline.

use pka_contingency::{Assignment, ContingencyTable};
use pka_maxent::JointDistribution;

/// A model that memorises the training table: every cell's probability is
/// its observed relative frequency.
///
/// With optional add-`alpha` (Laplace) smoothing so held-out samples in
/// unobserved cells do not get probability zero.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalModel {
    joint: JointDistribution,
    alpha: f64,
}

impl EmpiricalModel {
    /// Fits the unsmoothed empirical distribution.
    pub fn fit(table: &ContingencyTable) -> Self {
        Self::fit_smoothed(table, 0.0)
    }

    /// Fits with add-`alpha` smoothing: each cell's count is increased by
    /// `alpha` pseudo-observations before normalising.
    pub fn fit_smoothed(table: &ContingencyTable, alpha: f64) -> Self {
        assert!(alpha >= 0.0 && alpha.is_finite(), "alpha must be a non-negative finite number");
        let schema = table.schema();
        let mut weights = vec![alpha; table.cell_count()];
        for (values, count) in table.nonzero_cells() {
            weights[schema.cell_index(&values)] += count as f64;
        }
        Self { joint: JointDistribution::from_unnormalized(table.shared_schema(), weights), alpha }
    }

    /// The smoothing parameter used.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The estimated joint distribution.
    pub fn joint(&self) -> &JointDistribution {
        &self.joint
    }

    /// Probability of a (partial) assignment.
    pub fn probability(&self, assignment: &Assignment) -> f64 {
        self.joint.probability(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Schema;
    use std::sync::Arc;

    fn table() -> ContingencyTable {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        ContingencyTable::from_counts(Arc::clone(&schema), vec![6, 2, 0, 2]).unwrap()
    }

    #[test]
    fn unsmoothed_matches_frequencies() {
        let t = table();
        let m = EmpiricalModel::fit(&t);
        assert!((m.probability(&Assignment::from_pairs([(0, 0), (1, 0)])) - 0.6).abs() < 1e-12);
        assert_eq!(m.probability(&Assignment::from_pairs([(0, 1), (1, 0)])), 0.0);
        assert_eq!(m.alpha(), 0.0);
    }

    #[test]
    fn smoothing_removes_zeros() {
        let t = table();
        let m = EmpiricalModel::fit_smoothed(&t, 1.0);
        let p = m.probability(&Assignment::from_pairs([(0, 1), (1, 0)]));
        assert!(p > 0.0);
        // (0 + 1) / (10 + 4)
        assert!((p - 1.0 / 14.0).abs() < 1e-12);
        assert!((m.joint().probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn negative_alpha_is_rejected() {
        let _ = EmpiricalModel::fit_smoothed(&table(), -1.0);
    }
}
