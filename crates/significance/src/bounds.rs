//! The integer range available to a candidate cell under the "chance"
//! hypothesis H2 (Eq. 41 of the memo).
//!
//! Under H2 the cell's count is *a priori* uniform over the integer values it
//! could still take.  That range is bounded by every **known marginal** of
//! the cell (the first-order marginals are always known; a higher-order
//! marginal is known only if it was itself found significant or given),
//! minus the counts already committed to other significant cells under the
//! same marginal.  If, for some marginal, the candidate is the *only*
//! remaining free cell, its value is completely determined and
//! `p(D | H2) = 1`.
//!
//! Every count comes from [`MarginalCounts`] tabulated once for the whole
//! acquisition run, so a bound costs a few table lookups, never a walk over
//! the observed cells.

use pka_contingency::{Assignment, MarginalCounts, VarSet};
use serde::{Deserialize, Serialize};

/// Everything needed to bound candidate cells at one order of the
/// acquisition loop.
#[derive(Debug, Clone, Copy)]
pub struct RangeContext<'a> {
    /// The observed marginals: every variable set of the candidates and
    /// of their known marginals must have been counted.
    counts: &'a MarginalCounts,
    /// Constraints known before this order started (any order): the
    /// first-order marginals are implicit and never need to be listed; this
    /// slice carries the *higher-order* constraints (found significant or
    /// supplied as prior knowledge).
    known_constraints: &'a [Assignment],
    /// Cells already found significant at the *current* order.
    found_at_order: &'a [Assignment],
}

impl<'a> RangeContext<'a> {
    /// Creates a context for one order of the acquisition loop.
    pub fn new(
        counts: &'a MarginalCounts,
        known_constraints: &'a [Assignment],
        found_at_order: &'a [Assignment],
    ) -> Self {
        Self { counts, known_constraints, found_at_order }
    }

    /// True if the marginal of `candidate` onto `subset` is a known
    /// constraint: every first-order marginal is (the memo always constrains
    /// them), a higher-order one only if it appears among the known
    /// constraints.
    fn marginal_is_known(&self, candidate: &Assignment, subset: VarSet) -> bool {
        if subset.len() == 1 {
            return true;
        }
        let projected = candidate.restrict(subset);
        self.known_constraints.contains(&projected)
    }

    /// Computes the available range for a candidate cell (Eq. 41).
    pub fn range_of(&self, candidate: &Assignment) -> CellRange {
        let vars = candidate.vars();
        let order = vars.len();
        let schema = self.counts.schema();

        let mut max_value = self.counts.total();
        // Stays usize::MAX for an order-0 or order-1 candidate: no proper
        // marginal bounds it other than the grand total.
        let mut min_free_cells = usize::MAX;

        for subset_size in 1..order {
            for subset in vars.subsets_of_size(subset_size) {
                if !self.marginal_is_known(candidate, subset) {
                    continue;
                }
                let projected = candidate.restrict(subset);
                let marginal_count = self.counts.count(&projected);

                // Other significant cells at this order, over the same
                // variable set, that fall under the same marginal slice.
                let mut committed = 0u64;
                let mut committed_cells = 0usize;
                for f in self.found_at_order {
                    if f.vars() != vars || f == candidate {
                        continue;
                    }
                    if f.restrict(subset) == projected {
                        committed += self.counts.count(f);
                        committed_cells += 1;
                    }
                }

                let bound = marginal_count.saturating_sub(committed);
                max_value = max_value.min(bound);

                // Number of cells of `vars` lying in this marginal slice: the
                // free attributes are vars \ subset.
                let slice_cells: usize = vars
                    .difference(subset)
                    .iter()
                    .map(|a| schema.cardinality(a).unwrap_or(1))
                    .product();
                let free = slice_cells.saturating_sub(committed_cells);
                min_free_cells = min_free_cells.min(free);
            }
        }

        CellRange { max_value, min_free_cells, determined: min_free_cells <= 1 }
    }
}

/// The integer range a candidate cell could occupy under H2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellRange {
    /// Largest value the cell could take (its tightest marginal bound minus
    /// counts already committed to other significant cells).
    pub max_value: u64,
    /// Smallest number of still-free cells across the known marginal slices
    /// containing the candidate.
    pub min_free_cells: usize,
    /// True if the cell's value is completely determined by the marginals
    /// and the cells already found (`min_free_cells <= 1`), in which case
    /// `p(D | H2) = 1`.
    pub determined: bool,
}

impl CellRange {
    /// The message length `−ln p(D | H2)` contributed by the data under H2:
    /// `ln(max_value + 1)` when the cell is free, `0` when it is
    /// determined (Eq. 41's ELSE branch).
    pub fn message_length(&self) -> f64 {
        if self.determined {
            0.0
        } else {
            ((self.max_value + 1) as f64).ln()
        }
    }

    /// Number of equally-likely integer values under H2 (1 when determined).
    pub fn values_available(&self) -> u64 {
        if self.determined {
            1
        } else {
            self.max_value + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, ContingencyTable, Schema};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn paper_table() -> ContingencyTable {
        let schema = Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared();
        ContingencyTable::from_counts(
            schema,
            vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385],
        )
        .unwrap()
    }

    /// Every marginal of a table up to its full order, counted in one walk.
    fn all_counts(t: &ContingencyTable) -> MarginalCounts {
        let all = t.schema().all_vars();
        t.marginals((1..=all.len()).flat_map(|k| all.subsets_of_size(k)))
    }

    #[test]
    fn second_order_range_with_no_prior_findings() {
        let t = paper_table();
        let counts = all_counts(&t);
        let ctx = RangeContext::new(&counts, &[], &[]);
        // N^AB_11 is bounded by min(N^A_1, N^B_1) = min(1290, 433) = 433.
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (1, 0)]));
        assert_eq!(r.max_value, 433);
        assert!(!r.determined);
        assert_eq!(r.min_free_cells, 2); // slice over the other attribute has >= 2 cells
        assert!((r.message_length() - 434f64.ln()).abs() < 1e-12);
        // N^AB_12 is bounded by min(N^A_1, N^B_2) = 1290.
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (1, 1)]));
        assert_eq!(r.max_value, 1290);
        assert_eq!(r.values_available(), 1291);
    }

    #[test]
    fn found_cells_reduce_the_range() {
        let t = paper_table();
        let counts = all_counts(&t);
        // Suppose N^AC_12 (count 750) has already been found significant.
        let found = vec![Assignment::from_pairs([(0, 0), (2, 1)])];
        let ctx = RangeContext::new(&counts, &[], &found);
        // Candidate N^AC_11 shares the A=smoker marginal (1290) with the
        // found cell, so its bound drops to 1290 - 750 = 540; the C=yes
        // marginal gives 1780, so the minimum is 540.
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (2, 0)]));
        assert_eq!(r.max_value, 540);
        // Only one free cell remains in the A=smoker slice of the AC table
        // (the candidate itself), so the cell is determined.
        assert!(r.determined);
        assert_eq!(r.message_length(), 0.0);
        assert_eq!(r.values_available(), 1);
    }

    #[test]
    fn found_cells_over_other_varsets_do_not_interfere() {
        let t = paper_table();
        let counts = all_counts(&t);
        // A found AB cell must not tighten an AC candidate's bounds: the
        // memo's Eq. 41 only subtracts same-table cells.
        let found = vec![Assignment::from_pairs([(0, 0), (1, 0)])];
        let ctx = RangeContext::new(&counts, &[], &found);
        let r = ctx.range_of(&Assignment::from_pairs([(0, 0), (2, 0)]));
        // The bound stays at min(N^A_1 = 1290, N^C_1 = 1780) = 1290 because
        // the found cell lives in the AB table, not the AC table.
        assert_eq!(r.max_value, 1290);
        assert!(!r.determined);
    }

    #[test]
    fn third_order_range_uses_known_second_order_marginals() {
        let t = paper_table();
        let counts = all_counts(&t);
        // N^ABC_111 = 130.
        let candidate = Assignment::from_pairs([(0, 0), (1, 0), (2, 0)]);
        // Without any known second-order constraints, only the first-order
        // marginals bound the cell: min(1290, 433, 1780) = 433.
        let ctx = RangeContext::new(&counts, &[], &[]);
        assert_eq!(ctx.range_of(&candidate).max_value, 433);
        // Once N^AB_11 = 240 is a known constraint, it also bounds the cell.
        let known = vec![Assignment::from_pairs([(0, 0), (1, 0)])];
        let ctx = RangeContext::new(&counts, &known, &[]);
        assert_eq!(ctx.range_of(&candidate).max_value, 240);
    }

    #[test]
    fn first_order_candidate_is_only_bounded_by_n() {
        let t = paper_table();
        let counts = all_counts(&t);
        let ctx = RangeContext::new(&counts, &[], &[]);
        let r = ctx.range_of(&Assignment::single(0, 0));
        assert_eq!(r.max_value, t.total());
        assert!(!r.determined);
    }

    /// Eq. 41 straight from its definition, every count a fresh
    /// `count_matching` walk over the table.
    fn reference_range(
        t: &ContingencyTable,
        known: &[Assignment],
        found: &[Assignment],
        candidate: &Assignment,
    ) -> CellRange {
        let vars = candidate.vars();
        let mut max_value = t.total();
        let mut min_free_cells = usize::MAX;
        for size in 1..vars.len() {
            for subset in vars.subsets_of_size(size) {
                let projected = candidate.restrict(subset);
                if size > 1 && !known.contains(&projected) {
                    continue;
                }
                let committed: Vec<&Assignment> = found
                    .iter()
                    .filter(|f| f.vars() == vars && *f != candidate)
                    .filter(|f| f.restrict(subset) == projected)
                    .collect();
                let taken: u64 = committed.iter().map(|f| t.count_matching(f)).sum();
                max_value = max_value.min(t.count_matching(&projected).saturating_sub(taken));
                let slice = t.schema().cell_count_of(vars.difference(subset));
                min_free_cells = min_free_cells.min(slice.saturating_sub(committed.len()));
            }
        }
        CellRange { max_value, min_free_cells, determined: min_free_cells <= 1 }
    }

    /// Every cell of the given order, in a fixed order.
    fn cells_of_order(schema: &Schema, order: usize) -> Vec<Assignment> {
        schema
            .all_vars()
            .subsets_of_size(order)
            .into_iter()
            .flat_map(|vars| schema.configurations(vars).map(move |v| Assignment::new(vars, v)))
            .collect()
    }

    /// The cells whose bit is set in `mask`.
    fn pick(cells: &[Assignment], mask: u64) -> Vec<Assignment> {
        cells
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, a)| a.clone())
            .collect()
    }

    proptest! {
        #[test]
        fn prop_counted_ranges_match_the_walking_reference(
            counts in proptest::collection::vec(0u64..30, 24),
            known_mask in any::<u64>(),
            found2_mask in any::<u64>(),
            found3_mask in any::<u64>(),
        ) {
            let schema = Schema::uniform(&[3, 2, 2, 2]).unwrap().into_shared();
            let t = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
            let marginals = all_counts(&t);
            let second = cells_of_order(&schema, 2);
            let third = cells_of_order(&schema, 3);
            let known = pick(&second, known_mask);
            for (cells, found_mask) in [(&second, found2_mask), (&third, found3_mask)] {
                let found = pick(cells, found_mask);
                let ctx = RangeContext::new(&marginals, &known, &found);
                for candidate in cells.iter() {
                    prop_assert_eq!(
                        ctx.range_of(candidate),
                        reference_range(&t, &known, &found, candidate)
                    );
                }
            }
        }
    }
}
