//! Marginal tables — the memo's Figure 2 and Eqs. 1–6.

use crate::config::Assignment;
use crate::schema::Schema;
use crate::table::ContingencyTable;
use crate::varset::VarSet;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The counts of a contingency table summed down to a subset of the
/// attributes.
///
/// `Marginal` is itself a small dense table indexed by the member attributes
/// of its [`VarSet`] (in ascending order, last member varying fastest).  It
/// is what Figure 2 of the memo prints in the margins: `N^{AB}_{ij}`,
/// `N^{AC}_{ik}`, `N^A_i`, … down to the single number `N` for the empty
/// set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Marginal {
    vars: VarSet,
    /// Member attribute indices in ascending order.
    members: Vec<usize>,
    /// Cardinalities of the member attributes.
    cards: Vec<usize>,
    counts: Vec<u64>,
    total: u64,
}

impl Marginal {
    /// Computes the marginal of a table over `vars` by summing out all other
    /// attributes (Eqs. 1–5).
    pub fn from_table(table: &ContingencyTable, vars: VarSet) -> Self {
        let mut marginals = [Self::zeros(table.schema(), vars, table.total())];
        count_into(table, &mut marginals);
        let [marginal] = marginals;
        marginal
    }

    /// An all-zero marginal over `vars` (clipped to the schema), ready to be
    /// filled by [`count_into`].
    fn zeros(schema: &Schema, vars: VarSet, total: u64) -> Self {
        let vars = vars.intersection(schema.all_vars());
        let members: Vec<usize> = vars.iter().collect();
        let cards: Vec<usize> =
            members.iter().map(|&i| schema.cardinality(i).expect("member in schema")).collect();
        let cells: usize = cards.iter().product();
        Self { vars, members, cards, counts: vec![0u64; cells.max(1)], total }
    }

    /// Index of the marginal cell a full value tuple (one value per schema
    /// attribute) falls in.
    fn index_of_cell(&self, values: &[usize]) -> usize {
        self.members.iter().zip(&self.cards).fold(0, |m, (&attr, &card)| m * card + values[attr])
    }

    /// The attribute subset this marginal is over.
    pub fn vars(&self) -> VarSet {
        self.vars
    }

    /// The order of the marginal (number of attributes retained).
    pub fn order(&self) -> usize {
        self.members.len()
    }

    /// Number of cells in the marginal table.
    pub fn cell_count(&self) -> usize {
        self.counts.len()
    }

    /// The grand total `N` (same as the source table's total).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for the marginal cell given by one value per member attribute
    /// (ascending attribute order).
    ///
    /// # Panics
    /// Panics if `values` has the wrong length or a value is out of range.
    pub fn count_by_values(&self, values: &[usize]) -> u64 {
        assert_eq!(values.len(), self.members.len(), "one value per member attribute required");
        let mut m = 0usize;
        for (pos, &v) in values.iter().enumerate() {
            assert!(v < self.cards[pos], "value index out of range");
            m = m * self.cards[pos] + v;
        }
        self.counts[m]
    }

    /// Count for the marginal cell named by an [`Assignment`] whose variable
    /// set equals this marginal's variable set.  Returns `None` on a
    /// mismatch.
    pub fn count(&self, assignment: &Assignment) -> Option<u64> {
        if assignment.vars() != self.vars {
            return None;
        }
        Some(self.count_by_values(assignment.values()))
    }

    /// Empirical probability of a marginal cell.
    pub fn frequency_by_values(&self, values: &[usize]) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_by_values(values) as f64 / self.total as f64
    }

    /// Iterates over `(values, count)` for every marginal cell in
    /// lexicographic value order.
    pub fn cells(&self) -> impl Iterator<Item = (Vec<usize>, u64)> + '_ {
        (0..self.counts.len()).map(|mut idx| {
            let mut values = vec![0usize; self.members.len()];
            for pos in (0..self.members.len()).rev() {
                values[pos] = idx % self.cards[pos];
                idx /= self.cards[pos];
            }
            (values.clone(), self.counts[self.index_of(&values)])
        })
    }

    /// Iterates over `(Assignment, count)` for every marginal cell.
    pub fn assignments(&self) -> impl Iterator<Item = (Assignment, u64)> + '_ {
        self.cells().map(move |(values, c)| (Assignment::new(self.vars, values), c))
    }

    /// Sum of all marginal cells; always equals the grand total for a
    /// marginal computed from a table (Eqs. 4–6).
    pub fn sum(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn index_of(&self, values: &[usize]) -> usize {
        let mut m = 0usize;
        for (pos, &v) in values.iter().enumerate() {
            m = m * self.cards[pos] + v;
        }
        m
    }
}

/// Adds every observed cell of `table` into each of `marginals` in one walk
/// over the table's entries: a cell is decoded to its value tuple once,
/// however many marginals it feeds.
fn count_into(table: &ContingencyTable, marginals: &mut [Marginal]) {
    let schema = table.schema();
    let mut values = vec![0usize; schema.len()];
    for &(cell, count) in table.entries() {
        schema.decode_into(cell, &mut values);
        for marginal in marginals.iter_mut() {
            let m = marginal.index_of_cell(&values);
            marginal.counts[m] += count;
        }
    }
}

/// The marginal tables of one contingency table over many variable sets,
/// counted together — the Figure 2 margins `N^S_c` tabulated once.
///
/// [`ContingencyTable::marginals`] fills every table in a single walk over
/// the observed cells, so the cost is O(observed cells × variable sets)
/// once; every lookup afterwards is a table index.  The acquisition loop
/// counts all the variable sets it scores this way once per run, instead
/// of walking the observed cells once per candidate cell and bound with
/// [`ContingencyTable::count_matching`].
#[derive(Debug, Clone)]
pub struct MarginalCounts {
    schema: Arc<Schema>,
    total: u64,
    marginals: HashMap<VarSet, Marginal>,
}

impl MarginalCounts {
    /// Counts the marginals of `table` over every distinct variable set in
    /// `varsets` (each clipped to the schema) in one walk.
    pub(crate) fn from_table(
        table: &ContingencyTable,
        varsets: impl IntoIterator<Item = VarSet>,
    ) -> Self {
        let schema = table.shared_schema();
        let mut seen = HashSet::new();
        let mut marginals: Vec<Marginal> = varsets
            .into_iter()
            .map(|vars| vars.intersection(schema.all_vars()))
            .filter(|&vars| seen.insert(vars))
            .map(|vars| Marginal::zeros(&schema, vars, table.total()))
            .collect();
        count_into(table, &mut marginals);
        let marginals = marginals.into_iter().map(|m| (m.vars, m)).collect();
        Self { schema, total: table.total(), marginals }
    }

    /// The schema of the counted table.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The grand total `N`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The marginal count `N^S_c` of a cell whose variable set was counted
    /// — the same number [`ContingencyTable::count_matching`] returns.  The
    /// empty assignment returns `N`.
    ///
    /// # Panics
    /// Panics if the assignment's variable set was not counted or a value
    /// is out of range.
    pub fn count(&self, assignment: &Assignment) -> u64 {
        if assignment.vars().is_empty() {
            return self.total;
        }
        match self.marginals.get(&assignment.vars()) {
            Some(marginal) => marginal.count_by_values(assignment.values()),
            None => panic!("marginal over {:?} was not counted", assignment.vars()),
        }
    }

    /// Empirical probability `N^S_c / N` of a counted cell, as
    /// [`ContingencyTable::frequency`] computes it.  Returns 0 for an empty
    /// table.
    pub fn frequency(&self, assignment: &Assignment) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count(assignment) as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use proptest::prelude::*;

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

    #[test]
    fn figure_2c_smoking_by_cancer() {
        let t = paper_table();
        let m = t.marginal(VarSet::from_indices([0, 1]));
        assert_eq!(m.order(), 2);
        assert_eq!(m.cell_count(), 6);
        // Figure 2c of the memo.
        assert_eq!(m.count_by_values(&[0, 0]), 240);
        assert_eq!(m.count_by_values(&[0, 1]), 1050);
        assert_eq!(m.count_by_values(&[1, 0]), 93);
        assert_eq!(m.count_by_values(&[1, 1]), 1040);
        assert_eq!(m.count_by_values(&[2, 0]), 100);
        assert_eq!(m.count_by_values(&[2, 1]), 905);
        assert_eq!(m.sum(), 3428);
    }

    #[test]
    fn figure_2_ac_and_bc_marginals() {
        let t = paper_table();
        let ac = t.marginal(VarSet::from_indices([0, 2]));
        assert_eq!(ac.count_by_values(&[0, 0]), 540);
        assert_eq!(ac.count_by_values(&[0, 1]), 750);
        assert_eq!(ac.count_by_values(&[1, 0]), 642);
        assert_eq!(ac.count_by_values(&[1, 1]), 491);
        assert_eq!(ac.count_by_values(&[2, 0]), 598);
        assert_eq!(ac.count_by_values(&[2, 1]), 407);
        let bc = t.marginal(VarSet::from_indices([1, 2]));
        assert_eq!(bc.count_by_values(&[0, 0]), 270);
        assert_eq!(bc.count_by_values(&[0, 1]), 163);
        assert_eq!(bc.count_by_values(&[1, 0]), 1510);
        assert_eq!(bc.count_by_values(&[1, 1]), 1485);
    }

    #[test]
    fn first_order_and_empty_marginals() {
        let t = paper_table();
        let a = t.marginal(VarSet::singleton(0));
        assert_eq!(a.count_by_values(&[0]), 1290);
        assert_eq!(a.count_by_values(&[1]), 1133);
        assert_eq!(a.count_by_values(&[2]), 1005);
        assert!((a.frequency_by_values(&[0]) - 1290.0 / 3428.0).abs() < 1e-12);
        let empty = t.marginal(VarSet::empty());
        assert_eq!(empty.cell_count(), 1);
        assert_eq!(empty.count_by_values(&[]), 3428);
        assert_eq!(empty.order(), 0);
    }

    #[test]
    fn count_by_assignment() {
        let t = paper_table();
        let m = t.marginal(VarSet::from_indices([0, 2]));
        let a = Assignment::from_pairs([(0, 0), (2, 1)]);
        assert_eq!(m.count(&a), Some(750));
        let wrong_vars = Assignment::from_pairs([(0, 0), (1, 1)]);
        assert_eq!(m.count(&wrong_vars), None);
    }

    #[test]
    fn assignments_iterator_agrees_with_table() {
        let t = paper_table();
        let m = t.marginal(VarSet::from_indices([0, 1]));
        for (a, c) in m.assignments() {
            assert_eq!(c, t.count_matching(&a));
        }
        assert_eq!(m.assignments().count(), 6);
    }

    /// A sparse table with `by` observations added at each (wrapped) cell
    /// index.
    fn sparse_table(schema: &Arc<Schema>, cells: Vec<(usize, u64)>) -> ContingencyTable {
        let mut t = ContingencyTable::zeros(Arc::clone(schema));
        for (cell, by) in cells {
            t.increment_by(&schema.cell_values(cell % schema.cell_count()), by).unwrap();
        }
        t
    }

    #[test]
    fn marginal_counts_of_the_empty_table_are_zero() {
        let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
        let t = ContingencyTable::zeros(Arc::clone(&schema));
        let varsets: Vec<VarSet> =
            (1..=3).flat_map(|k| schema.all_vars().subsets_of_size(k)).collect();
        let counts = t.marginals(varsets.iter().copied());
        for &vars in &varsets {
            for values in schema.configurations(vars) {
                assert_eq!(counts.count(&Assignment::new(vars, values)), 0);
            }
        }
        assert_eq!(counts.count(&Assignment::empty()), 0);
        assert_eq!(counts.frequency(&Assignment::single(0, 0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "was not counted")]
    fn marginal_counts_refuse_uncounted_varsets() {
        let t = paper_table();
        t.marginals([VarSet::singleton(0)]).count(&Assignment::single(1, 0));
    }

    proptest! {
        #[test]
        fn prop_one_walk_counts_match_count_matching(
            cells in proptest::collection::vec((0usize..36, 1u64..20), 0..12),
            mask in any::<u32>(),
        ) {
            let schema = Schema::uniform(&[3, 2, 2, 3]).unwrap().into_shared();
            let t = sparse_table(&schema, cells);
            // A random selection of the varsets at orders 1–3, always with
            // the full-order varset, requested in one call.
            let all: Vec<VarSet> =
                (1..=4).flat_map(|k| schema.all_vars().subsets_of_size(k)).collect();
            let last = all.len() - 1;
            let requested: Vec<VarSet> = all
                .iter()
                .enumerate()
                .filter(|&(i, _)| i == last || mask & (1 << i) != 0)
                .map(|(_, &vars)| vars)
                .collect();
            let counts = t.marginals(requested.iter().copied());
            for &vars in &requested {
                let mut sum = 0;
                for values in schema.configurations(vars) {
                    let a = Assignment::new(vars, values);
                    prop_assert_eq!(counts.count(&a), t.count_matching(&a));
                    prop_assert_eq!(counts.frequency(&a), t.frequency(&a));
                    sum += counts.count(&a);
                }
                prop_assert_eq!(sum, t.total());
            }
            prop_assert_eq!(counts.count(&Assignment::empty()), t.total());
        }

        #[test]
        fn prop_marginal_agrees_with_count_matching(
            counts in proptest::collection::vec(0u64..30, 12),
            mask in any::<u32>(),
        ) {
            let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
            let t = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
            let vars = VarSet::from_bits(mask).intersection(schema.all_vars());
            let m = t.marginal(vars);
            prop_assert_eq!(m.sum(), t.total());
            for (a, c) in m.assignments() {
                prop_assert_eq!(c, t.count_matching(&a));
            }
        }
    }
}
