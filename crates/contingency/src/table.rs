//! Sparse contingency tables — the memo's `N_{ijk…}` cell counts.

use crate::config::Assignment;
use crate::marginal::{Marginal, MarginalCounts};
use crate::sample::Sample;
use crate::schema::Schema;
use crate::varset::VarSet;
use crate::{ContingencyError, Result};
use serde::{Deserialize, Serialize, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// A table of observation counts over the full attribute cross-product,
/// storing only the cells that have been observed.
///
/// Cell `N_{ijk…}` — the number of individuals with the *i*-th value of
/// attribute `A`, the *j*-th value of `B`, … — is identified by the
/// mixed-radix index computed by [`Schema::cell_index`].  Only observed
/// cells carry information, so only they are stored: a contiguous list of
/// `(cell, count)` entries (every count ≥ 1) plus a cell → slot hash index
/// for increments and lookups.  All marginal counts (Eqs. 1–6 of the memo)
/// are sums over that entry list: one query at a time
/// ([`ContingencyTable::count_matching`]), as a whole marginal table
/// ([`ContingencyTable::marginal`]), or as many marginal tables filled in
/// one walk ([`ContingencyTable::marginals`]).  Each walk costs O(distinct
/// observed cells) — on a wide schema (2^20 cells, a few thousand observed)
/// nothing walks or allocates the full joint.
///
/// The wire form is `{"schema": …, "cells": [[id, count], …], "total": N}`
/// with ids strictly ascending; [`ContingencyTable::from_cells`] is the one
/// constructor that validates it.
#[derive(Debug, Clone)]
pub struct ContingencyTable {
    schema: Arc<Schema>,
    /// `(cell index, count)` per observed cell, in first-observation order.
    entries: Vec<(usize, u64)>,
    /// Cell index → position of its entry in `entries`.
    slots: HashMap<usize, usize>,
    total: u64,
}

/// Two tables are equal iff they have the same schema and the same count in
/// every cell; the order in which cells were first observed does not matter.
impl PartialEq for ContingencyTable {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.total == other.total
            && self.entries.len() == other.entries.len()
            && self.entries.iter().all(|&(cell, count)| other.count_at(cell) == count)
    }
}

impl Eq for ContingencyTable {}

impl Serialize for ContingencyTable {
    fn serialize(&self) -> Value {
        let mut cells = self.entries.clone();
        cells.sort_unstable();
        Value::Object(vec![
            ("schema".to_string(), self.schema.serialize()),
            ("cells".to_string(), cells.serialize()),
            ("total".to_string(), Value::U64(self.total)),
        ])
    }
}

impl Deserialize for ContingencyTable {
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        let schema: Arc<Schema> = serde::de_field(value, "schema")?;
        let cells: Vec<(usize, u64)> = serde::de_field(value, "cells")?;
        let total: u64 = serde::de_field(value, "total")?;
        Self::from_cells(schema, cells, total).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

impl ContingencyTable {
    /// Creates an all-zero table over a schema.
    pub fn zeros(schema: Arc<Schema>) -> Self {
        Self { schema, entries: Vec::new(), slots: HashMap::new(), total: 0 }
    }

    /// Creates a table from explicit cell counts in dense-index order.
    ///
    /// This is how the memo's Figure 1 data (which is only published in
    /// contingency form) enters the system.
    pub fn from_counts(schema: Arc<Schema>, counts: Vec<u64>) -> Result<Self> {
        if counts.len() != schema.cell_count() {
            return Err(ContingencyError::CountLength {
                got: counts.len(),
                expected: schema.cell_count(),
            });
        }
        // A checked sum: real observation streams cannot reach 2^64, so an
        // overflowing total only ever comes from a forged payload, and
        // wrapping would let it masquerade as a small, consistent table.
        let total = counts
            .iter()
            .try_fold(0u64, |acc, &c| acc.checked_add(c))
            .ok_or(ContingencyError::CountOverflow)?;
        let cells = counts.into_iter().enumerate().filter(|&(_, c)| c > 0).collect();
        Self::from_cells(schema, cells, total)
    }

    /// Creates a table from its observed cells — the constructor behind the
    /// wire form, so it trusts nothing: ids must be strictly ascending and
    /// below the schema's cell count, every count must be at least 1, and
    /// the counts must sum (without overflow) to `total`.
    pub fn from_cells(schema: Arc<Schema>, cells: Vec<(usize, u64)>, total: u64) -> Result<Self> {
        let malformed = |reason: String| ContingencyError::MalformedCells { reason };
        let mut sum = 0u64;
        for (i, &(cell, count)) in cells.iter().enumerate() {
            if cell >= schema.cell_count() {
                return Err(malformed(format!(
                    "cell {cell} is outside the schema's {} cells",
                    schema.cell_count()
                )));
            }
            if i > 0 && cells[i - 1].0 >= cell {
                return Err(malformed(format!("cell {cell} is out of order or repeated")));
            }
            if count == 0 {
                return Err(malformed(format!("cell {cell} carries a zero count")));
            }
            sum = sum.checked_add(count).ok_or(ContingencyError::CountOverflow)?;
        }
        if sum != total {
            return Err(malformed(format!(
                "table claims {total} tuples but its cells sum to {sum}"
            )));
        }
        let slots = cells.iter().enumerate().map(|(slot, &(cell, _))| (cell, slot)).collect();
        Ok(Self { schema, entries: cells, slots, total })
    }

    /// The schema the table is defined over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The schema as a shareable handle.
    pub fn shared_schema(&self) -> Arc<Schema> {
        Arc::clone(&self.schema)
    }

    /// Total number of observations (the memo's `N`, Eq. 6).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.schema.cell_count()
    }

    /// `(cell index, count)` for every observed cell, in no particular
    /// order — the walk behind every marginal sum.
    pub(crate) fn entries(&self) -> &[(usize, u64)] {
        &self.entries
    }

    /// Count of the cell with the given dense index (0 if unobserved).
    fn count_at(&self, cell: usize) -> u64 {
        self.slots.get(&cell).map_or(0, |&slot| self.entries[slot].1)
    }

    /// Adds `by` ≥ 1 to one cell; the caller keeps `total` in step.
    fn add(&mut self, cell: usize, by: u64) {
        match self.slots.entry(cell) {
            Entry::Occupied(slot) => self.entries[*slot.get()].1 += by,
            Entry::Vacant(slot) => {
                slot.insert(self.entries.len());
                self.entries.push((cell, by));
            }
        }
    }

    /// Adds one observation with the given full value assignment.
    pub fn increment(&mut self, values: &[usize]) -> Result<()> {
        self.increment_by(values, 1)
    }

    /// Adds `by` observations with the given full value assignment.
    pub fn increment_by(&mut self, values: &[usize], by: u64) -> Result<()> {
        let cell = self.schema.checked_cell_index(values)?;
        if by > 0 {
            self.total = self.total.checked_add(by).ok_or(ContingencyError::CountOverflow)?;
            self.add(cell, by);
        }
        Ok(())
    }

    /// Count of the cell with the given full value assignment.
    ///
    /// # Panics
    /// Panics (in debug builds) if the assignment is malformed; use
    /// [`ContingencyTable::checked_count_values`] for fallible lookup.
    pub fn count_values(&self, values: &[usize]) -> u64 {
        self.count_at(self.schema.cell_index(values))
    }

    /// Fallible version of [`ContingencyTable::count_values`].
    pub fn checked_count_values(&self, values: &[usize]) -> Result<u64> {
        Ok(self.count_at(self.schema.checked_cell_index(values)?))
    }

    /// Count of observations matching a partial assignment — the marginal
    /// count `N^{S}_{c}` of Eqs. 1–5.  The empty assignment returns `N`.
    pub fn count_matching(&self, assignment: &Assignment) -> u64 {
        if assignment.vars().is_empty() {
            return self.total;
        }
        if assignment.order() == self.schema.len() {
            // Full assignment: direct cell lookup.
            let mut full = vec![0usize; self.schema.len()];
            for (a, v) in assignment.pairs() {
                full[a] = v;
            }
            return self.count_values(&full);
        }
        // Sum over the observed cells only: the walk costs O(distinct
        // observed cells) however large the joint is.
        self.entries
            .iter()
            .filter(|&&(cell, _)| {
                assignment.pairs().all(|(attr, v)| self.schema.cell_value(cell, attr) == v)
            })
            .map(|&(_, count)| count)
            .sum()
    }

    /// Empirical probability of a partial assignment, `N^{S}_{c} / N`
    /// (Eq. 48 generalised).  Returns 0 for an empty table.
    pub fn frequency(&self, assignment: &Assignment) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.count_matching(assignment) as f64 / self.total as f64
    }

    /// Builds the whole marginal table over a variable subset (summing out
    /// everything else), the operation behind Figure 2 of the memo.
    pub fn marginal(&self, vars: VarSet) -> Marginal {
        Marginal::from_table(self, vars)
    }

    /// Builds the marginal tables over every variable set in `varsets` in
    /// one walk over the observed cells, decoding each cell once (see
    /// [`MarginalCounts`]).
    pub fn marginals(&self, varsets: impl IntoIterator<Item = VarSet>) -> MarginalCounts {
        MarginalCounts::from_table(self, varsets)
    }

    /// Iterates over `(full values, count)` for every cell of the joint,
    /// including empty ones, in dense-index order.
    pub fn cells(&self) -> impl Iterator<Item = (Vec<usize>, u64)> + '_ {
        (0..self.cell_count()).map(|i| (self.schema.cell_values(i), self.count_at(i)))
    }

    /// Iterates over `(full values, count)` for the non-empty cells only, in
    /// dense-index order.  The cost is proportional to the distinct observed
    /// cells, not the joint size.
    pub fn nonzero_cells(&self) -> impl Iterator<Item = (Vec<usize>, u64)> + '_ {
        let mut entries = self.entries.clone();
        entries.sort_unstable();
        entries.into_iter().map(|(cell, count)| (self.schema.cell_values(cell), count))
    }

    /// The empirical joint distribution as a dense probability vector in
    /// cell-index order.  Returns an all-zero vector for an empty table.
    pub fn empirical_distribution(&self) -> Vec<f64> {
        let mut p = vec![0.0; self.cell_count()];
        let n = self.total as f64;
        for &(cell, count) in &self.entries {
            p[cell] = count as f64 / n;
        }
        p
    }

    /// Adds one observation given as a validated [`Sample`] — the
    /// tuple-at-a-time entry point used by streaming ingestion.
    pub fn increment_sample(&mut self, sample: &Sample) -> Result<()> {
        self.increment(sample.values())
    }

    /// Adds every cell of `other` into `self`.  Both tables must share a
    /// schema.
    pub fn merge(&mut self, other: &ContingencyTable) -> Result<()> {
        if self.schema.as_ref() != other.schema.as_ref() {
            return Err(ContingencyError::InvalidAssignment {
                reason: "cannot merge tables over different schemas".to_string(),
            });
        }
        // Checking the totals up front keeps merge all-or-nothing: each cell
        // is bounded by its table's total, so if the totals fit in a u64 the
        // per-cell additions cannot overflow either.
        self.total = self.total.checked_add(other.total).ok_or(ContingencyError::CountOverflow)?;
        // Only `other`'s observed cells can change anything, so a merge
        // costs O(cells the other table saw), not O(joint size).
        for &(cell, count) in &other.entries {
            self.add(cell, count);
        }
        Ok(())
    }

    /// By-value form of [`ContingencyTable::merge`], convenient for folds:
    /// `shards.into_iter().try_fold(zero, ContingencyTable::combined)`.
    ///
    /// Cell counts are non-negative integers under addition, so this
    /// operation is associative and commutative — the algebraic fact that
    /// makes sharded, out-of-order ingestion exact rather than approximate.
    pub fn combined(mut self, other: ContingencyTable) -> Result<ContingencyTable> {
        self.merge(&other)?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use proptest::prelude::*;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared()
    }

    /// The paper's Figure 1 counts: index order is (smoking, cancer, family
    /// history) with the last attribute varying fastest.
    fn paper_counts() -> Vec<u64> {
        vec![
            130, 110, // A=1 B=1 C=1/2
            410, 640, // A=1 B=2 C=1/2
            62, 31, // A=2 B=1
            580, 460, // A=2 B=2
            78, 22, // A=3 B=1
            520, 385, // A=3 B=2
        ]
    }

    #[test]
    fn from_counts_validates_length() {
        let s = schema();
        assert!(ContingencyTable::from_counts(Arc::clone(&s), vec![0; 5]).is_err());
        let t = ContingencyTable::from_counts(s, paper_counts()).unwrap();
        assert_eq!(t.total(), 3428);
        assert_eq!(t.cell_count(), 12);
    }

    #[test]
    fn overflowing_counts_are_rejected() {
        let s = schema();
        let mut counts = vec![0u64; 12];
        counts[0] = u64::MAX;
        counts[1] = 1;
        assert_eq!(
            ContingencyTable::from_counts(Arc::clone(&s), counts).unwrap_err(),
            ContingencyError::CountOverflow,
        );
        // Merging two near-maximal tables must fail cleanly, leaving the
        // target untouched rather than wrapping its counts.
        let mut big = vec![0u64; 12];
        big[3] = u64::MAX - 5;
        let mut a = ContingencyTable::from_counts(Arc::clone(&s), big.clone()).unwrap();
        let b = ContingencyTable::from_counts(s, big).unwrap();
        let before = a.clone();
        assert_eq!(a.merge(&b).unwrap_err(), ContingencyError::CountOverflow);
        assert_eq!(a, before, "failed merge must not mutate the target");
    }

    #[test]
    fn increment_and_lookup() {
        let mut t = ContingencyTable::zeros(schema());
        t.increment(&[0, 1, 0]).unwrap();
        t.increment_by(&[0, 1, 0], 4).unwrap();
        t.increment(&[2, 0, 1]).unwrap();
        assert_eq!(t.count_values(&[0, 1, 0]), 5);
        assert_eq!(t.count_values(&[2, 0, 1]), 1);
        assert_eq!(t.total(), 6);
        assert!(t.increment(&[9, 0, 0]).is_err());
        assert_eq!(t.total(), 6, "failed increments must not change the total");
        assert_eq!(t.checked_count_values(&[0, 1, 0]).unwrap(), 5);
        assert!(t.checked_count_values(&[0, 1]).is_err());
    }

    #[test]
    fn count_matching_reproduces_paper_marginals() {
        let t = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        // Figure 2c: smoking × cancer marginals.
        let n_ab_11 = Assignment::from_pairs([(0, 0), (1, 0)]);
        assert_eq!(t.count_matching(&n_ab_11), 240);
        let n_ab_12 = Assignment::from_pairs([(0, 0), (1, 1)]);
        assert_eq!(t.count_matching(&n_ab_12), 1050);
        // Figure 2: first-order marginals.
        assert_eq!(t.count_matching(&Assignment::single(0, 0)), 1290);
        assert_eq!(t.count_matching(&Assignment::single(0, 1)), 1133);
        assert_eq!(t.count_matching(&Assignment::single(0, 2)), 1005);
        assert_eq!(t.count_matching(&Assignment::single(1, 0)), 433);
        assert_eq!(t.count_matching(&Assignment::single(1, 1)), 2995);
        assert_eq!(t.count_matching(&Assignment::single(2, 0)), 1780);
        assert_eq!(t.count_matching(&Assignment::single(2, 1)), 1648);
        // The paper's N^AC_12 = 750 (smokers with no family history).
        let n_ac_12 = Assignment::from_pairs([(0, 0), (2, 1)]);
        assert_eq!(t.count_matching(&n_ac_12), 750);
        // Empty assignment returns N.
        assert_eq!(t.count_matching(&Assignment::empty()), 3428);
        // Full assignment is a plain cell lookup.
        let full = Assignment::from_pairs([(0, 0), (1, 1), (2, 0)]);
        assert_eq!(t.count_matching(&full), 410);
    }

    #[test]
    fn frequency_normalises() {
        let t = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        let p = t.frequency(&Assignment::single(1, 0));
        assert!((p - 433.0 / 3428.0).abs() < 1e-12);
        let empty = ContingencyTable::zeros(schema());
        assert_eq!(empty.frequency(&Assignment::single(1, 0)), 0.0);
    }

    #[test]
    fn empirical_distribution_sums_to_one() {
        let t = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        let p = t.empirical_distribution();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        let b = ContingencyTable::from_counts(schema(), paper_counts()).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 2 * 3428);
        assert_eq!(a.count_values(&[0, 0, 0]), 260);
        let other_schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let c = ContingencyTable::zeros(other_schema);
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn increment_sample_matches_increment() {
        let mut by_values = ContingencyTable::zeros(schema());
        let mut by_sample = ContingencyTable::zeros(schema());
        by_values.increment(&[1, 0, 1]).unwrap();
        let sample = crate::Sample::validated(&schema(), vec![1, 0, 1]).unwrap();
        by_sample.increment_sample(&sample).unwrap();
        assert_eq!(by_values, by_sample);
    }

    #[test]
    fn combined_folds_parts() {
        let s = schema();
        let a = ContingencyTable::from_counts(Arc::clone(&s), paper_counts()).unwrap();
        let parts = [a.clone(), a.clone(), ContingencyTable::zeros(Arc::clone(&s))];
        let folded = parts
            .into_iter()
            .try_fold(ContingencyTable::zeros(Arc::clone(&s)), ContingencyTable::combined)
            .unwrap();
        assert_eq!(folded.total(), 2 * 3428);
        assert_eq!(a.clone().combined(a).unwrap(), folded);
        // Schema mismatches are rejected.
        let other = ContingencyTable::zeros(Schema::uniform(&[2, 2]).unwrap().into_shared());
        assert!(ContingencyTable::zeros(s).combined(other).is_err());
    }

    #[test]
    fn nonzero_cells_skips_empty() {
        let mut t = ContingencyTable::zeros(schema());
        t.increment(&[1, 1, 1]).unwrap();
        assert_eq!(t.nonzero_cells().count(), 1);
        assert_eq!(t.cells().count(), 12);
    }

    #[test]
    fn nonzero_cells_come_out_in_dense_index_order() {
        let mut t = ContingencyTable::zeros(schema());
        // Observed out of index order; iteration must still be index order.
        t.increment(&[2, 0, 1]).unwrap();
        t.increment(&[0, 1, 0]).unwrap();
        t.increment(&[1, 0, 0]).unwrap();
        let cells: Vec<Vec<usize>> = t.nonzero_cells().map(|(v, _)| v).collect();
        assert_eq!(cells, vec![vec![0, 1, 0], vec![1, 0, 0], vec![2, 0, 1]]);
    }

    #[test]
    fn sparse_occupancy_survives_merge_and_serde() {
        let s = schema();
        let mut a = ContingencyTable::zeros(Arc::clone(&s));
        a.increment(&[0, 1, 0]).unwrap();
        let mut b = ContingencyTable::zeros(Arc::clone(&s));
        b.increment(&[0, 1, 0]).unwrap();
        b.increment(&[2, 0, 1]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.count_matching(&Assignment::single(0, 0)), 2);
        assert_eq!(a.count_matching(&Assignment::single(0, 2)), 1);
        assert_eq!(a.nonzero_cells().count(), 2);
        // The wire format carries no derived state, and a round-trip
        // rebuilds the occupancy set the marginal queries walk.
        let json = serde_json::to_string(&a).unwrap();
        assert!(!json.contains("occupied"));
        let back: ContingencyTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.count_matching(&Assignment::single(0, 0)), 2);
        assert_eq!(back.nonzero_cells().count(), 2);
    }

    #[test]
    fn wire_form_lists_observed_cells_in_ascending_order() {
        let mut t = ContingencyTable::zeros(schema());
        t.increment(&[2, 0, 1]).unwrap();
        t.increment_by(&[0, 1, 0], 3).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.contains("\"cells\":[[2,3],[9,1]],\"total\":4"), "{json}");
        assert!(!json.contains("counts"));
        let back: ContingencyTable = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_cells_enforces_every_wire_invariant() {
        let s = schema();
        let build = |cells: Vec<(usize, u64)>, total| {
            ContingencyTable::from_cells(Arc::clone(&s), cells, total)
        };
        let t = build(vec![(0, 2), (11, 1)], 3).unwrap();
        assert_eq!(t.count_values(&[0, 0, 0]), 2);
        assert_eq!(t.count_values(&[2, 1, 1]), 1);
        assert_eq!(t.count_values(&[1, 0, 0]), 0);
        assert!(build(Vec::new(), 0).unwrap().nonzero_cells().next().is_none());
        let malformed = |r: Result<ContingencyTable>, what: &str| match r {
            Err(ContingencyError::MalformedCells { reason }) => {
                assert!(reason.contains(what), "{reason} (expected `{what}`)")
            }
            other => panic!("expected a malformed-cells error, got {other:?}"),
        };
        malformed(build(vec![(12, 1)], 1), "outside");
        malformed(build(vec![(3, 1), (2, 1)], 2), "out of order or repeated");
        malformed(build(vec![(3, 1), (3, 1)], 2), "out of order or repeated");
        malformed(build(vec![(3, 0)], 0), "zero count");
        malformed(build(vec![(3, 2)], 5), "claims 5 tuples");
        assert_eq!(
            build(vec![(0, u64::MAX), (1, 1)], 0).unwrap_err(),
            ContingencyError::CountOverflow
        );
    }

    proptest! {
        #[test]
        fn prop_marginal_counts_sum_to_total(
            counts in proptest::collection::vec(0u64..50, 12),
            attr in 0usize..3,
        ) {
            let t = ContingencyTable::from_counts(schema(), counts).unwrap();
            let card = t.schema().cardinality(attr).unwrap();
            let sum: u64 = (0..card)
                .map(|v| t.count_matching(&Assignment::single(attr, v)))
                .sum();
            // Eq. 4/5 of the memo: summing a first-order marginal over all
            // values of the attribute recovers N.
            prop_assert_eq!(sum, t.total());
        }

        #[test]
        fn prop_second_order_consistent_with_first(
            counts in proptest::collection::vec(0u64..50, 12),
        ) {
            let t = ContingencyTable::from_counts(schema(), counts).unwrap();
            // Eq. 2: summing N^{AB}_{ij} over j gives N^A_i.
            for i in 0..3 {
                let direct = t.count_matching(&Assignment::single(0, i));
                let summed: u64 = (0..2)
                    .map(|j| t.count_matching(&Assignment::from_pairs([(0, i), (1, j)])))
                    .sum();
                prop_assert_eq!(direct, summed);
            }
        }
    }
}
