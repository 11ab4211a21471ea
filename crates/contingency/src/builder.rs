//! Conversion of raw samples to contingency-table form (Appendix A,
//! Figures 5–6 of the memo).

use crate::dataset::Dataset;
use crate::sample::Sample;
use crate::schema::Schema;
use crate::table::ContingencyTable;
use std::sync::Arc;

/// Incremental builder that sums attribute R-tuples into cell counts.
///
/// This is the step pictured in Figure 6 of the memo: each sample is an
/// indicator over the cells (exactly one `x` per row), and summing the
/// indicators column-by-column yields the `N_{ijk…}` values of Figure 1.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    table: ContingencyTable,
    skipped: usize,
}

impl TableBuilder {
    /// Creates a builder over a schema.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self { table: ContingencyTable::zeros(schema), skipped: 0 }
    }

    /// Adds one sample.  Samples that do not validate against the schema are
    /// counted in [`TableBuilder::skipped`] instead of aborting the whole
    /// build; large survey files routinely contain a few malformed rows.
    pub fn add_sample(&mut self, sample: &Sample) -> &mut Self {
        if self.table.increment(sample.values()).is_err() {
            self.skipped += 1;
        }
        self
    }

    /// Adds every sample of an iterator.
    pub fn add_samples<'a, I: IntoIterator<Item = &'a Sample>>(&mut self, samples: I) -> &mut Self {
        for s in samples {
            self.add_sample(s);
        }
        self
    }

    /// Number of samples rejected so far.
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Number of samples accepted so far.
    pub fn accepted(&self) -> u64 {
        self.table.total()
    }

    /// Finishes the build and returns the table.
    pub fn build(self) -> ContingencyTable {
        self.table
    }
}

/// Builds a contingency table directly from a dataset.
///
/// Equivalent to [`Dataset::to_table`]; exposed as a free function so the
/// conversion step of Appendix A has an explicit name in the API.
pub fn tabulate(dataset: &Dataset) -> ContingencyTable {
    dataset.to_table()
}

/// Expands a contingency table back into a dataset with one sample per
/// counted observation (the inverse of Appendix A, useful for resampling
/// experiments and for round-trip tests).
///
/// The expansion is deterministic: cells are visited in dense-index order.
pub fn expand(table: &ContingencyTable) -> Dataset {
    let mut ds = Dataset::with_shared_schema(table.shared_schema());
    for (values, count) in table.nonzero_cells() {
        for _ in 0..count {
            ds.push_values(values.clone()).expect("cell values are valid by construction");
        }
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;
    use proptest::prelude::*;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Attribute::new("a", ["0", "1", "2"]), Attribute::new("b", ["0", "1"])])
            .unwrap()
            .into_shared()
    }

    #[test]
    fn builder_counts_samples() {
        let mut b = TableBuilder::new(schema());
        b.add_sample(&Sample::new(vec![0, 1]));
        b.add_sample(&Sample::new(vec![0, 1]));
        b.add_sample(&Sample::new(vec![2, 0]));
        assert_eq!(b.accepted(), 3);
        assert_eq!(b.skipped(), 0);
        let t = b.build();
        assert_eq!(t.count_values(&[0, 1]), 2);
        assert_eq!(t.count_values(&[2, 0]), 1);
    }

    #[test]
    fn builder_skips_malformed_samples() {
        let mut b = TableBuilder::new(schema());
        b.add_sample(&Sample::new(vec![0, 1]));
        b.add_sample(&Sample::new(vec![9, 9]));
        b.add_sample(&Sample::new(vec![0]));
        assert_eq!(b.accepted(), 1);
        assert_eq!(b.skipped(), 2);
    }

    #[test]
    fn expand_then_tabulate_roundtrips() {
        let t = ContingencyTable::from_counts(schema(), vec![3, 0, 1, 5, 0, 2]).unwrap();
        let ds = expand(&t);
        assert_eq!(ds.len() as u64, t.total());
        let back = tabulate(&ds);
        assert_eq!(back, t);
    }

    proptest! {
        #[test]
        fn prop_tabulate_expand_roundtrip(counts in proptest::collection::vec(0u64..20, 6)) {
            let t = ContingencyTable::from_counts(schema(), counts).unwrap();
            let back = tabulate(&expand(&t));
            prop_assert_eq!(back, t);
            prop_assert_eq!(back.total(), t.total());
        }
    }
}
