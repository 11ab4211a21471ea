//! The memo's smoking/cancer survey (Figure 1).
//!
//! The data are hypothetical case histories of 3428 people over 60, answered
//! on the questionnaire of the memo's "Problem Definition" section:
//!
//! * **A — smoking history**: smoker / non-smoker not married to a smoker /
//!   non-smoker married to a smoker;
//! * **B — cancer**: yes / no;
//! * **C — family history of cancer**: yes / no.
//!
//! The counts below are Figure 1(a) and 1(b) verbatim; the marginal sums of
//! Figure 2 and every number in Tables 1–2 derive from them.

use pka_contingency::{builder, Attribute, ContingencyTable, Dataset, Schema};
use std::sync::Arc;

/// Index of the smoking-history attribute (the memo's `A`).
pub const SMOKING: usize = 0;
/// Index of the cancer attribute (the memo's `B`).
pub const CANCER: usize = 1;
/// Index of the family-history attribute (the memo's `C`).
pub const FAMILY_HISTORY: usize = 2;

/// The cell counts of Figure 1 in dense (smoking, cancer, family-history)
/// order with the last attribute varying fastest.
pub const COUNTS: [u64; 12] = [
    130, 110, // smoker, cancer=yes, family history yes/no
    410, 640, // smoker, cancer=no
    62, 31, // non-smoker, cancer=yes
    580, 460, // non-smoker, cancer=no
    78, 22, // married-to-smoker, cancer=yes
    520, 385, // married-to-smoker, cancer=no
];

/// Total number of respondents (the memo's `N = 3428`).
pub const TOTAL: u64 = 3428;

/// The questionnaire schema of the memo's example.
pub fn schema() -> Arc<Schema> {
    Schema::new(vec![
        Attribute::new("smoking", ["smoker", "non-smoker", "non-smoker-married-to-smoker"]),
        Attribute::yes_no("cancer"),
        Attribute::yes_no("family-history"),
    ])
    .expect("the paper schema is valid")
    .into_shared()
}

/// The contingency table of Figure 1.
pub fn table() -> ContingencyTable {
    ContingencyTable::from_counts(schema(), COUNTS.to_vec())
        .expect("the paper counts match the schema")
}

/// The survey expanded back to one sample per respondent (Figure 5 / 6
/// form), for experiments that need raw samples (train/test splits,
/// learning curves).
pub fn dataset() -> Dataset {
    builder::expand(&table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Assignment, VarSet};

    #[test]
    fn totals_match_the_memo() {
        let t = table();
        assert_eq!(t.total(), TOTAL);
        assert_eq!(t.cell_count(), 12);
        assert_eq!(t.count_values(&[0, 1, 0]), 410, "smokers, no cancer, family history");
    }

    #[test]
    fn figure_2_marginals() {
        let t = table();
        let a = t.marginal(VarSet::singleton(SMOKING));
        assert_eq!(a.count_by_values(&[0]), 1290);
        assert_eq!(a.count_by_values(&[1]), 1133);
        assert_eq!(a.count_by_values(&[2]), 1005);
        let b = t.marginal(VarSet::singleton(CANCER));
        assert_eq!(b.count_by_values(&[0]), 433);
        assert_eq!(b.count_by_values(&[1]), 2995);
        let c = t.marginal(VarSet::singleton(FAMILY_HISTORY));
        assert_eq!(c.count_by_values(&[0]), 1780);
        assert_eq!(c.count_by_values(&[1]), 1648);
        // The memo's N^AC_12 = 750, the first constraint it discovers.
        assert_eq!(
            t.count_matching(&Assignment::from_pairs([(SMOKING, 0), (FAMILY_HISTORY, 1)])),
            750
        );
    }

    #[test]
    fn first_order_probabilities_match_eq_48() {
        let t = table();
        let p = |attr: usize, v: usize| t.frequency(&Assignment::single(attr, v));
        assert!((p(SMOKING, 0) - 0.376).abs() < 5e-3);
        assert!((p(SMOKING, 1) - 0.331).abs() < 5e-3);
        assert!((p(SMOKING, 2) - 0.293).abs() < 5e-3);
        assert!((p(CANCER, 0) - 0.126).abs() < 5e-3);
        assert!((p(CANCER, 1) - 0.874).abs() < 5e-3);
        assert!((p(FAMILY_HISTORY, 0) - 0.519).abs() < 5e-3);
        assert!((p(FAMILY_HISTORY, 1) - 0.481).abs() < 5e-3);
    }

    #[test]
    fn dataset_expansion_roundtrips() {
        let d = dataset();
        assert_eq!(d.len() as u64, TOTAL);
        let back = d.to_table();
        assert_eq!(back, table());
    }

    #[test]
    fn schema_names_resolve() {
        let s = schema();
        assert_eq!(s.attribute_index("cancer").unwrap(), CANCER);
        assert_eq!(s.attribute(SMOKING).unwrap().cardinality(), 3);
    }
}
