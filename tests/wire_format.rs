//! Hostile-payload properties of the fabric wire format.
//!
//! The `shard-push` / `snapshot-sync` payloads cross machine boundaries,
//! so everything a corrupted or adversarial peer could send must be
//! rejected with a structured error — never absorbed, never a panic.
//! These properties drive [`CountShard::from_json`] and
//! [`SnapshotMeta::from_value`] with forged cell lists (ids outside the
//! schema, repeated or out of order; negative, zero and overflowing counts;
//! inconsistent totals), forged format stamps, and truncated payloads.
//! The last tests pin the size of the sparse wire form on wide schemas.

use pka::contingency::Schema;
use pka::stream::{CountShard, SnapshotMeta, StreamError, WIRE_FORMAT_VERSION};
use proptest::prelude::*;
use serde::Value;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::uniform(&[3, 2, 2]).unwrap().into_shared()
}

fn shard_from_cells(cells: &[usize]) -> CountShard {
    let s = schema();
    let mut shard = CountShard::new(Arc::clone(&s));
    for &cell in cells {
        let values = s.cell_values(cell % s.cell_count());
        shard.record(&values).unwrap();
    }
    shard
}

/// Navigates to the `cells` entry list inside a serialised shard value.
fn cells_mut(value: &mut Value) -> &mut Vec<Value> {
    let Value::Object(fields) = value else { panic!("shard is not an object") };
    let table = fields
        .iter_mut()
        .find(|(name, _)| name == "table")
        .map(|(_, v)| v)
        .expect("shard without table");
    let Value::Object(table_fields) = table else { panic!("table is not an object") };
    let cells = table_fields
        .iter_mut()
        .find(|(name, _)| name == "cells")
        .map(|(_, v)| v)
        .expect("table without cells");
    match cells {
        Value::Array(entries) => entries,
        _ => panic!("cells is not an array"),
    }
}

/// The `(id, count)` pair of one `cells` entry.
fn entry(cell: &Value) -> (u64, u64) {
    match cell {
        Value::Array(pair) => (pair[0].as_u64().unwrap(), pair[1].as_u64().unwrap()),
        _ => panic!("cell entry is not a pair"),
    }
}

/// Mutable access to the id (`0`) or count (`1`) of one `cells` entry.
fn entry_mut(cell: &mut Value, field: usize) -> &mut Value {
    match cell {
        Value::Array(pair) => &mut pair[field],
        _ => panic!("cell entry is not a pair"),
    }
}

/// A serialised shard over `cells` plus the given distinct extra cells.
fn value_with(cells: &[usize], extra: &[usize]) -> Value {
    let all: Vec<usize> = cells.iter().chain(extra).copied().collect();
    serde_json::from_str(&shard_from_cells(&all).to_json().unwrap()).unwrap()
}

/// A tuple stream over `attributes` binary attributes with `rows` rows.
fn binary_rows(attributes: usize, rows: usize) -> Vec<Vec<usize>> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..rows)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (0..attributes).map(|a| ((state >> a) & 1) as usize).collect()
        })
        .collect()
}

fn set_field(value: &mut Value, path: &[&str], new_value: Value) {
    let mut current = value;
    for (i, segment) in path.iter().enumerate() {
        let Value::Object(fields) = current else { panic!("not an object at {segment}") };
        let slot = fields
            .iter_mut()
            .find(|(name, _)| name == segment)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {segment}"));
        if i == path.len() - 1 {
            *slot = new_value;
            return;
        }
        current = slot;
    }
}

fn reject(value: &Value) -> StreamError {
    CountShard::from_value(value).expect_err("hostile payload must be rejected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Valid shards survive the wire bit-for-bit.
    #[test]
    fn prop_round_trip_is_exact(cells in proptest::collection::vec(0usize..12, 0..60)) {
        let shard = shard_from_cells(&cells);
        let json = shard.to_json().unwrap();
        prop_assert!(json.contains(&format!("\"format_version\":{WIRE_FORMAT_VERSION}")));
        let back = CountShard::from_json(&json).unwrap();
        prop_assert_eq!(back, shard);
    }

    /// Truncating a payload anywhere produces an error, never a panic or a
    /// silently-absorbed shard.
    #[test]
    fn prop_truncated_payloads_are_rejected(
        cells in proptest::collection::vec(0usize..12, 1..30),
        fraction in 0.0f64..1.0,
    ) {
        let json = shard_from_cells(&cells).to_json().unwrap();
        let cut = ((json.len() as f64) * fraction) as usize;
        // Cut on a char boundary strictly inside the payload.
        let cut = (0..=cut.min(json.len() - 1)).rev().find(|&i| json.is_char_boundary(i)).unwrap();
        prop_assert!(CountShard::from_json(&json[..cut]).is_err());
    }

    /// Cells tabulated over a wider schema than the payload declares are
    /// rejected: an id past the declared schema's cells cannot be placed.
    #[test]
    fn prop_cardinality_mismatch_is_rejected(
        cells in proptest::collection::vec(0usize..12, 0..30),
        wide_cell in 6usize..12,
    ) {
        let mut value = value_with(&cells, &[wide_cell]);
        let narrow = Schema::uniform(&[3, 2]).unwrap();
        set_field(&mut value, &["table", "schema"], serde::Serialize::serialize(&narrow));
        reject(&value);
    }

    /// An id at or above the schema's cell count is rejected.
    #[test]
    fn prop_out_of_range_ids_are_rejected(
        cells in proptest::collection::vec(0usize..12, 1..30),
        pick in any::<usize>(),
        beyond in any::<u64>(),
    ) {
        // Exactly the cell count, a little past it, and anywhere up to
        // the top of the id range.
        for id in [12, 12 + beyond % 1_000, beyond.max(12)] {
            let mut value = value_with(&cells, &[]);
            let entries = cells_mut(&mut value);
            let last = entries.len() - 1;
            // The last entry keeps the ids ascending; any other entry also
            // breaks the order, and must be refused either way.
            let i = if pick.is_multiple_of(2) { last } else { pick % entries.len() };
            *entry_mut(&mut entries[i], 0) = Value::U64(id);
            reject(&value);
        }
    }

    /// A repeated or out-of-order id is rejected, even when the total is
    /// forged to match the cells.
    #[test]
    fn prop_unsorted_or_duplicate_ids_are_rejected(
        cells in proptest::collection::vec(0usize..12, 0..30),
        first in 0usize..12,
        step in 1usize..12,
        duplicate in any::<bool>(),
    ) {
        let mut value = value_with(&cells, &[first, (first + step) % 12]);
        let entries = cells_mut(&mut value);
        let extra = if duplicate {
            let copy = entries[0].clone();
            entries.insert(1, copy);
            entry(&entries[0]).1
        } else {
            entries.swap(0, 1);
            0
        };
        let total = cells.len() as u64 + 2 + extra;
        set_field(&mut value, &["table", "total"], Value::U64(total));
        reject(&value);
    }

    /// A zero count is rejected, even when the total is forged to match.
    #[test]
    fn prop_zero_counts_are_rejected(
        cells in proptest::collection::vec(0usize..12, 1..30),
        pick in any::<usize>(),
    ) {
        let mut value = value_with(&cells, &[]);
        let entries = cells_mut(&mut value);
        let i = pick % entries.len();
        let dropped = entry(&entries[i]).1;
        *entry_mut(&mut entries[i], 1) = Value::U64(0);
        set_field(&mut value, &["table", "total"], Value::U64(cells.len() as u64 - dropped));
        reject(&value);
    }

    /// Negative cell counts (and negative ids) are rejected.
    #[test]
    fn prop_negative_counts_are_rejected(
        cells in proptest::collection::vec(0usize..12, 0..30),
        cell in 0usize..12,
        magnitude in 1i64..1_000_000,
        field in 0usize..2,
    ) {
        let mut value = value_with(&cells, &[cell]);
        let entries = cells_mut(&mut value);
        let i = entries.len() / 2;
        *entry_mut(&mut entries[i], field) = Value::I64(-magnitude);
        reject(&value);
    }

    /// Cell counts that overflow the 64-bit total are rejected by the
    /// checked sum, not wrapped into a small "consistent" table.
    #[test]
    fn prop_overflowing_counts_are_rejected(
        cells in proptest::collection::vec(0usize..12, 0..30),
        first in 0usize..12,
        step in 1usize..12,
    ) {
        let mut value = value_with(&cells, &[first, (first + step) % 12]);
        let entries = cells_mut(&mut value);
        *entry_mut(&mut entries[0], 1) = Value::U64(u64::MAX);
        *entry_mut(&mut entries[1], 1) = Value::U64(u64::MAX);
        reject(&value);
    }

    /// A forged total that disagrees with the counts is rejected.
    #[test]
    fn prop_inconsistent_totals_are_rejected(
        cells in proptest::collection::vec(0usize..12, 1..30),
        forged_delta in 1u64..1_000,
    ) {
        let shard = shard_from_cells(&cells);
        let mut value: Value = serde_json::from_str(&shard.to_json().unwrap()).unwrap();
        set_field(
            &mut value,
            &["table", "total"],
            Value::U64(shard.tuple_count() + forged_delta),
        );
        reject(&value);
    }

    /// Any format stamp but the current one is refused with the structured
    /// error, for shards and snapshot metadata alike.
    #[test]
    fn prop_foreign_format_versions_are_refused(stamp in any::<u64>()) {
        prop_assume!(stamp != WIRE_FORMAT_VERSION);
        let mut value: Value =
            serde_json::from_str(&shard_from_cells(&[1, 2, 3]).to_json().unwrap()).unwrap();
        set_field(&mut value, &["format_version"], Value::U64(stamp));
        prop_assert!(matches!(
            CountShard::from_value(&value),
            Err(StreamError::FormatVersion { found: Some(found) }) if found == stamp
        ));

        let meta = SnapshotMeta {
            format_version: stamp,
            version: 1,
            observations: 10,
            warm_started: false,
            constraints: 4,
            attributes: 3,
        };
        prop_assert!(matches!(
            meta.validate_format(),
            Err(StreamError::FormatVersion { found: Some(found) }) if found == stamp
        ));
        let forged = serde::Serialize::serialize(&meta);
        prop_assert!(SnapshotMeta::from_value(&forged).is_err());
    }
}

/// A version-1 payload (dense `counts`) from a pre-sparse build is refused
/// with the structured error, never parsed as counts.
#[test]
fn v1_dense_payload_is_refused_by_version() {
    let payload = format!(
        "{{\"format_version\":1,\"table\":{{\"schema\":{},\"counts\":[{}],\"total\":1}}}}",
        serde_json::to_string(&*schema()).unwrap(),
        ["1"].iter().chain(&["0"; 11]).copied().collect::<Vec<_>>().join(","),
    );
    assert!(matches!(
        CountShard::from_json(&payload),
        Err(StreamError::FormatVersion { found: Some(1) })
    ));
}

/// At the schema-size limit (28 binary attributes, 2^28 cells) a shard of
/// 1,000 tuples records, merges and crosses the wire in proportion to its
/// observed cells: nothing allocates per joint cell.
#[test]
fn shards_at_the_cell_limit_stay_small() {
    let schema = Schema::uniform(&[2; 28]).unwrap().into_shared();
    assert_eq!(schema.cell_count(), 1 << 28);
    let rows = binary_rows(28, 1_000);
    let mut first = CountShard::new(Arc::clone(&schema));
    let mut second = CountShard::new(Arc::clone(&schema));
    first.record_batch(&rows[..500]).unwrap();
    second.record_batch(&rows[500..]).unwrap();
    let merged = first.merge(second).unwrap();
    assert_eq!(merged.tuple_count(), 1_000);
    let line = merged.to_json().unwrap();
    assert!(line.len() < 64 << 10, "2^28-cell shard line is {} bytes", line.len());
    assert_eq!(CountShard::from_json(&line).unwrap(), merged);
}

/// On 20 binary attributes a 300-tuple cumulative shard is a short line
/// (it was 2.1 MB in the dense form, past the 1 MiB default line cap).
#[test]
fn wide_cumulative_shards_fit_one_short_line() {
    let schema = Schema::uniform(&[2; 20]).unwrap().into_shared();
    let mut shard = CountShard::new(schema);
    shard.record_batch(&binary_rows(20, 300)).unwrap();
    let line = shard.to_json().unwrap();
    assert!(line.len() < 16 << 10, "2^20-cell shard line is {} bytes", line.len());
    assert_eq!(CountShard::from_json(&line).unwrap(), shard);
}
