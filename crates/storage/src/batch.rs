//! A columnar batch view of one table version.
//!
//! A [`TableBatch`] packs every row of a [`crate::Table`] (in scan order,
//! i.e. ascending [`TupleId`]) into per-column vectors. It is built lazily,
//! once per *table version*: the CoW storage layer caches the batch inside
//! the shared `TableCore`, so every snapshot that shares the same underlying
//! rows also shares the batch, and any mutation (which unshares the core)
//! drops it. Rule-condition evaluation over an unchanged table — the hot
//! loop of exec-graph exploration — therefore pays the flattening cost once
//! and then runs vector kernels against the cached batch.
//!
//! The batch also lazily caches one hash index per column
//! (`Value → positions`), used by the plan layer's hash joins. Positions in
//! a hit list are ascending, so probing an index yields matches in scan
//! order — the same order a nested-loop scan would produce, which keeps
//! execution-graph output byte-identical with the row path. NULL keys are
//! not indexed (SQL equality with NULL never matches).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::column::Column;
use crate::schema::TableSchema;
use crate::tuple::{Row, TupleId};
use crate::value::Value;

/// Columnar snapshot of one table version: tuple ids plus one [`Column`]
/// per schema column, all in scan order.
#[derive(Debug)]
pub struct TableBatch {
    ids: Vec<TupleId>,
    columns: Vec<Column>,
    len: usize,
    /// Lazily built per-column value indexes for hash joins. `OnceLock` so
    /// concurrent explorers (server pool workers sharing a cached program
    /// database) can race to build them safely.
    indexes: Vec<OnceLock<HashMap<Value, Vec<u32>>>>,
}

impl TableBatch {
    /// Flattens `rows` (which must iterate in scan order) into a batch.
    pub fn build<'r>(
        schema: &TableSchema,
        rows: impl Iterator<Item = (&'r TupleId, &'r Row)> + Clone,
        len: usize,
    ) -> Self {
        let ids: Vec<TupleId> = rows.clone().map(|(id, _)| *id).collect();
        debug_assert_eq!(ids.len(), len);
        let columns = schema
            .columns
            .iter()
            .enumerate()
            .map(|(ci, cd)| Column::from_values(cd.ty, rows.clone().map(move |(_, r)| &r[ci]), len))
            .collect::<Vec<_>>();
        let indexes = (0..columns.len()).map(|_| OnceLock::new()).collect();
        TableBatch {
            ids,
            columns,
            len,
            indexes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch has zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple ids in scan order.
    pub fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    /// The columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column `col`.
    #[inline]
    pub fn column(&self, col: usize) -> &Column {
        &self.columns[col]
    }

    /// The exact [`Value`] stored at (`row`, `col`).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materializes row `pos` back into a [`Row`] identical to the one the
    /// row store holds.
    pub fn row(&self, pos: usize) -> Row {
        self.columns.iter().map(|c| c.value(pos)).collect()
    }

    /// The hash index for `col`: non-NULL value → ascending positions.
    /// Built on first use and cached for the lifetime of this table
    /// version. Keys use structural equality, which coincides with SQL
    /// equality only when probe values share the column's non-float
    /// declared type — the same restriction the plan layer's `JoinKey`
    /// already enforces.
    pub fn hash_index(&self, col: usize) -> &HashMap<Value, Vec<u32>> {
        self.indexes[col].get_or_init(|| {
            let c = &self.columns[col];
            let mut map: HashMap<Value, Vec<u32>> = HashMap::new();
            for pos in 0..self.len {
                if !c.is_null(pos) {
                    map.entry(c.value(pos)).or_default().push(pos as u32);
                }
            }
            map
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::value::ValueType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnDef::nullable("a", ValueType::Int),
                ColumnDef::nullable("s", ValueType::Str),
            ],
        )
        .unwrap()
    }

    fn rows() -> Vec<(TupleId, Row)> {
        vec![
            (TupleId(1), vec![Value::Int(10), Value::Str("x".into())]),
            (TupleId(4), vec![Value::Null, Value::Str("y".into())]),
            (TupleId(9), vec![Value::Int(10), Value::Null]),
        ]
    }

    #[test]
    fn batch_round_trips_rows_in_scan_order() {
        let schema = schema();
        let rows = rows();
        let b = TableBatch::build(&schema, rows.iter().map(|(id, r)| (id, r)), rows.len());
        assert_eq!(b.len(), 3);
        assert_eq!(b.ids(), &[TupleId(1), TupleId(4), TupleId(9)]);
        for (pos, (_, r)) in rows.iter().enumerate() {
            assert_eq!(&b.row(pos), r);
        }
    }

    #[test]
    fn index_skips_nulls_and_orders_hits() {
        let schema = schema();
        let rows = rows();
        let b = TableBatch::build(&schema, rows.iter().map(|(id, r)| (id, r)), rows.len());
        let idx = b.hash_index(0);
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.get(&Value::Int(10)), Some(&vec![0u32, 2]));
        assert!(!idx.contains_key(&Value::Null));
        // Second call returns the cached map.
        assert!(std::ptr::eq(idx, b.hash_index(0)));
    }
}
