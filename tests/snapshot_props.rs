//! Property tests for the copy-on-write snapshot layer, the incremental
//! per-table digest cache:
//!
//! * a CoW clone plus divergent mutation is observationally equal to a deep
//!   copy — the snapshot never sees writes through the other handle, and
//!   both sides digest as if fully independent;
//! * the incrementally maintained per-table content digest always equals a
//!   from-scratch recompute, under arbitrary insert/update/delete
//!   sequences.

use proptest::prelude::*;

use starling::storage::{
    CanonicalDigest, ColumnDef, Database, FaultPlan, FaultSpec, TableSchema, TupleId, Value,
    ValueType,
};

const TABLES: [&str; 3] = ["t0", "t1", "t2"];

/// One randomized storage operation against a two-column table picked by
/// index; delete/update target a row by rank so they stay valid whatever
/// ids previous operations produced.
#[derive(Clone, Debug)]
enum StorageOp {
    Insert { table: usize, a: i64, b: i64 },
    Update { table: usize, rank: usize, a: i64 },
    Delete { table: usize, rank: usize },
}

fn storage_ops() -> impl Strategy<Value = Vec<StorageOp>> {
    let op =
        prop_oneof![
            (0..TABLES.len(), -50i64..50, -50i64..50).prop_map(|(table, a, b)| StorageOp::Insert {
                table,
                a,
                b
            }),
            (0..TABLES.len(), 0usize..8, -50i64..50)
                .prop_map(|(table, rank, a)| StorageOp::Update { table, rank, a }),
            (0..TABLES.len(), 0usize..8)
                .prop_map(|(table, rank)| StorageOp::Delete { table, rank }),
        ];
    proptest::collection::vec(op, 0..40)
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    for name in TABLES {
        db.create_table(
            TableSchema::new(
                name,
                vec![
                    ColumnDef::new("a", ValueType::Int),
                    ColumnDef::new("b", ValueType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap();
    }
    db
}

fn apply(db: &mut Database, op: &StorageOp) {
    match *op {
        StorageOp::Insert { table, a, b } => {
            db.insert(TABLES[table], vec![Value::Int(a), Value::Int(b)])
                .unwrap();
        }
        StorageOp::Update { table, rank, a } => {
            let ids = db.table(TABLES[table]).unwrap().ids();
            if ids.is_empty() {
                return;
            }
            let id = ids[rank % ids.len()];
            db.update_column(TABLES[table], id, "a", Value::Int(a))
                .unwrap();
        }
        StorageOp::Delete { table, rank } => {
            let ids = db.table(TABLES[table]).unwrap().ids();
            if ids.is_empty() {
                return;
            }
            db.delete(TABLES[table], ids[rank % ids.len()]).unwrap();
        }
    }
}

/// An id-faithful deep copy built through the public API — what `clone()`
/// used to cost before copy-on-write, used as the observational reference.
fn deep_copy(db: &Database) -> Database {
    let mut out = Database::new();
    for t in db.tables() {
        out.create_table(t.schema().clone()).unwrap();
        for (id, row) in t.iter() {
            out.insert_with_id(t.name(), id, row.clone()).unwrap();
        }
    }
    out
}

/// One table's rows with ids, in scan order.
type TableDump = Vec<(TupleId, Vec<Value>)>;

/// Full observable dump: every table's rows with ids, in scan order.
fn dump(db: &Database) -> Vec<(String, TableDump)> {
    db.tables()
        .map(|t| {
            (
                t.name().to_owned(),
                t.iter().map(|(id, row)| (id, row.clone())).collect(),
            )
        })
        .collect()
}

proptest! {
    /// A CoW snapshot diverging from its origin behaves exactly like a deep
    /// copy would: the snapshot keeps the pre-divergence contents and
    /// digests, the origin sees only its own writes, and both equal deep
    /// copies built row by row through the public API.
    #[test]
    fn cow_clone_is_observationally_a_deep_copy(
        prefix in storage_ops(),
        suffix in storage_ops(),
    ) {
        let mut live = fresh_db();
        for op in &prefix {
            apply(&mut live, op);
        }
        let snap = live.clone();
        let reference = deep_copy(&snap);
        prop_assert_eq!(live.shares_tables_with(&snap), true);

        for op in &suffix {
            apply(&mut live, op);
        }

        // The snapshot is frozen at the clone point…
        prop_assert_eq!(dump(&snap), dump(&reference));
        prop_assert_eq!(snap.state_digest(), reference.state_digest());
        // …and the diverged handle equals a deep copy of itself (its
        // incremental digests survived the unsharing).
        let live_reference = deep_copy(&live);
        prop_assert_eq!(dump(&live), dump(&live_reference));
        prop_assert_eq!(live.state_digest(), live_reference.state_digest());
    }

    /// Unlike table storage, fault-plan counters stay shared across CoW
    /// clones (injection counts are global to the transaction): a clone
    /// sees the fault state through the same `Arc` as its origin.
    #[test]
    fn cow_clone_shares_fault_counters(prefix in storage_ops()) {
        let mut live = fresh_db();
        for op in &prefix {
            apply(&mut live, op);
        }
        live.install_fault_plan(FaultPlan::single(FaultSpec::nth(u64::MAX)));
        let snap = live.clone();
        let (a, b) = (live.fault_state().unwrap(), snap.fault_state().unwrap());
        prop_assert!(std::sync::Arc::ptr_eq(a, b));
    }

    /// The incrementally maintained per-table content digest equals a
    /// from-scratch recompute after any operation sequence — on the mutated
    /// handle *and* on a snapshot taken mid-sequence.
    #[test]
    fn incremental_digest_equals_recompute(
        prefix in storage_ops(),
        suffix in storage_ops(),
    ) {
        let mut db = fresh_db();
        for op in &prefix {
            apply(&mut db, op);
        }
        let snap = db.clone();
        for op in &suffix {
            apply(&mut db, op);
        }
        for handle in [&db, &snap] {
            for t in handle.tables() {
                prop_assert_eq!(t.content_digest(), t.recompute_content_digest());
                // The cached digest is what the canonical table digest
                // reads, so it must move in lockstep.
                let _ = t.digest();
            }
        }
    }
}
