//! A small interactive front end: executes scripts (DDL, DML, rule
//! definitions, certification directives), accumulates the user transition,
//! and runs rule processing at assertion points.
//!
//! This is the runtime counterpart of the paper's "rule assertion points":
//! user statements build up a transition; [`Session::assert_rules`] processes
//! rules against it; [`Session::commit`] ends the transaction.

use std::sync::Arc;

use starling_sql::ast::{Directive, Statement};
use starling_sql::eval::{exec_action, ActionOutcome, ResultSet};
use starling_sql::parse_script;
use starling_storage::wal::{SyncPolicy, WalStore};
use starling_storage::Database;

use crate::durability::{Durability, DEFAULT_SNAPSHOT_EVERY};
use crate::error::EngineError;
use crate::ops::TupleOp;
use crate::processor::{Outcome, Processor, RunResult};
use crate::ruleset::RuleSet;
use crate::state::ExecState;
use crate::strategy::ChoiceStrategy;

/// Output of executing one script statement.
#[derive(Clone, Debug, PartialEq)]
pub enum ScriptOutput {
    /// A table was created.
    TableCreated(String),
    /// A rule was defined.
    RuleCreated(String),
    /// A rule was dropped.
    RuleDropped(String),
    /// A rule's orderings were amended.
    RuleAltered(String),
    /// DML executed, touching this many tuples.
    Modified(usize),
    /// A query returned rows.
    Rows(ResultSet),
    /// A certification directive was recorded.
    DirectiveRecorded,
    /// The user rolled the transaction back.
    RolledBack,
}

/// An interactive session: database + rule definitions + pending user
/// transition + recorded certifications.
pub struct Session {
    db: Database,
    rule_defs: Vec<starling_sql::RuleDef>,
    compiled: Option<Arc<RuleSet>>,
    txn_snapshot: Option<Database>,
    pending_ops: Vec<TupleOp>,
    directives: Vec<Directive>,
    durability: Option<Durability>,
    /// Consideration limit for assertion points.
    pub max_considerations: usize,
    /// Optional wall-clock bound on each assertion point's rule processing.
    pub deadline: Option<std::time::Duration>,
}

impl Session {
    /// An empty session.
    pub fn new() -> Self {
        Session {
            db: Database::new(),
            rule_defs: Vec::new(),
            compiled: None,
            txn_snapshot: None,
            pending_ops: Vec::new(),
            directives: Vec::new(),
            durability: None,
            max_considerations: 10_000,
            deadline: None,
        }
    }

    /// A session restored from pre-built parts: a database snapshot
    /// (copy-on-write, so this is cheap), rule definitions, an optional
    /// already-compiled rule set (shared via `Arc` — N sessions of the same
    /// rule program compile once), and recorded directives.
    ///
    /// This is the server's snapshot-handout path: each connection gets its
    /// own session seeded from a cached program without re-parsing or
    /// re-compiling anything.
    pub fn restore(
        db: Database,
        rule_defs: Vec<starling_sql::RuleDef>,
        compiled: Option<Arc<RuleSet>>,
        directives: Vec<Directive>,
    ) -> Self {
        Session {
            db,
            rule_defs,
            compiled,
            txn_snapshot: None,
            pending_ops: Vec::new(),
            directives,
            durability: None,
            max_considerations: 10_000,
            deadline: None,
        }
    }

    /// Opens (or creates) the durable store at `dir` and builds a session
    /// from its recovered state: latest valid snapshot, WAL tail replayed
    /// with torn records truncated, digests verified, and the rule program
    /// re-parsed and re-validated against the recovered catalog.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        sync: SyncPolicy,
    ) -> Result<Session, EngineError> {
        let (store, recovered) = WalStore::open(dir, sync)?;
        let mut s = Session::new();
        s.db = recovered.db;
        if !recovered.rules_text.is_empty() {
            for stmt in parse_script(&recovered.rules_text)? {
                match stmt {
                    Statement::CreateRule(_) | Statement::Directive(_) => {
                        s.execute(&stmt)?;
                    }
                    other => {
                        return Err(EngineError::InvalidStatement(format!(
                            "recovered rule program contains a non-rule statement: {other}"
                        )))
                    }
                }
            }
        }
        s.durability = Some(Durability {
            store,
            base_db: s.db.clone(),
            base_defs: s.rule_defs.clone(),
            base_directives: s.directives.clone(),
            rules_text: Durability::render_rules(&s.rule_defs, &s.directives),
            commits_since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        });
        Ok(s)
    }

    /// Attaches durability to this in-memory session, persisting its entire
    /// current state as the first logged commit. The store at `dir` must be
    /// empty (use [`Session::open_durable`] to resume an existing store —
    /// silently shadowing persisted state with in-memory state would lose
    /// it).
    pub fn persist_to(
        &mut self,
        dir: impl AsRef<std::path::Path>,
        sync: SyncPolicy,
    ) -> Result<(), EngineError> {
        let dir = dir.as_ref();
        let (mut store, recovered) = WalStore::open(dir, sync)?;
        if !recovered.is_empty() {
            return Err(EngineError::InvalidStatement(format!(
                "durable store at `{}` already holds state; attach to it instead of re-initializing",
                dir.display()
            )));
        }
        store.set_fault_state(self.db.fault_state().cloned());
        self.durability = Some(Durability {
            store,
            base_db: Database::new(),
            base_defs: Vec::new(),
            base_directives: Vec::new(),
            rules_text: String::new(),
            commits_since_snapshot: 0,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
        });
        self.persist_changes()
    }

    /// Whether a durable store is attached.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable attachment's last acknowledged state, if attached: what
    /// recovering the store right now would yield.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Detaches the durable store, handing it to the caller (the server's
    /// checkpoint-restore dance moves the attachment onto the restored
    /// session).
    pub fn take_durability(&mut self) -> Option<Durability> {
        self.durability.take()
    }

    /// Re-attaches a durable store taken from another session. The caller
    /// must ensure this session's state matches the attachment's
    /// acknowledged base (true whenever the session was restored from a
    /// checkpoint taken at a commit point); the next commit diffs against
    /// that base.
    pub fn set_durability(&mut self, durability: Option<Durability>) {
        self.durability = durability;
    }

    /// Sets how many commits accumulate before the log rotates into a
    /// snapshot (default 64; tests lower it to exercise rotation).
    pub fn set_snapshot_every(&mut self, commits: u64) {
        if let Some(dur) = &mut self.durability {
            dur.snapshot_every = commits.max(1);
        }
    }

    /// Persists any un-acknowledged difference between the session state
    /// and the durable base as one commit record — called by
    /// [`Session::commit`] at acknowledged outcomes, and directly by the
    /// server after `certify`/`order` refinements (which change the rule
    /// program without an assertion point).
    ///
    /// **Failure model**: if the append fails (I/O, or an injected
    /// `WalAppend`/`WalSync` fault), the in-memory state is rolled back to
    /// the durable base before the error returns, so memory and disk agree
    /// that the commit did not happen.
    pub fn persist_changes(&mut self) -> Result<(), EngineError> {
        let Some(dur) = &mut self.durability else {
            return Ok(());
        };
        if let Err(e) = dur.persist(&self.db, &self.rule_defs, &self.directives) {
            // Restore the acknowledged base, but keep observing the same
            // fault plan and counters: the base was captured before the
            // plan was installed, and a fired one-shot must stay fired.
            let fault = self.db.fault_state().cloned();
            self.db = dur.base_db.clone();
            self.db.set_fault_state(fault);
            self.rule_defs = dur.base_defs.clone();
            self.directives = dur.base_directives.clone();
            self.compiled = None;
            self.pending_ops.clear();
            self.txn_snapshot = None;
            return Err(e.into());
        }
        Ok(())
    }

    /// Forces a full snapshot + log truncation of the acknowledged state
    /// (the server's drain-time path). No-op without an attachment.
    pub fn durable_snapshot(&mut self) -> Result<(), EngineError> {
        if let Some(dur) = &mut self.durability {
            dur.snapshot()?;
        }
        Ok(())
    }

    /// The current database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Installs a storage fault plan on the session's database (robustness
    /// testing; see [`starling_storage::fault`]). Snapshots taken after
    /// installation share the plan's counters, so an already-fired fault
    /// stays fired across rollback — and the durable store (if attached)
    /// observes the same plan for its WAL/snapshot operations.
    pub fn install_fault_plan(&mut self, plan: starling_storage::FaultPlan) {
        self.db.install_fault_plan(plan);
        if let Some(dur) = &mut self.durability {
            dur.store.set_fault_state(self.db.fault_state().cloned());
        }
    }

    /// The rule definitions, in creation order.
    pub fn rule_defs(&self) -> &[starling_sql::RuleDef] {
        &self.rule_defs
    }

    /// Recorded certification directives (`declare commute`, `declare
    /// terminates`).
    pub fn directives(&self) -> &[Directive] {
        &self.directives
    }

    /// The compiled rule set (compiling lazily after changes).
    pub fn ruleset(&mut self) -> Result<&RuleSet, EngineError> {
        Ok(self.ruleset_arc()?.as_ref())
    }

    /// The compiled rule set as a shared handle (compiling lazily after
    /// changes). Cloning the returned `Arc` is a refcount bump, so callers
    /// that need the rules to outlive a `&mut self` borrow (e.g. assertion
    /// points, server analyses) pay no deep copy.
    pub fn ruleset_arc(&mut self) -> Result<&Arc<RuleSet>, EngineError> {
        if self.compiled.is_none() {
            self.compiled = Some(Arc::new(RuleSet::compile(
                &self.rule_defs,
                self.db.catalog(),
            )?));
        }
        Ok(self.compiled.as_ref().expect("just compiled"))
    }

    /// Parses and executes a script, one statement at a time. DML
    /// accumulates into the pending user transition; rules are processed
    /// only at [`Session::assert_rules`] / [`Session::commit`].
    ///
    /// **Failure model**: a parse error executes nothing. If a statement
    /// fails mid-script, the enclosing transaction is aborted — the
    /// database is restored to the transaction snapshot and the pending
    /// transition is discarded — before the error is returned. Outputs of
    /// the statements that ran before the failure are not returned; their
    /// effects are rolled back with everything else.
    pub fn execute_script(&mut self, src: &str) -> Result<Vec<ScriptOutput>, EngineError> {
        let stmts = parse_script(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match self.execute(&s) {
                Ok(o) => out.push(o),
                Err(e) => {
                    self.rollback();
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Executes one statement.
    pub fn execute(&mut self, stmt: &Statement) -> Result<ScriptOutput, EngineError> {
        match stmt {
            Statement::CreateTable(ct) => {
                self.db.create_table(ct.schema.clone())?;
                self.compiled = None;
                Ok(ScriptOutput::TableCreated(ct.schema.name.clone()))
            }
            Statement::CreateRule(def) => {
                // Validate eagerly so errors surface at definition time.
                starling_sql::validate::validate_rule(def, self.db.catalog())?;
                if self.rule_defs.iter().any(|r| r.name == def.name) {
                    return Err(EngineError::DuplicateRule(def.name.clone()));
                }
                self.rule_defs.push(def.clone());
                self.compiled = None;
                Ok(ScriptOutput::RuleCreated(def.name.clone()))
            }
            Statement::DropRule(name) => {
                let before = self.rule_defs.len();
                self.rule_defs.retain(|r| &r.name != name);
                if self.rule_defs.len() == before {
                    return Err(EngineError::InvalidStatement(format!(
                        "drop rule: no rule named `{name}`"
                    )));
                }
                // Dangling precedes/follows references would fail the next
                // compile; scrub them (dropping a rule drops its orderings).
                for r in &mut self.rule_defs {
                    r.precedes.retain(|p| p != name);
                    r.follows.retain(|p| p != name);
                }
                self.compiled = None;
                Ok(ScriptOutput::RuleDropped(name.clone()))
            }
            Statement::AlterRule {
                name,
                precedes,
                follows,
            } => {
                let Some(def) = self.rule_defs.iter_mut().find(|r| &r.name == name) else {
                    return Err(EngineError::InvalidStatement(format!(
                        "alter rule: no rule named `{name}`"
                    )));
                };
                for p in precedes {
                    if !def.precedes.contains(p) {
                        def.precedes.push(p.clone());
                    }
                }
                for f in follows {
                    if !def.follows.contains(f) {
                        def.follows.push(f.clone());
                    }
                }
                self.compiled = None;
                Ok(ScriptOutput::RuleAltered(name.clone()))
            }
            Statement::Directive(d) => {
                self.directives.push(d.clone());
                Ok(ScriptOutput::DirectiveRecorded)
            }
            Statement::Dml(action) => {
                starling_sql::validate::validate_dml(action, self.db.catalog())?;
                self.ensure_txn();
                // A failing DML statement (e.g. an injected storage fault)
                // may have partially mutated the database. Statement-level
                // atomicity is transaction-level here: abort to the
                // snapshot rather than expose a half-applied statement.
                let outcome = match exec_action(action, &mut self.db, None) {
                    Ok(o) => o,
                    Err(e) => {
                        self.rollback();
                        return Err(e.into());
                    }
                };
                match outcome {
                    ActionOutcome::Effects(fx) => {
                        let n = fx.len();
                        self.pending_ops.extend(fx.into_iter().map(TupleOp::from));
                        Ok(ScriptOutput::Modified(n))
                    }
                    ActionOutcome::Rows(rs) => Ok(ScriptOutput::Rows(rs)),
                    ActionOutcome::Rollback => {
                        self.rollback();
                        Ok(ScriptOutput::RolledBack)
                    }
                }
            }
        }
    }

    fn ensure_txn(&mut self) {
        if self.txn_snapshot.is_none() {
            self.txn_snapshot = Some(self.db.clone());
        }
    }

    /// Aborts the current transaction with `error`: restores the snapshot,
    /// discards the pending transition, and packages the cause as an
    /// [`Outcome::Aborted`] result.
    fn abort_txn(&mut self, error: EngineError) -> RunResult {
        self.rollback();
        RunResult {
            considerations: Vec::new(),
            observables: Vec::new(),
            outcome: Outcome::Aborted,
            truncation: None,
            error: Some(error),
        }
    }

    /// Runs rule processing at an assertion point over the pending user
    /// transition. The pending transition is consumed.
    ///
    /// **Failure model**: any error at the assertion point — rule-set
    /// compilation (e.g. a priority cycle introduced by `alter rule`) or a
    /// failure while considering a rule — aborts the transaction
    /// crash-consistently: the database is restored to the transaction
    /// snapshot, the pending transition is discarded (never silently lost
    /// with the mutated state kept, as older versions did), and the result
    /// carries [`Outcome::Aborted`] with the cause in
    /// [`RunResult::error`]. The `Err` arm is reserved for future
    /// setup-level failures that do not touch the transaction.
    pub fn assert_rules(
        &mut self,
        strategy: &mut dyn ChoiceStrategy,
    ) -> Result<RunResult, EngineError> {
        self.ensure_txn();
        let snapshot = self.txn_snapshot.clone().expect("txn exists");
        let limit = self.max_considerations;
        // Compile before consuming the pending transition, and abort (not
        // just error) if the rule set is unusable: the user transition
        // cannot be processed, so it must not survive half-applied.
        let rules = match self.ruleset_arc() {
            Ok(r) => Arc::clone(r),
            Err(e) => return Ok(self.abort_txn(e)),
        };
        let ops = std::mem::take(&mut self.pending_ops);
        let mut state = ExecState::new(self.db.clone(), rules.len(), &ops);
        let mut processor = Processor::new(&rules).with_limit(limit);
        processor.deadline = self.deadline;
        let result = match processor.run(&mut state, &snapshot, strategy) {
            Ok(r) => r,
            Err(e) => return Ok(self.abort_txn(e)),
        };
        self.db = state.db;
        match result.outcome {
            // The processor already restored the snapshot into `state.db`;
            // both ends of the transaction are closed out here.
            Outcome::RolledBack | Outcome::Aborted => {
                self.txn_snapshot = None;
            }
            Outcome::Quiescent | Outcome::LimitExceeded => {}
        }
        Ok(result)
    }

    /// Commits the transaction: runs an assertion point, then clears the
    /// snapshot. With a durable store attached, acknowledged outcomes
    /// (`Quiescent` — and `RolledBack`, which may still carry DDL executed
    /// outside the transaction snapshot) are persisted before returning;
    /// `Aborted` and `LimitExceeded` are not acknowledged and leave the
    /// durable state untouched, matching the server's checkpoint-restore of
    /// those outcomes.
    pub fn commit(&mut self, strategy: &mut dyn ChoiceStrategy) -> Result<RunResult, EngineError> {
        let result = self.assert_rules(strategy)?;
        self.txn_snapshot = None;
        match result.outcome {
            Outcome::Quiescent | Outcome::RolledBack => {
                if let Err(e) = self.persist_changes() {
                    // The commit could not be made durable: in-memory state
                    // was rolled back to the durable base, and the outcome
                    // reports the abort with its cause.
                    return Ok(RunResult {
                        considerations: Vec::new(),
                        observables: Vec::new(),
                        outcome: Outcome::Aborted,
                        truncation: None,
                        error: Some(e),
                    });
                }
            }
            Outcome::Aborted | Outcome::LimitExceeded => {}
        }
        Ok(result)
    }

    /// Rolls the transaction back manually.
    pub fn rollback(&mut self) {
        if let Some(snap) = self.txn_snapshot.take() {
            self.db = snap;
        }
        self.pending_ops.clear();
    }
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

#[cfg(test)]
mod tests {
    use starling_storage::Value;

    use crate::strategy::FirstEligible;

    use super::*;

    #[test]
    fn script_end_to_end() {
        let mut s = Session::new();
        let out = s
            .execute_script(
                "create table emp (id int, salary int);
                 create rule cap on emp when inserted, updated(salary) \
                   if exists (select * from emp where salary > 100) \
                   then update emp set salary = 100 where salary > 100 end;
                 insert into emp values (1, 250);
                 insert into emp values (2, 50);",
            )
            .unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], ScriptOutput::TableCreated("emp".into()));
        assert_eq!(out[1], ScriptOutput::RuleCreated("cap".into()));
        assert_eq!(out[2], ScriptOutput::Modified(1));

        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, crate::processor::Outcome::Quiescent);
        let salaries: Vec<Value> = s
            .db()
            .table("emp")
            .unwrap()
            .iter()
            .map(|(_, r)| r[1].clone())
            .collect();
        assert_eq!(salaries, vec![Value::Int(100), Value::Int(50)]);
    }

    #[test]
    fn user_rollback_restores() {
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.execute_script("insert into t values (1)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        let out = s
            .execute_script("insert into t values (2); rollback")
            .unwrap();
        assert_eq!(out[1], ScriptOutput::RolledBack);
        assert_eq!(s.db().table("t").unwrap().len(), 1);
    }

    #[test]
    fn duplicate_rule_rejected() {
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.execute_script("create rule r on t when inserted then delete from t end")
            .unwrap();
        let err = s
            .execute_script("create rule r on t when deleted then delete from t end")
            .unwrap_err();
        assert!(matches!(err, EngineError::DuplicateRule(_)));
    }

    #[test]
    fn directives_recorded() {
        let mut s = Session::new();
        s.execute_script("declare commute a, b; declare terminates x 'why'")
            .unwrap();
        assert_eq!(s.directives().len(), 2);
    }

    #[test]
    fn queries_do_not_join_transition() {
        let mut s = Session::new();
        s.execute_script("create table t (a int); insert into t values (3)")
            .unwrap();
        let out = s.execute_script("select a from t").unwrap();
        let ScriptOutput::Rows(rs) = &out[0] else {
            panic!()
        };
        assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    }

    #[test]
    fn drop_and_alter_rule() {
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create rule a on t when inserted then update t set a = 1 end;
             create rule b on t when inserted then update t set a = 2 end;",
        )
        .unwrap();
        assert_eq!(s.ruleset().unwrap().len(), 2);

        // Order them via ALTER; the compiled set reflects it.
        s.execute_script("alter rule a precedes b").unwrap();
        let rs = s.ruleset().unwrap();
        let (a, b) = (rs.by_name("a").unwrap().id, rs.by_name("b").unwrap().id);
        assert!(rs.priority().gt(a, b));

        // Dropping `b` also scrubs the ordering reference from `a`.
        s.execute_script("drop rule b").unwrap();
        let rs = s.ruleset().unwrap();
        assert_eq!(rs.len(), 1);
        assert!(rs.by_name("a").unwrap().def.precedes.is_empty());

        assert!(s.execute_script("drop rule zz").is_err());
        assert!(s.execute_script("alter rule zz precedes a").is_err());
    }

    #[test]
    fn mid_script_error_aborts_transaction() {
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.execute_script("insert into t values (1)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        // Second statement fails: the first one's effect must not survive.
        let err = s
            .execute_script("insert into t values (2); insert into nope values (3)")
            .unwrap_err();
        assert!(matches!(err, EngineError::Sql(_)));
        assert_eq!(s.db().table("t").unwrap().len(), 1);
        // The session is usable afterwards: a fresh transaction commits.
        s.execute_script("insert into t values (4)").unwrap();
        s.commit(&mut FirstEligible).unwrap();
        assert_eq!(s.db().table("t").unwrap().len(), 2);
    }

    #[test]
    fn injected_fault_at_assertion_point_aborts() {
        use starling_storage::{FaultPlan, FaultSpec};
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create table log (a int);
             create rule audit on t when inserted then \
               insert into log select a from inserted end;",
        )
        .unwrap();
        // Kill the rule's insert into log. The user's insert into t lands
        // first (op #0 is on t; the spec only matches log).
        s.install_fault_plan(FaultPlan::single(FaultSpec::nth(0).on_table("log")));
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert!(
            run.error
                .as_ref()
                .is_some_and(EngineError::is_injected_fault),
            "{:?}",
            run.error
        );
        // Crash-consistent: the whole transaction is gone, not just the
        // rule's half — and the pending transition was discarded.
        assert!(s.db().table("t").unwrap().is_empty());
        assert!(s.db().table("log").unwrap().is_empty());
        // The fault is one-shot, so the retry commits cleanly.
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        assert_eq!(s.db().table("t").unwrap().len(), 1);
        assert_eq!(s.db().table("log").unwrap().len(), 1);
    }

    #[test]
    fn ruleset_compile_error_at_assertion_point_aborts() {
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create rule a on t when inserted then update t set a = 1 end;
             create rule b on t when inserted then update t set a = 2 end;",
        )
        .unwrap();
        // Introduce a priority cycle, then try to commit a pending insert.
        s.execute_script("alter rule a precedes b; alter rule b precedes a")
            .unwrap();
        s.execute_script("insert into t values (9)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert!(matches!(run.error, Some(EngineError::PriorityCycle(_))));
        // The pending insert was aborted, not silently kept.
        assert!(s.db().table("t").unwrap().is_empty());
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "starling-session-dur-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_commit_recovers_identically() {
        let dir = durable_dir("roundtrip");
        {
            let mut s = Session::new();
            s.execute_script(
                "create table t (a int);
                 create rule echo on t when inserted then \
                   update t set a = a where a < 0 end;
                 declare terminates echo 'no-op';",
            )
            .unwrap();
            s.persist_to(&dir, SyncPolicy::Always).unwrap();
            s.execute_script("insert into t values (1); insert into t values (2)")
                .unwrap();
            s.commit(&mut FirstEligible).unwrap();
            // DDL after attachment is captured by the next commit's diff.
            s.execute_script("create table u (b int); insert into u values (7)")
                .unwrap();
            s.commit(&mut FirstEligible).unwrap();

            let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
            assert_eq!(r.db(), s.db());
            assert_eq!(r.db().next_tuple_id(), s.db().next_tuple_id());
            assert_eq!(r.rule_defs(), s.rule_defs());
            assert_eq!(r.directives(), s.directives());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_to_refuses_nonempty_store() {
        let dir = durable_dir("nonempty");
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        let mut other = Session::new();
        assert!(matches!(
            other.persist_to(&dir, SyncPolicy::Always),
            Err(EngineError::InvalidStatement(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unacknowledged_outcomes_leave_durable_state_untouched() {
        let dir = durable_dir("abort");
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create table log (a int);
             create rule audit on t when inserted then \
               insert into log select a from inserted end;",
        )
        .unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        let acked = s.durability().unwrap().base_db().clone();
        // Kill the rule's action: the commit aborts and must not be logged.
        s.install_fault_plan(starling_storage::FaultPlan::single(
            starling_storage::FaultSpec::nth(0).on_table("log"),
        ));
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert_eq!(*s.durability().unwrap().base_db(), acked);
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(*r.db(), acked);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_wal_append_rolls_back_to_durable_base() {
        use starling_storage::{FaultOpKind, FaultPlan, FaultSpec};
        let dir = durable_dir("walfail");
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.persist_to(&dir, SyncPolicy::Always).unwrap();
        let acked = s.durability().unwrap().base_db().clone();
        s.install_fault_plan(FaultPlan::single(
            FaultSpec::nth(0).on_kind(FaultOpKind::WalAppend),
        ));
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Aborted);
        assert!(run
            .error
            .as_ref()
            .is_some_and(EngineError::is_injected_fault));
        // Memory agrees with disk that the commit did not happen...
        assert_eq!(*s.db(), acked);
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(*r.db(), acked);
        // ...and the one-shot fault lets the retry land durably.
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, Outcome::Quiescent);
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(r.db(), s.db());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_rotation_preserves_recovery() {
        let dir = durable_dir("rotate");
        let mut s = Session::new();
        s.execute_script("create table t (a int)").unwrap();
        s.persist_to(&dir, SyncPolicy::Batch).unwrap();
        s.set_snapshot_every(2);
        for i in 0..5 {
            s.execute_script(&format!("insert into t values ({i})"))
                .unwrap();
            s.commit(&mut FirstEligible).unwrap();
        }
        s.durable_snapshot().unwrap();
        let r = Session::open_durable(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(r.db(), s.db());
        assert_eq!(r.db().total_rows(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rule_rollback_aborts_transaction() {
        let mut s = Session::new();
        s.execute_script(
            "create table t (a int);
             create rule nope on t when inserted then rollback end;",
        )
        .unwrap();
        s.execute_script("insert into t values (1)").unwrap();
        let run = s.commit(&mut FirstEligible).unwrap();
        assert_eq!(run.outcome, crate::processor::Outcome::RolledBack);
        assert!(s.db().table("t").unwrap().is_empty());
    }
}
