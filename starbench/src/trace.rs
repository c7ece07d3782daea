//! The traced replay: the same seeded inputs, driven through the
//! libraries' public functions in this process, with a timer around each
//! call into a layer. Nothing inside the program is instrumented.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use starling_engine::exec_graph::{apply_user_actions, EdgeInfo, StateNode};
use starling_engine::{
    consider_fired_rule, explore_traced_with_mode, explore_with_mode, rule_fires, Budget,
    EngineError, EvalMode, ExecGraph, ExecState, RuleId, RuleSet, StepOutcome, TruncationReason,
};
use starling_sql::ast::Action;
use starling_storage::Database;

/// Self time and counts of one explore, split by layer.
#[derive(Clone, Debug, Default)]
pub struct ExploreLayers {
    /// `ExecState::clone` plus `reset_pending`.
    pub fork: Duration,
    /// Dropping duplicate successors and, at the end, the explored states.
    pub drop: Duration,
    /// `ExecState::digest` plus `Database::state_digest`.
    pub digest: Duration,
    /// `ExecState::triggered` plus `PriorityOrder::choose`.
    pub triggered: Duration,
    /// `rule_fires`.
    pub cond: Duration,
    /// `consider_fired_rule`.
    pub action: Duration,
    pub cond_evals: u64,
    pub cond_true: u64,
    /// `rule_fires` calls whose memo key had already occurred.
    pub cond_repeats: u64,
    pub actions_fired: u64,
    pub states: u64,
    pub edges: u64,
}

impl ExploreLayers {
    /// Sum of the layer self times.
    pub fn total(&self) -> Duration {
        self.fork + self.drop + self.digest + self.triggered + self.cond + self.action
    }
}

/// The sequential explorer, rebuilt from public calls with a timer around
/// each. It must build the graph `explore` builds; callers compare.
struct Replay<'a> {
    rules: &'a RuleSet,
    graph: ExecGraph,
    index: HashMap<u64, usize>,
    concrete: Vec<ExecState>,
    frontier: Vec<usize>,
    l: ExploreLayers,
}

impl Replay<'_> {
    fn add_state(&mut self, st: ExecState) -> usize {
        let t = Instant::now();
        let digest = st.digest();
        self.l.digest += t.elapsed();
        if let Some(&i) = self.index.get(&digest) {
            let t = Instant::now();
            drop(st);
            self.l.drop += t.elapsed();
            return i;
        }
        let t = Instant::now();
        let triggered = st.triggered(self.rules);
        self.l.triggered += t.elapsed();
        let t = Instant::now();
        let db_digest = st.db.state_digest();
        self.l.digest += t.elapsed();
        let i = self.graph.states.len();
        let is_final = triggered.is_empty();
        self.graph.states.push(StateNode {
            digest,
            db_digest,
            triggered,
            out_edges: Vec::new(),
            is_final,
        });
        if is_final {
            self.graph.final_states.push(i);
            let t = Instant::now();
            self.graph.final_dbs.push((i, st.db.clone()));
            self.l.fork += t.elapsed();
        }
        self.index.insert(digest, i);
        self.concrete.push(st);
        self.frontier.push(i);
        i
    }
}

/// A digest of the tables a rule's condition and actions read
/// (`Reads(r)`), per rule.
fn read_tables(rules: &RuleSet) -> Vec<Vec<String>> {
    rules
        .rules()
        .iter()
        .map(|r| {
            let mut t: Vec<String> = r.sig.reads.iter().map(|c| c.table.clone()).collect();
            t.sort();
            t.dedup();
            t
        })
        .collect()
}

/// Replays `explore` over `(rules, base_db, actions)` with per-layer
/// timers. Also counts the `rule_fires` calls whose key — the rule, the
/// digest of the tables it reads, and its pending transition — already
/// occurred in this explore: the ceiling of a reads-keyed condition memo.
pub fn replay_explore(
    rules: &RuleSet,
    base_db: &Database,
    actions: &[Action],
    cfg: &Budget,
    mode: EvalMode,
) -> Result<(ExecGraph, ExploreLayers), EngineError> {
    let reads = read_tables(rules);
    let mut db = base_db.clone();
    let ops = apply_user_actions(&mut db, actions)?;
    let clock = cfg.start_clock();
    let mut r = Replay {
        rules,
        graph: ExecGraph {
            states: Vec::new(),
            edges: Vec::new(),
            final_states: Vec::new(),
            final_dbs: Vec::new(),
            truncation: None,
        },
        index: HashMap::new(),
        concrete: Vec::new(),
        frontier: Vec::new(),
        l: ExploreLayers::default(),
    };
    let mut memo_keys: HashSet<(usize, u64, u64)> = HashSet::new();
    r.add_state(ExecState::new(db, rules.len(), &ops));
    'levels: while !r.frontier.is_empty() {
        let level = std::mem::take(&mut r.frontier);
        let t = Instant::now();
        let eligible: Vec<Vec<RuleId>> = level
            .iter()
            .map(|&i| {
                if r.graph.states[i].is_final {
                    Vec::new()
                } else {
                    rules.priority().choose(&r.graph.states[i].triggered)
                }
            })
            .collect();
        r.l.triggered += t.elapsed();
        for (k, &i) in level.iter().enumerate() {
            if r.graph.states.len() > cfg.max_states {
                r.graph.truncation = Some(TruncationReason::States);
                break 'levels;
            }
            if clock.expired() {
                r.graph.truncation = Some(TruncationReason::Deadline);
                break 'levels;
            }
            if r.graph.states[i].is_final {
                continue;
            }
            let mut expansions = Vec::with_capacity(eligible[k].len());
            for &rule in &eligible[k] {
                let src = &r.concrete[i];
                let key = (
                    rule.0,
                    src.db.digest_of_tables(
                        &reads[rule.0].iter().map(String::as_str).collect::<Vec<_>>(),
                    ),
                    {
                        let mut h = DefaultHasher::new();
                        format!("{:?}", src.pending(rule)).hash(&mut h);
                        h.finish()
                    },
                );
                if !memo_keys.insert(key) {
                    r.l.cond_repeats += 1;
                }
                let t = Instant::now();
                let fires = rule_fires(rules, src, rule, mode)?;
                r.l.cond += t.elapsed();
                r.l.cond_evals += 1;
                let t = Instant::now();
                let mut next = src.clone();
                r.l.fork += t.elapsed();
                let step = if fires {
                    r.l.cond_true += 1;
                    r.l.actions_fired += 1;
                    let t = Instant::now();
                    let step = consider_fired_rule(rules, &mut next, rule, base_db, mode)?;
                    r.l.action += t.elapsed();
                    step
                } else {
                    let t = Instant::now();
                    next.reset_pending(rule);
                    r.l.fork += t.elapsed();
                    StepOutcome::unfired()
                };
                expansions.push((rule, next, step));
            }
            for (rule, next, step) in expansions {
                if next.db.total_rows() > cfg.max_rows {
                    r.graph.truncation = Some(TruncationReason::Rows);
                    break 'levels;
                }
                let to = r.add_state(next);
                let e = r.graph.edges.len();
                r.graph.edges.push(EdgeInfo {
                    from: i,
                    to,
                    rule,
                    fired: step.fired,
                    rolled_back: step.rolled_back,
                    observables: step.observables,
                    ops: step.ops,
                });
                r.graph.states[i].out_edges.push(e);
            }
        }
    }
    let Replay {
        graph,
        index,
        concrete,
        mut l,
        ..
    } = r;
    let t = Instant::now();
    drop(concrete);
    drop(index);
    l.drop += t.elapsed();
    l.states = graph.states.len() as u64;
    l.edges = graph.edges.len() as u64;
    Ok((graph, l))
}

/// One explore through every route the traced run compares: the replay
/// (which must equal `explore`'s graph), plain `explore`, and the traced
/// explore the server runs (whose extra cost is the decision log).
pub struct ExploreTrace {
    pub layers: ExploreLayers,
    pub explore: Duration,
    pub traced: Duration,
    pub choice_points: usize,
}

/// Runs [`ExploreTrace`]'s three routes; `Err` when the replay's graph
/// differs from `explore`'s (the trace would then be measuring some other
/// computation, so the traced run aborts).
pub fn trace_explore(
    rules: &RuleSet,
    db: &Database,
    actions: &[Action],
) -> Result<ExploreTrace, String> {
    let cfg = Budget::default();
    let mode = EvalMode::default();
    let (replayed, layers) =
        replay_explore(rules, db, actions, &cfg, mode).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let g = explore_with_mode(rules, db, actions, &cfg, mode).map_err(|e| e.to_string())?;
    let explore = t.elapsed();
    let t = Instant::now();
    let (_, log) =
        explore_traced_with_mode(rules, db, actions, &cfg, mode).map_err(|e| e.to_string())?;
    let traced = t.elapsed();
    if replayed != g {
        return Err("traced replay built a different ExecGraph than explore".into());
    }
    Ok(ExploreTrace {
        layers,
        explore,
        traced,
        choice_points: log.ambiguous(),
    })
}

/// How a rule's compiled condition evaluates, from the public plan fields:
/// a hash-join probe, a vectorized single-source filter, or row-at-a-time
/// (including interpreter fallback).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CondKind {
    HashJoin,
    VectorPushdown,
    RowOrInterp,
}

pub fn cond_kinds(rules: &RuleSet) -> Vec<CondKind> {
    use starling_sql::plan::CondPlan;
    rules
        .rules()
        .iter()
        .filter_map(|r| r.plan.condition.as_ref())
        .map(|c| match c {
            CondPlan::Interp(_) => CondKind::RowOrInterp,
            CondPlan::Compiled { pred, .. } => {
                // `SourcePlan` fields are public but nested inside the
                // predicate's subquery plans; their derived rendering
                // names each one.
                let text = format!("{pred:?}");
                if text.contains("join: Some(") {
                    CondKind::HashJoin
                } else if text.contains("vpushed: [") && !text.contains("vpushed: []") {
                    CondKind::VectorPushdown
                } else {
                    CondKind::RowOrInterp
                }
            }
        })
        .collect()
}

/// Parse and compile cost of a load script: `(parse, compile, bytes)`.
pub fn parse_compile(script: &str) -> Result<(Duration, Duration, usize), String> {
    let t = Instant::now();
    let stmts = starling_sql::parse_script(script).map_err(|e| e.to_string())?;
    let parse = t.elapsed();
    drop(stmts);
    let loaded = starling_analysis::load_script(script).map_err(|e| e.to_string())?;
    let t = Instant::now();
    RuleSet::compile(&loaded.defs, loaded.db.catalog()).map_err(|e| e.to_string())?;
    Ok((parse, t.elapsed(), script.len()))
}
