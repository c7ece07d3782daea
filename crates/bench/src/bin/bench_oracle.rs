//! Oracle throughput harness: measures exhaustive execution-graph
//! exploration over the corpus, the case studies, and the state-heavy
//! stress workload — plus the static-analysis scale families — and records
//! the numbers in `BENCH_oracle.json` so the perf trajectory is tracked
//! across PRs.
//!
//! Usage:
//!
//! ```text
//! bench_oracle [--smoke] [--label NAME] [--out PATH] [--filter SUBSTR] [--iters N]
//! ```
//!
//! * `--smoke` — one exploration per case (CI keep-alive mode; numbers are
//!   still recorded but labelled `smoke`);
//! * `--label` — the entry label stored in the JSON (e.g. `pre-PR`);
//! * `--out` — output path (default `BENCH_oracle.json`); the file holds a
//!   JSON array and each run **appends** one entry, preserving history;
//! * `--filter` — only run cases whose name contains the substring
//!   (`--filter scale` runs just the large-table family; skipped cases are
//!   never even built, so a filtered run avoids the 1M-row table setup);
//! * `--iters` — cap the measured iterations per case (overrides the
//!   smoke/full default; the 1.5 s time target still applies).
//!
//! ## The analysis families
//!
//! `analysis/*` measures the §6.4 interactive loop on fuzz-generated
//! programs of 1k–10k rules: one *single-rule refinement step* (a commute
//! certification toggle, a priority edit, or an add/drop of one rule)
//! followed by a re-analyze on a warm [`IncrementalAnalysis`].
//! `analysis-scratch/*` measures the same reports computed cold (a fresh
//! analyzer per iteration) — the from-scratch baseline the incremental
//! path is judged against, with `cold_10k_seq` additionally pinning the
//! sequential sweep so the parallel speedup on `cold_10k` is visible.
//! For these cases the JSON fields are reinterpreted: `states` is the rule
//! count, `edges` is `confluence.pairs_checked`, and `ms_per_explore` is
//! milliseconds per refine-and-analyze step.

use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use starling_analysis::{Certifications, IncrementalAnalysis};
use starling_engine::{
    explore, explore_traced_with_mode, EvalMode, ExecGraph, ExploreConfig, RuleSet,
};
use starling_fuzz::{generate, GenConfig};
use starling_sql::ast::{Action, Statement};
use starling_sql::parse_statement;
use starling_storage::{Database, Value};
use starling_workloads::{audit, cond_stress, corpus, power_network, scale, stress, CorpusEntry};

/// One benchmark case: a compiled rule set, an initial database, a user
/// transition, and the exploration budget.
struct Case {
    name: String,
    rules: RuleSet,
    db: Database,
    actions: Vec<Action>,
    cfg: ExploreConfig,
}

/// Measured numbers for one case.
struct Measurement {
    name: String,
    states: usize,
    edges: usize,
    iters: u32,
    total: Duration,
}

impl Measurement {
    fn ms_per_explore(&self) -> f64 {
        self.total.as_secs_f64() * 1e3 / f64::from(self.iters)
    }

    fn states_per_sec(&self) -> f64 {
        (self.states as f64) * f64::from(self.iters) / self.total.as_secs_f64()
    }
}

fn corpus_cases() -> Vec<Case> {
    // Mirrors `bench_corpus_exploration` in benches/oracle.rs: the
    // terminating corpus entries under the same budget and seeding.
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000);
    let mut cases = Vec::new();
    for entry in corpus() {
        if !matches!(
            entry.name,
            "independent" | "cascade_ordered" | "unordered_writers" | "ordered_observables"
        ) {
            continue;
        }
        let rules = entry.compile();
        let mut db = Database::new();
        for schema in CorpusEntry::catalog().tables() {
            db.create_table(schema.clone()).unwrap();
        }
        db.insert("t", vec![Value::Int(0)]).unwrap();
        db.insert("u", vec![Value::Int(0)]).unwrap();
        let Statement::Dml(action) = parse_statement("insert into t values (1)").unwrap() else {
            unreachable!()
        };
        cases.push(Case {
            name: format!("corpus/{}", entry.name),
            rules,
            db,
            actions: vec![action],
            cfg,
        });
    }
    cases
}

fn case_study_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for w in [power_network::workload(), audit::workload()] {
        let (db, rules) = w.compile().unwrap();
        let actions = w.user_actions().unwrap();
        cases.push(Case {
            name: format!("case_study/{}", w.name),
            rules,
            db,
            actions,
            cfg: ExploreConfig::default(),
        });
    }
    cases
}

fn cond_cases() -> Vec<Case> {
    // Condition-heavy cases: small graphs whose cost is dominated by rule
    // condition evaluation over `cond_stress::BIG_ROWS` reference rows.
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000);
    vec![
        Case {
            name: "cond/eq_join".to_owned(),
            rules: cond_stress::join_rules(),
            db: cond_stress::database(),
            actions: cond_stress::user_actions(),
            cfg,
        },
        Case {
            name: "cond/scan_filter".to_owned(),
            rules: cond_stress::filter_rules(),
            db: cond_stress::database(),
            actions: cond_stress::user_actions(),
            cfg,
        },
    ]
}

fn stress_case() -> Case {
    Case {
        name: "stress/fan_chain".to_owned(),
        rules: stress::compile(),
        db: stress::database(),
        actions: stress::user_actions(),
        cfg: ExploreConfig::default()
            .with_max_states(200_000)
            .with_max_paths(1_000_000),
    }
}

/// What a spec builds: an exploration case, or a self-contained operation
/// (used by the analysis families) that runs one step per iteration and
/// reports its own `(states, edges)` analogs.
enum BenchCase {
    Explore(Box<Case>),
    Op {
        name: String,
        op: Box<dyn FnMut() -> (usize, usize)>,
    },
}

/// A named case whose (possibly expensive) construction is deferred until
/// after `--filter` has decided it actually runs.
struct CaseSpec {
    name: String,
    build: Box<dyn FnOnce() -> BenchCase>,
}

impl CaseSpec {
    fn eager(case: Case) -> CaseSpec {
        CaseSpec {
            name: case.name.clone(),
            build: Box::new(move || BenchCase::Explore(Box::new(case))),
        }
    }
}

/// The large-table family: `cond_stress` condition shapes over 100k- and
/// 1M-row reference tables. Built lazily — populating the 1M-row database
/// dwarfs the cost of every small case combined.
fn scale_specs() -> Vec<CaseSpec> {
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000);
    let mut specs = Vec::new();
    for (suffix, rows) in [("100k", 100_000i64), ("1m", 1_000_000)] {
        for flavor in ["filter", "join"] {
            let name = format!("scale/{flavor}_{suffix}");
            specs.push(CaseSpec {
                name: name.clone(),
                build: Box::new(move || {
                    BenchCase::Explore(Box::new(Case {
                        name,
                        rules: if flavor == "filter" {
                            scale::filter_rules(rows)
                        } else {
                            scale::join_rules(rows)
                        },
                        db: scale::database(rows),
                        actions: scale::user_actions(rows),
                        cfg,
                    }))
                }),
            });
        }
    }
    specs
}

/// The provenance family: traced counterparts of the `cond/*` shapes and
/// one `scale/*` shape. Same rules, database, transition, and budget as
/// the matching untraced case; the measured loop calls
/// [`explore_traced_with_mode`] instead of [`explore`], so the delta between
/// `prov/X` and its `cond/X` / `scale/X` twin is exactly the
/// decision-log recording overhead (the ≤5% budget of DESIGN.md §4k).
fn prov_specs() -> Vec<CaseSpec> {
    let cfg = ExploreConfig::default()
        .with_max_states(5_000)
        .with_max_paths(10_000);
    let mut specs = Vec::new();
    for flavor in ["eq_join", "scan_filter"] {
        let name = format!("prov/{flavor}");
        specs.push(CaseSpec {
            name: name.clone(),
            build: Box::new(move || {
                let rules = if flavor == "eq_join" {
                    cond_stress::join_rules()
                } else {
                    cond_stress::filter_rules()
                };
                let db = cond_stress::database();
                let actions = cond_stress::user_actions();
                BenchCase::Op {
                    name,
                    op: Box::new(move || {
                        let (g, log) = explore_traced_with_mode(
                            &rules,
                            &db,
                            &actions,
                            &cfg,
                            EvalMode::default(),
                        )
                        .expect("prov bench case explores");
                        std::hint::black_box(log.ambiguous());
                        (g.states.len(), g.edges.len())
                    }),
                }
            }),
        });
    }
    let name = "prov/filter_100k".to_owned();
    specs.push(CaseSpec {
        name: name.clone(),
        build: Box::new(move || {
            let rows = 100_000i64;
            let rules = scale::filter_rules(rows);
            let db = scale::database(rows);
            let actions = scale::user_actions(rows);
            BenchCase::Op {
                name,
                op: Box::new(move || {
                    let (g, log) =
                        explore_traced_with_mode(&rules, &db, &actions, &cfg, EvalMode::default())
                            .expect("prov bench case explores");
                    std::hint::black_box(log.ambiguous());
                    (g.states.len(), g.edges.len())
                }),
            }
        }),
    });
    specs
}

/// The pinned seed for the analysis families: the programs (and hence the
/// absolute numbers) are reproducible across machines and PRs.
const ANALYSIS_SEED: u64 = 42;

/// A fuzz-generated `n`-rule program compiled for analysis, refined the way
/// the §6.4 loop leaves it: every violating pair found by a first analyze
/// is commute-certified, so the measured state is a near-confluent set
/// whose report is small — the state an interactive session actually
/// iterates on. The last rule is stripped from every other rule's
/// `precedes` list so the add/drop case can pop and re-push it without
/// dangling priority references.
fn analysis_program(
    n: usize,
) -> (
    Vec<starling_sql::RuleDef>,
    starling_storage::Catalog,
    Certifications,
) {
    // Building a program includes a full cold analyze (for the bulk
    // certification), so share one build across the several specs of the
    // same scale; every caller gets its own clone to mutate.
    type Program = (
        Vec<starling_sql::RuleDef>,
        starling_storage::Catalog,
        Certifications,
    );
    static CACHE: std::sync::OnceLock<std::sync::Mutex<std::collections::HashMap<usize, Program>>> =
        std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let mut cache = cache.lock().expect("analysis program cache poisoned");
    cache
        .entry(n)
        .or_insert_with(|| build_analysis_program(n))
        .clone()
}

fn build_analysis_program(
    n: usize,
) -> (
    Vec<starling_sql::RuleDef>,
    starling_storage::Catalog,
    Certifications,
) {
    let case = generate(ANALYSIS_SEED, &GenConfig::scaled(n));
    let cat = case.catalog();
    let mut defs = case.defs;
    let last = defs.last().expect("scaled case has rules").name.clone();
    for d in &mut defs {
        d.precedes.retain(|p| p != &last);
    }
    let rules = RuleSet::compile(&defs, &cat).expect("scaled case compiles");
    let mut certs = Certifications::new();
    let mut warmer = IncrementalAnalysis::new();
    let first = warmer.analyze(&rules, &certs, false, &[]);
    for v in &first.confluence.violations {
        certs.certify_commute(&v.conflict.0, &v.conflict.1);
    }
    (defs, cat, certs)
}

/// One cold (from-scratch) analyze per iteration.
fn cold_spec(n: usize, tag: &str, parallel: bool) -> CaseSpec {
    let name = format!(
        "analysis-scratch/cold_{tag}{}",
        if parallel { "" } else { "_seq" }
    );
    CaseSpec {
        name: name.clone(),
        build: Box::new(move || {
            let (defs, cat, certs) = analysis_program(n);
            let rules = RuleSet::compile(&defs, &cat).expect("scaled case compiles");
            BenchCase::Op {
                name,
                op: Box::new(move || {
                    let mut analysis = if parallel {
                        IncrementalAnalysis::new()
                    } else {
                        IncrementalAnalysis::sequential()
                    };
                    let rep = analysis.analyze(&rules, &certs, false, &[]);
                    (rep.rule_count, rep.confluence.pairs_checked)
                }),
            }
        }),
    }
}

/// One warm single-rule refinement step per iteration: mutate, re-analyze
/// on a persistent analyzer. `kind` is `certify` (commute certification
/// toggled on/off), `order` (a `precedes` edge added/removed, with the
/// recompile the §6.4 loop really pays), or `adddrop` (the last rule
/// dropped/re-added, also recompiling).
fn refine_spec(n: usize, tag: &str, kind: &'static str) -> CaseSpec {
    let name = format!("analysis/{kind}_{tag}");
    CaseSpec {
        name: name.clone(),
        build: Box::new(move || {
            let (mut defs, cat, mut certs) = analysis_program(n);
            // The toggled pair must start uncertified so every iteration
            // really changes state (the bulk refinement may have hit it).
            certs.revoke_commute("r0", "r1");
            let mut rules = RuleSet::compile(&defs, &cat).expect("scaled case compiles");
            let mut analysis = IncrementalAnalysis::new();
            // Warm the memo: every measured iteration starts incremental.
            analysis.analyze(&rules, &certs, false, &[]);
            let mut on = false;
            let mut parked: Option<starling_sql::RuleDef> = None;
            BenchCase::Op {
                name,
                op: Box::new(move || {
                    on = !on;
                    match kind {
                        "certify" => {
                            if on {
                                certs.certify_commute("r0", "r1");
                            } else {
                                certs.revoke_commute("r0", "r1");
                            }
                        }
                        "order" => {
                            if on {
                                // Edges run low→high index only, so r0→r1
                                // can never form a priority cycle.
                                defs[0].precedes.push("r1".to_owned());
                            } else {
                                defs[0].precedes.pop();
                            }
                            rules = RuleSet::compile(&defs, &cat).expect("refined compile");
                        }
                        "adddrop" => {
                            match parked.take() {
                                Some(d) => defs.push(d),
                                None => parked = defs.pop(),
                            }
                            rules = RuleSet::compile(&defs, &cat).expect("refined compile");
                        }
                        other => unreachable!("unknown refine kind {other}"),
                    }
                    let rep = analysis.analyze(&rules, &certs, false, &[]);
                    (rep.rule_count, rep.confluence.pairs_checked)
                }),
            }
        }),
    }
}

/// The analysis scale families over fuzz-generated 1k/5k/10k-rule programs.
fn analysis_specs() -> Vec<CaseSpec> {
    let mut specs = Vec::new();
    for (n, tag) in [(1_000usize, "1k"), (5_000, "5k"), (10_000, "10k")] {
        specs.push(cold_spec(n, tag, true));
        for kind in ["certify", "order", "adddrop"] {
            specs.push(refine_spec(n, tag, kind));
        }
    }
    specs.push(cold_spec(10_000, "10k", false));
    specs
}

fn run_op(name: &str, mut op: Box<dyn FnMut() -> (usize, usize)>, max_iters: u32) -> Measurement {
    // Warm-up establishes the size analogs (for warm refine cases it also
    // performs the first mutation, so the timed loop is steady-state).
    let (states, edges) = op();
    let target = Duration::from_millis(1_500);
    let mut iters: u32 = 0;
    let start = Instant::now();
    while iters < max_iters {
        std::hint::black_box(op());
        iters += 1;
        if start.elapsed() >= target {
            break;
        }
    }
    Measurement {
        name: name.to_owned(),
        states,
        edges,
        iters,
        total: start.elapsed(),
    }
}

fn run_case(case: &Case, max_iters: u32) -> Measurement {
    let explore_once = || -> ExecGraph {
        explore(&case.rules, &case.db, &case.actions, &case.cfg).expect("bench case explores")
    };
    // Warm-up establishes the graph size (and pages in everything).
    let g = explore_once();
    assert!(
        !g.truncated(),
        "bench case {} truncated — budget too small to measure honestly",
        case.name
    );
    let (states, edges) = (g.states.len(), g.edges.len());

    let target = Duration::from_millis(1_500);
    let mut iters: u32 = 0;
    let start = Instant::now();
    while iters < max_iters {
        std::hint::black_box(explore_once());
        iters += 1;
        if start.elapsed() >= target {
            break;
        }
    }
    Measurement {
        name: case.name.clone(),
        states,
        edges,
        iters,
        total: start.elapsed(),
    }
}

/// Renders one history entry as a JSON object.
fn entry_json(label: &str, smoke: bool, measurements: &[Measurement]) -> String {
    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut s = String::new();
    let _ = writeln!(s, "  {{");
    let _ = writeln!(s, "    \"label\": \"{}\",", label.replace('"', "'"));
    let _ = writeln!(s, "    \"unix_time\": {epoch},");
    let _ = writeln!(
        s,
        "    \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "    \"cases\": [");
    for (i, m) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"states\": {}, \"edges\": {}, \"iters\": {}, \
             \"wall_s\": {:.6}, \"ms_per_explore\": {:.4}, \"states_per_s\": {:.1}}}{sep}",
            m.name,
            m.states,
            m.edges,
            m.iters,
            m.total.as_secs_f64(),
            m.ms_per_explore(),
            m.states_per_sec(),
        );
    }
    let _ = writeln!(s, "    ]");
    let _ = write!(s, "  }}");
    s
}

/// Appends `entry` to the JSON array in `path` (creating the file if
/// needed). The file is a plain array; history accumulates.
fn append_entry(path: &str, entry: &str) -> std::io::Result<()> {
    let body = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let Some(without_close) = trimmed.strip_suffix(']') else {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{path} does not end in ']' — not a JSON array"),
                ));
            };
            let without_close = without_close.trim_end();
            if without_close == "[" {
                format!("[\n{entry}\n]\n")
            } else {
                format!("{without_close},\n{entry}\n]\n")
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => format!("[\n{entry}\n]\n"),
        Err(e) => return Err(e),
    };
    std::fs::write(path, body)
}

fn main() {
    let mut smoke = false;
    let mut label = "current".to_owned();
    let mut out = "BENCH_oracle.json".to_owned();
    let mut filter = String::new();
    let mut iters: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--label" => label = args.next().expect("--label needs a value"),
            "--out" => out = args.next().expect("--out needs a value"),
            "--filter" => filter = args.next().expect("--filter needs a value"),
            "--iters" => {
                iters = Some(
                    args.next()
                        .expect("--iters needs a value")
                        .parse()
                        .expect("--iters needs a positive integer"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_oracle [--smoke] [--label NAME] [--out PATH] \
                     [--filter SUBSTR] [--iters N]"
                );
                std::process::exit(2);
            }
        }
    }
    let max_iters = iters.unwrap_or(if smoke { 1 } else { 200_000 }).max(1);

    let mut specs: Vec<CaseSpec> = corpus_cases()
        .into_iter()
        .chain(case_study_cases())
        .chain(cond_cases())
        .chain([stress_case()])
        .map(CaseSpec::eager)
        .collect();
    specs.extend(scale_specs());
    specs.extend(prov_specs());
    specs.extend(analysis_specs());
    let selected: Vec<CaseSpec> = specs
        .into_iter()
        .filter(|s| s.name.contains(&filter))
        .collect();
    if selected.is_empty() {
        eprintln!("--filter {filter:?} matches no bench case");
        std::process::exit(2);
    }

    let mut measurements = Vec::new();
    for spec in selected {
        let m = match (spec.build)() {
            BenchCase::Explore(case) => run_case(&case, max_iters),
            BenchCase::Op { name, op } => run_op(&name, op, max_iters),
        };
        println!(
            "{:<28} {:>7} states {:>7} edges  {:>5} iters  {:>10.3} ms/explore  {:>12.0} states/s",
            m.name,
            m.states,
            m.edges,
            m.iters,
            m.ms_per_explore(),
            m.states_per_sec(),
        );
        measurements.push(m);
    }

    let entry = entry_json(&label, smoke, &measurements);
    if let Err(e) = append_entry(&out, &entry) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("recorded entry \"{label}\" in {out}");
}
