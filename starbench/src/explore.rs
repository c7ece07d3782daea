//! `explore_states`: one connection sends `explore` requests over a pool
//! of seeded §5 power-network designs. State-space machinery (fork,
//! digest, teardown) dominates; conditions barely matter.

use starling_analysis::loader::{load_script, LoadedScript};
use starling_analysis::report::explore_json;
use starling_engine::{explore, Budget};
use starling_server::{ScriptCache, ServerSession};
use starling_sql::ast::{Action, Statement};
use starling_sql::json::Json;

use crate::gen::{self, Design};
use crate::layers::{record_plans, record_scripts, record_server, Layers, ServerUse};
use crate::trace::{self, ExploreTrace};
use crate::util::{self, load_req, median, ms, pings, timed, Conn, ServerProc};
use crate::{Ctx, EndToEnd, Report, Segment, Tally};

/// In-process passes over the pool in a traced run.
const TRACE_PASSES: usize = 3;

/// One probe with its in-process reference answer.
pub struct Reference {
    pub loaded: LoadedScript,
    pub actions: Vec<Action>,
    /// The server's exact response line for the probe.
    pub expected: String,
    pub states: usize,
}

/// Parses a DML-only probe into the user transition's actions.
pub fn probe_actions(sql: &str) -> Result<Vec<Action>, String> {
    starling_sql::parse_script(sql)
        .map_err(|e| e.to_string())?
        .into_iter()
        .map(|s| match s {
            Statement::Dml(a) => Ok(a),
            other => Err(format!("probe is not DML: {other:?}")),
        })
        .collect()
}

/// The in-process `explore` of `probe` over a loaded program.
pub fn reference(loaded: LoadedScript, probe: &str) -> Result<Reference, String> {
    let actions = probe_actions(probe)?;
    let cfg = Budget::default();
    let g = explore(&loaded.rules, &loaded.db, &actions, &cfg).map_err(|e| e.to_string())?;
    Ok(Reference {
        expected: util::ok_line(explore_json(&g, &cfg)),
        states: g.states.len(),
        loaded,
        actions,
    })
}

pub fn explore_req(probe: &str) -> String {
    Json::obj([("op", Json::from("explore")), ("sql", Json::from(probe))]).to_string()
}

/// A server ready to measure: every design loaded and explored once.
struct Live {
    server: ServerProc,
    conn: Conn,
    /// `load` by digest, per design.
    switch: Vec<String>,
}

fn setup(
    ctx: &Ctx,
    designs: &[Design],
    refs: &[Reference],
    tally: &mut Tally,
) -> Result<Live, String> {
    let server = ServerProc::spawn(&ctx.server_bin, None)?;
    let mut conn = server.connect()?;
    let mut switch = Vec::new();
    for d in designs {
        let r = conn.ok(&load_req(&d.script))?;
        let digest = r
            .get("script_digest")
            .and_then(Json::as_str)
            .ok_or("load without script_digest")?;
        switch.push(
            Json::obj([("op", Json::from("load")), ("digest", Json::from(digest))]).to_string(),
        );
    }
    for (k, d) in designs.iter().enumerate() {
        let (resp, _) = conn.call(&switch[k])?;
        tally.op(util::is_ok(&resp));
        let (resp, _) = conn.call(&explore_req(&d.probe))?;
        tally.op(resp == refs[k].expected);
    }
    Ok(Live {
        server,
        conn,
        switch,
    })
}

/// Explore-path per-layer figures from traced explores. `rtt_p50_ms` is
/// the untraced round-trip median of the same explores.
pub fn record_explores(
    layers: &mut Layers,
    traces: &[ExploreTrace],
    execute_ms: &[f64],
    rtt_p50_ms: f64,
) {
    let per = |f: &dyn Fn(&ExploreTrace) -> f64| median(&traces.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&ExploreTrace) -> u64| traces.iter().map(f).sum::<u64>() as f64;
    layers.set("engine.state_fork_ms", per(&|t| ms(t.layers.fork)));
    layers.set("engine.state_drop_ms", per(&|t| ms(t.layers.drop)));
    layers.set("engine.state_digest_ms", per(&|t| ms(t.layers.digest)));
    layers.set("engine.triggered_ms", per(&|t| ms(t.layers.triggered)));
    layers.set("sql.cond_eval_ms", per(&|t| ms(t.layers.cond)));
    layers.set("sql.action_ms", per(&|t| ms(t.layers.action)));
    layers.set("sql.cond_evals", per(&|t| t.layers.cond_evals as f64));
    layers.set("sql.actions_fired", per(&|t| t.layers.actions_fired as f64));
    let evals = sum(&|t| t.layers.cond_evals);
    layers.set("sql.cond_true_ratio", sum(&|t| t.layers.cond_true) / evals);
    layers.set(
        "sql.cond_repeat_share",
        sum(&|t| t.layers.cond_repeats) / evals,
    );
    layers.set("engine.states", per(&|t| t.layers.states as f64));
    layers.set("engine.edges", per(&|t| t.layers.edges as f64));
    // Edges that led to an already-known state.
    let new_states = sum(&|t| t.layers.states.saturating_sub(1));
    layers.set(
        "engine.dedup_ratio",
        1.0 - new_states / sum(&|t| t.layers.edges),
    );
    layers.set("engine.trace_ms", per(&|t| ms(t.traced) - ms(t.explore)));
    layers.set("prov.choice_points", per(&|t| t.choice_points as f64));
    let exec = median(execute_ms);
    layers.set("server.execute.explore_ms", exec);
    let transport_ms = rtt_p50_ms - exec;
    layers.set("server.transport.explore_us", transport_ms * 1e3);
    let attributed = per(&|t| ms(t.layers.total())) + transport_ms;
    layers.set(
        "trace.unattributed_share.explore",
        1.0 - attributed / rtt_p50_ms,
    );
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let designs = gen::designs(ctx.seed, ctx.tiny, ctx.sizes.designs_per_class);
    let refs = designs
        .iter()
        .map(|d| {
            let loaded = load_script(&d.script).map_err(|e| e.to_string())?;
            reference(loaded, &d.probe)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let band = if ctx.tiny { gen::TINY_BAND } else { gen::BAND };
    let in_band = refs.iter().all(|r| (band.0..=band.1).contains(&r.states));
    if !in_band {
        eprintln!(
            "explore_states: state counts {:?} leave the band {band:?}",
            refs.iter().map(|r| r.states).collect::<Vec<_>>()
        );
    }

    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let mut usage = ServerUse::default();
    let explores: Vec<String> = designs.iter().map(|d| explore_req(&d.probe)).collect();
    for _ in 0..ctx.segments() {
        let (live, d) = timed(|| setup(ctx, &designs, &refs, &mut tally));
        let mut live = live?;
        e2e.setup_s.push(d.as_secs_f64());
        let seg = Segment::start(&live.server, &mut live.conn)?;
        let samples = &mut e2e.samples;
        // The warm-up left the last design loaded.
        let mut current = designs.len() - 1;
        let mut i = 0;
        while seg.elapsed() < ctx.segment_time() {
            let k = i % designs.len();
            if k != current {
                let (resp, _) = live.conn.call(&live.switch[k])?;
                tally.op(util::is_ok(&resp));
                current = k;
            }
            let (resp, rtt) = live.conn.call(&explores[k])?;
            tally.op(resp == refs[k].expected);
            samples.op_ms.push(ms(rtt));
            pings(&mut live.conn, &mut samples.ping_us, &mut tally)?;
            i += 1;
        }
        seg.finish(&live.server, &mut live.conn, &mut e2e, &mut usage)?;
    }

    let mut layers = Layers::new();
    if ctx.trace {
        record_server(&mut layers, &usage);
        let scripts: Vec<&str> = designs.iter().map(|d| d.script.as_str()).collect();
        record_scripts(&mut layers, &scripts)?;
        // The designs differ in data only; they share one rule program.
        record_plans(&mut layers, &[&refs[0].loaded.rules]);
        let cache = ScriptCache::new();
        let (mut traces, mut execute, mut encode, mut decode, mut kb) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let passes = if ctx.tiny { 1 } else { TRACE_PASSES };
        for _ in 0..passes {
            for (d, r) in designs.iter().zip(&refs) {
                let mut s = ServerSession::new();
                s.handle_op("load", &load_req(&d.script), &cache)
                    .map_err(|e| e.1)?;
                let request = Json::parse(&explore_req(&d.probe)).map_err(|e| e.to_string())?;
                let (res, t) = timed(|| s.handle_op("explore", &request, &cache));
                let res = res.map_err(|e| e.1)?;
                execute.push(ms(t));
                let (line, t) = timed(|| util::ok_line(res));
                encode.push(ms(t));
                tally.op(line == r.expected);
                let (parsed, t) = timed(|| Json::parse(&line));
                parsed.map_err(|e| e.to_string())?;
                decode.push(ms(t));
                kb.push(line.len() as f64 / 1024.0);
                traces.push(trace::trace_explore(
                    &r.loaded.rules,
                    &r.loaded.db,
                    &r.actions,
                )?);
            }
        }
        record_explores(&mut layers, &traces, &execute, median(&e2e.samples.op_ms));
        layers.set("sql.json_encode_ms.explore", median(&encode));
        layers.set("sql.json_decode_ms.explore", median(&decode));
        layers.set("server.response_kb.explore", median(&kb));
    }

    Ok(Report {
        tally,
        checks_ok: in_band,
        e2e,
        layers,
        record: vec![
            ("designs", Json::from(designs.len())),
            (
                "design_states",
                Json::arr(refs.iter().map(|r| Json::from(r.states))),
            ),
            (
                "state_band",
                Json::arr([Json::from(band.0), Json::from(band.1)]),
            ),
            (
                "server_flags",
                Json::from(util::server_flags(None).join(" ")),
            ),
        ],
    })
}
