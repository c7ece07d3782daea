//! `refine_loop`: one connection runs the §6.4 certify/order/re-analyze
//! loop on a ~1k-rule `starling_fuzz` program. It exercises `core`'s
//! incremental pair store and the report's encoding and transport, with
//! no explore and no storage writes.

use std::time::{Duration, Instant};

use starling_analysis::{Certifications, IncrementalAnalysis};
use starling_engine::RuleSet;
use starling_server::{ScriptCache, ServerSession};
use starling_sql::json::Json;
use starling_sql::RuleDef;

use crate::gen::{self, Pair, ORDER_EVERY};
use crate::layers::{record_plans, record_scripts, record_server, Layers, ServerUse};
use crate::util::{self, load_req, median, ms, pings, timed, Conn, ServerProc};
use crate::{Ctx, EndToEnd, Report, Segment, Tally};

/// Certify requests per pipelined write during setup.
const BULK_BATCH: usize = 512;

/// Refinement steps replayed in-process by a traced run.
const TRACE_STEPS: usize = 24;

/// One refinement step: which pair, and whether it is ordered (low rule
/// index first, so no priority cycle can form) or certified to commute.
struct Step {
    pair: Pair,
    order: bool,
}

impl Step {
    /// The pair as `(higher, lower)`: the lower rule index goes first.
    fn by_index(&self) -> (&String, &String) {
        let (a, b) = &self.pair;
        if gen::rule_index(a) < gen::rule_index(b) {
            (a, b)
        } else {
            (b, a)
        }
    }

    fn request(&self) -> Json {
        let (hi, lo) = self.by_index();
        if self.order {
            Json::obj([
                ("op", Json::from("order")),
                ("higher", Json::from(hi.as_str())),
                ("lower", Json::from(lo.as_str())),
            ])
        } else {
            certify_req(hi, lo)
        }
    }

    /// Applies the step to an in-process copy of the session's program.
    fn apply(&self, defs: &mut [RuleDef], certs: &mut Certifications) {
        let (hi, lo) = self.by_index();
        if self.order {
            let def = defs
                .iter_mut()
                .find(|d| &d.name == hi)
                .expect("violating pairs name program rules");
            def.precedes.push(lo.clone());
        } else {
            certs.certify_commute(hi, lo);
        }
    }
}

fn certify_req(a: &str, b: &str) -> Json {
    Json::obj([
        ("op", Json::from("certify")),
        ("kind", Json::from("commute")),
        ("a", Json::from(a)),
        ("b", Json::from(b)),
    ])
}

const ANALYZE: &str = "{\"op\":\"analyze\"}";

struct Live {
    server: ServerProc,
    conn: Conn,
}

/// Load, cold `analyze` (checked against the in-process report), certify
/// the bulk, and one warm `analyze`.
fn setup(
    ctx: &Ctx,
    script: &str,
    cold_line: &str,
    bulk: &[Pair],
    tally: &mut Tally,
) -> Result<Live, String> {
    let server = ServerProc::spawn(&ctx.server_bin, None)?;
    let mut conn = server.connect()?;
    conn.ok(&load_req(script))?;
    let (resp, _) = conn.call(ANALYZE)?;
    tally.op(resp == cold_line);
    for chunk in bulk.chunks(BULK_BATCH) {
        let lines: Vec<String> = chunk
            .iter()
            .map(|(a, b)| certify_req(a, b).to_string())
            .collect();
        for resp in conn.pipeline(&lines)? {
            tally.op(util::is_ok(&resp));
        }
    }
    let (resp, _) = conn.call(ANALYZE)?;
    tally.op(util::is_ok(&resp));
    Ok(Live { server, conn })
}

/// The cold sequential report of the program after `steps`, as the exact
/// response line the server must have sent for its last `analyze`.
fn cold_reference(
    defs: &[RuleDef],
    catalog: &starling_storage::Catalog,
    bulk: &[Pair],
    steps: &[Step],
) -> Result<String, String> {
    let mut defs = defs.to_vec();
    let mut certs = Certifications::new();
    for (a, b) in bulk {
        certs.certify_commute(a, b);
    }
    for s in steps {
        s.apply(&mut defs, &mut certs);
    }
    let rules = RuleSet::compile(&defs, catalog).map_err(|e| e.to_string())?;
    let report = IncrementalAnalysis::sequential().analyze(&rules, &certs, false, &[]);
    Ok(util::ok_line(report.to_json()))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let prog = gen::refine_program(ctx.sizes.refine_rules);
    let rules = RuleSet::compile(&prog.defs, &prog.catalog).map_err(|e| e.to_string())?;
    let cold = IncrementalAnalysis::new().analyze(&rules, &Certifications::new(), false, &[]);
    let cold_line = util::ok_line(cold.to_json());
    // Many violations share one non-commuting pair; certifying it clears
    // them all, so the loop refines distinct pairs.
    let mut index = std::collections::HashMap::new();
    let (mut pairs, mut per_pair): (Vec<Pair>, Vec<usize>) = (Vec::new(), Vec::new());
    for v in &cold.confluence.violations {
        let (a, b) = &v.conflict;
        let i = *index
            .entry((a.min(b).clone(), a.max(b).clone()))
            .or_insert_with(|| {
                pairs.push(v.conflict.clone());
                per_pair.push(0);
                pairs.len() - 1
            });
        per_pair[i] += 1;
    }
    let violations = cold.confluence.violations.len();
    drop(cold);
    let conflict_pairs = pairs.len();
    let (bulk, tail) = gen::split_tail(ctx.seed, pairs, &per_pair, ctx.sizes.refine_tail);
    let steps: Vec<Step> = tail
        .into_iter()
        .enumerate()
        .map(|(j, pair)| Step {
            pair,
            order: j % ORDER_EVERY == ORDER_EVERY - 1,
        })
        .collect();

    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let mut usage = ServerUse::default();
    let mut final_ok = true;
    let mut stats = Json::Null;
    let mut fewest_steps = steps.len();
    for _ in 0..ctx.segments() {
        let (live, d) = timed(|| setup(ctx, &prog.script, &cold_line, &bulk, &mut tally));
        let mut live = live?;
        e2e.setup_s.push(d.as_secs_f64());
        let seg = Segment::start(&live.server, &mut live.conn)?;
        let samples = &mut e2e.samples;
        let mut last_report = String::new();
        let mut done = 0;
        while seg.elapsed() < ctx.segment_time() && done < steps.len() {
            let t = Instant::now();
            let (resp, _) = live.conn.call(&steps[done].request().to_string())?;
            tally.op(util::is_ok(&resp));
            let (resp, _) = live.conn.call(ANALYZE)?;
            samples.op_ms.push(ms(t.elapsed()));
            tally.op(util::is_ok(&resp));
            last_report = resp;
            done += 1;
            pings(&mut live.conn, &mut samples.ping_us, &mut tally)?;
        }
        stats = seg.finish(&live.server, &mut live.conn, &mut e2e, &mut usage)?;
        drop(live);
        fewest_steps = fewest_steps.min(done);
        let ok = done > 0
            && last_report == cold_reference(&prog.defs, &prog.catalog, &bulk, &steps[..done])?;
        if !ok {
            eprintln!("refine_loop: the last report differs from a cold sequential analyze");
        }
        final_ok &= ok;
    }

    let mut layers = Layers::new();
    if ctx.trace {
        record_server(&mut layers, &usage);
        record_scripts(&mut layers, &[&prog.script])?;
        record_plans(&mut layers, &[&rules]);
        let pc = |k: &str| {
            stats
                .get("session")
                .and_then(|s| s.get("pair_cache"))
                .and_then(|p| p.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        layers.set(
            "core.pair_hit_ratio",
            pc("hits") / (pc("hits") + pc("misses")),
        );
        layers.set(
            "core.incremental_sweep_share",
            pc("incremental_sweeps") / (pc("incremental_sweeps") + pc("full_sweeps")),
        );
        let replay = &steps[..fewest_steps.min(TRACE_STEPS)];
        trace_steps(&mut layers, &prog, &bulk, replay, &e2e.samples.op_ms)?;
    }

    Ok(Report {
        tally,
        checks_ok: final_ok,
        e2e,
        layers,
        record: vec![
            ("program_seed", Json::from(gen::PROGRAM_SEED as i64)),
            ("rules", Json::from(ctx.sizes.refine_rules)),
            ("cold_violations", Json::from(violations)),
            ("conflict_pairs", Json::from(conflict_pairs)),
            ("tail", Json::from(steps.len())),
            ("fewest_steps_per_segment", Json::from(fewest_steps)),
            ("order_every", Json::from(ORDER_EVERY)),
            (
                "server_flags",
                Json::from(util::server_flags(None).join(" ")),
            ),
        ],
    })
}

/// Replays the first refinement steps in process: once through a
/// `ServerSession` (execute time, encoding, decoding, response size) and
/// once straight through `IncrementalAnalysis` (analyze, report JSON, and
/// the recompile an order step pays).
fn trace_steps(
    layers: &mut Layers,
    prog: &gen::RefineProgram,
    bulk: &[Pair],
    steps: &[Step],
    rtt_ms: &[f64],
) -> Result<(), String> {
    let cache = ScriptCache::new();
    let mut session = ServerSession::new();
    let op = |s: &mut ServerSession, r: &Json| {
        let name = r.get("op").and_then(Json::as_str).unwrap_or("").to_owned();
        s.handle_op(&name, r, &cache).map_err(|e| e.1)
    };
    op(&mut session, &load_req(&prog.script))?;
    let analyze = Json::parse(ANALYZE).expect("literal");
    op(&mut session, &analyze)?;
    for (a, b) in bulk {
        op(&mut session, &certify_req(a, b))?;
    }
    op(&mut session, &analyze)?;
    let (mut execute, mut encode, mut decode, mut kb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for s in steps {
        let t = Instant::now();
        op(&mut session, &s.request())?;
        let report = op(&mut session, &analyze)?;
        execute.push(ms(t.elapsed()));
        let (line, t) = timed(|| util::ok_line(report));
        encode.push(ms(t));
        let (parsed, t) = timed(|| Json::parse(&line));
        parsed.map_err(|e| e.to_string())?;
        decode.push(ms(t));
        kb.push(line.len() as f64 / 1024.0);
    }

    let mut defs = prog.defs.clone();
    let mut certs = Certifications::new();
    for (a, b) in bulk {
        certs.certify_commute(a, b);
    }
    let mut rules = RuleSet::compile(&defs, &prog.catalog).map_err(|e| e.to_string())?;
    let mut analysis = IncrementalAnalysis::new();
    analysis.analyze(&rules, &certs, false, &[]);
    let (mut analyze_ms, mut json_ms, mut compile_ms, mut attributed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rechecked, mut violations) = (Vec::new(), Vec::new());
    for s in steps {
        s.apply(&mut defs, &mut certs);
        let mut compile = Duration::ZERO;
        if s.order {
            let (r, t) = timed(|| RuleSet::compile(&defs, &prog.catalog));
            rules = r.map_err(|e| e.to_string())?;
            compile = t;
            compile_ms.push(ms(t));
        }
        let (report, t_analyze) = timed(|| analysis.analyze(&rules, &certs, false, &[]));
        let (_, t_json) = timed(|| report.to_json().to_string());
        analyze_ms.push(ms(t_analyze));
        json_ms.push(ms(t_json));
        attributed.push(ms(compile + t_analyze + t_json));
        rechecked.push(analysis.stats().last_rechecked_pairs as f64);
        violations.push(report.confluence.violations.len() as f64);
    }

    let rtt = median(rtt_ms);
    let exec = median(&execute);
    let transport = rtt - exec;
    layers.set("server.execute.analyze_ms", exec);
    layers.set("server.transport.analyze_us", transport * 1e3);
    layers.set("server.response_kb.analyze", median(&kb));
    layers.set("sql.json_encode_ms.analyze", median(&encode));
    layers.set("sql.json_decode_ms.analyze", median(&decode));
    layers.set("sql.compile_ms", median(&compile_ms));
    layers.set("core.analyze_ms", median(&analyze_ms));
    layers.set("core.report_json_ms", median(&json_ms));
    layers.set("core.pairs_rechecked", median(&rechecked));
    layers.set("core.violations", median(&violations));
    layers.set(
        "trace.unattributed_share.analyze",
        1.0 - (median(&attributed) + transport) / rtt,
    );
    Ok(())
}
