//! `durable_mix`: durable writes beside reads on one server started with
//! `--data-dir` and `--sync always`.
//!
//! * Writer connection: `exec` single-row updates by seeded key on a
//!   persisted ~20k-row table; an audit rule writes a fixed-size log, so
//!   table sizes stay constant for the whole run.
//! * Reader connection: condition-heavy `explore` probes over a separate
//!   program with a 100k-row reference table that never changes, each
//!   followed by `ping`s at a fixed ratio.
//!
//! After the timed phase the server is killed (SIGKILL), restarted and
//! the store re-attached; the recovered digest must equal the digest of
//! the last acknowledged commit.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use starling_analysis::loader::load_script;
use starling_engine::{FirstEligible, Session};
use starling_server::{DurableRoot, ScriptCache, ServerSession};
use starling_sql::json::Json;
use starling_storage::wal::{CommitDelta, WalStore};
use starling_storage::{SyncPolicy, Value};

use crate::explore::{self, explore_req, record_explores, Reference};
use crate::gen;
use crate::layers::{record_plans, record_scripts, record_server, Layers, ServerUse};
use crate::trace;
use crate::util::{
    self, file_len, load_req, median, ms, pct, pings, timed, us, Conn, Rng, ServerProc,
};
use crate::{Ctx, EndToEnd, Report, Segment, Tally};

/// The writer's persisted store.
const STORE: &str = "bank";

/// Commits per setup, before measuring.
const WARM_COMMITS: usize = 64;

/// Kill/restart/re-attach cycles after the timed phase.
const RECOVERIES: usize = 3;

/// Commits replayed in-process by a traced run: two snapshot intervals.
const TRACE_COMMITS: usize = 128;

/// The server's snapshot interval (commits per snapshot).
const SNAPSHOT_EVERY: usize = 64;

struct Live {
    server: ServerProc,
    writer: Conn,
    reader: Conn,
    /// Digest of the last acknowledged commit.
    last_digest: String,
}

fn exec_req(sql: &str) -> String {
    Json::obj([("op", Json::from("exec")), ("sql", Json::from(sql))]).to_string()
}

/// The acknowledged digest of a successful, quiescent commit that fired
/// the audit rule once.
fn commit_digest(resp: &str) -> Option<String> {
    let result = util::result_of(resp).ok()?;
    let run = result.get("run")?;
    if run.get("outcome")?.as_str()? != "quiescent" || run.get("fired")?.as_i64()? != 1 {
        return None;
    }
    Some(result.get("digest")?.as_str()?.to_owned())
}

/// A commit from the writer; `None` when it failed or answered wrongly.
fn commit(conn: &mut Conn, sql: &str) -> Result<(Option<String>, Duration), String> {
    let (resp, rtt) = conn.call(&exec_req(sql))?;
    Ok((commit_digest(&resp), rtt))
}

fn setup(
    ctx: &Ctx,
    dir: &Path,
    writer_script: &str,
    reader_script: &str,
    refs: &[Reference],
    probes: &[String],
    tally: &mut Tally,
) -> Result<Live, String> {
    let server = ServerProc::spawn(&ctx.server_bin, Some(dir))?;
    let mut writer = server.connect()?;
    let mut reader = server.connect()?;
    let mut load = load_req(writer_script);
    if let Json::Obj(fields) = &mut load {
        fields.push(("persist".into(), Json::from(STORE)));
    }
    writer.ok(&load)?;
    reader.ok(&load_req(reader_script))?;
    let mut rng = Rng::new(ctx.seed ^ 0x3a17);
    let mut last_digest = String::new();
    for _ in 0..WARM_COMMITS {
        let (d, _) = commit(
            &mut writer,
            &gen::writer_update(&mut rng, ctx.sizes.account_rows),
        )?;
        tally.op(d.is_some());
        last_digest = d.unwrap_or_default();
    }
    for (p, r) in probes.iter().zip(refs) {
        let (resp, _) = reader.call(&explore_req(p))?;
        tally.op(resp == r.expected);
    }
    Ok(Live {
        server,
        writer,
        reader,
        last_digest,
    })
}

/// What one measured segment's two connections saw.
struct Measured {
    commit_ms: Vec<f64>,
    explore_ms: Vec<f64>,
    ping_us: Vec<f64>,
    tally: Tally,
    /// Digest of the last acknowledged commit.
    last_digest: String,
}

/// The timed phase of one segment: the writer commits and the reader
/// explores and pings, each on its own thread, until the segment ends.
fn measure(
    ctx: &Ctx,
    live: &mut Live,
    probes: &[String],
    refs: &[Reference],
) -> Result<Measured, String> {
    let deadline = Instant::now() + ctx.segment_time();
    let rows = ctx.sizes.account_rows;
    let seed = ctx.seed;
    let (writer, reader) = (&mut live.writer, &mut live.reader);
    let last = live.last_digest.clone();
    let (w, r) = std::thread::scope(|s| {
        let w = s.spawn(move || -> Result<(Vec<f64>, Tally, String), String> {
            let mut rng = Rng::new(seed ^ 0x3a17 ^ 0xffff);
            let (mut rtts, mut t, mut last) = (Vec::new(), Tally::default(), last);
            while Instant::now() < deadline {
                let (d, rtt) = commit(writer, &gen::writer_update(&mut rng, rows))?;
                t.op(d.is_some());
                rtts.push(ms(rtt));
                if let Some(d) = d {
                    last = d;
                }
            }
            Ok((rtts, t, last))
        });
        let r = s.spawn(move || -> Result<(Vec<f64>, Vec<f64>, Tally), String> {
            let (mut rtts, mut ping_us, mut t) = (Vec::new(), Vec::new(), Tally::default());
            let mut i = 0;
            while Instant::now() < deadline {
                let k = i % probes.len();
                let (resp, rtt) = reader.call(&explore_req(&probes[k]))?;
                t.op(resp == refs[k].expected);
                rtts.push(ms(rtt));
                pings(reader, &mut ping_us, &mut t)?;
                i += 1;
            }
            Ok((rtts, ping_us, t))
        });
        (
            w.join().expect("writer thread"),
            r.join().expect("reader thread"),
        )
    });
    let (commit_ms, mut tally, last_digest) = w?;
    let (explore_ms, ping_us, rt) = r?;
    tally.add(rt);
    Ok(Measured {
        commit_ms,
        explore_ms,
        ping_us,
        tally,
        last_digest,
    })
}

/// Restarts the server on `dir` and re-attaches the store; returns the
/// time until the attach answered and whether it recovered `want`.
fn recover(ctx: &Ctx, dir: &Path, want: &str) -> Result<(Duration, bool), String> {
    let t = Instant::now();
    let server = ServerProc::spawn(&ctx.server_bin, Some(dir))?;
    let mut conn = server.connect()?;
    let (resp, _) = conn.call(
        &Json::obj([("op", Json::from("load")), ("persist", Json::from(STORE))]).to_string(),
    )?;
    let took = t.elapsed();
    let ok = util::result_of(&resp).is_ok_and(|r| {
        r.get("recovered") == Some(&Json::Bool(true))
            && r.get("digest").and_then(Json::as_str) == Some(want)
    });
    Ok((took, ok))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let sizes = ctx.sizes;
    let writer_script = gen::writer_script(sizes.account_rows);
    let reader_script = gen::reader_script(sizes.ref_rows);
    let probes = gen::reader_probes(ctx.seed, sizes.ref_rows, sizes.probes);
    let reader_loaded = load_script(&reader_script).map_err(|e| e.to_string())?;
    let refs = probes
        .iter()
        .map(|p| explore::reference(reader_loaded.clone(), p))
        .collect::<Result<Vec<_>, String>>()?;

    let mut tally = Tally::default();
    let mut e2e = EndToEnd::default();
    let mut usage = ServerUse::default();
    let (mut explore_ms, mut drift) = (Vec::new(), Vec::new());
    let (mut dir, mut last_digest) = (ctx.scratch.clone(), String::new());
    for segment in 0..ctx.segments() {
        dir = util::fresh_dir(&ctx.scratch, &format!("data-{segment}"))?;
        let (live, d) = timed(|| {
            setup(
                ctx,
                &dir,
                &writer_script,
                &reader_script,
                &refs,
                &probes,
                &mut tally,
            )
        });
        let mut live = live?;
        e2e.setup_s.push(d.as_secs_f64());
        let seg = Segment::start(&live.server, &mut live.writer)?;
        let m = measure(ctx, &mut live, &probes, &refs)?;
        seg.finish(&live.server, &mut live.writer, &mut e2e, &mut usage)?;
        drop(live);
        tally.add(m.tally);
        let decile = m.commit_ms.len() / 10;
        if decile > 0 {
            let first = median(&m.commit_ms[..decile]);
            let last = median(&m.commit_ms[m.commit_ms.len() - decile..]);
            drift.push(last / first);
        }
        e2e.samples.op_ms.extend(m.commit_ms);
        e2e.samples.ping_us.extend(m.ping_us);
        explore_ms.extend(m.explore_ms);
        last_digest = m.last_digest;
    }

    let mut recovery_ms = Vec::new();
    let mut recovered = true;
    for _ in 0..RECOVERIES {
        let (took, ok) = recover(ctx, &dir, &last_digest)?;
        recovery_ms.push(ms(took));
        recovered &= ok;
        tally.op(ok);
    }
    if !recovered {
        eprintln!("durable_mix: recovery did not reproduce the last acknowledged digest");
    }

    let mut layers = Layers::new();
    if ctx.trace {
        record_server(&mut layers, &usage);
        record_scripts(&mut layers, &[&writer_script, &reader_script])?;
        let writer_loaded = load_script(&writer_script).map_err(|e| e.to_string())?;
        record_plans(&mut layers, &[&writer_loaded.rules, &reader_loaded.rules]);
        layers.set("storage.commit_drift", median(&drift));
        layers.set("mix.explore_p50_ms", median(&explore_ms));
        layers.set("mix.explore_p95_ms", pct(&explore_ms, 0.95));
        layers.set("mix.commit_p99_ms", pct(&e2e.samples.op_ms, 0.99));
        layers.set("mix.recovery_ms", median(&recovery_ms));
        let store = dir.join(STORE);
        layers.set(
            "storage.snapshot_kb",
            file_len(&store.join("snapshot.bin")) as f64 / 1024.0,
        );
        let (opened, t) = timed(|| WalStore::open(&store, SyncPolicy::Always));
        opened.map_err(|e| e.to_string())?;
        layers.set("storage.recover_open_ms", ms(t));

        let cache = ScriptCache::new();
        let (mut traces, mut execute) = (Vec::new(), Vec::new());
        for (p, r) in probes.iter().zip(&refs) {
            let mut s = ServerSession::new();
            s.handle_op("load", &load_req(&reader_script), &cache)
                .map_err(|e| e.1)?;
            let request = Json::parse(&explore_req(p)).map_err(|e| e.to_string())?;
            let (res, t) = timed(|| s.handle_op("explore", &request, &cache));
            tally.op(res.map(util::ok_line).is_ok_and(|l| l == r.expected));
            execute.push(ms(t));
            traces.push(trace::trace_explore(
                &r.loaded.rules,
                &r.loaded.db,
                &r.actions,
            )?);
        }
        record_explores(&mut layers, &traces, &execute, median(&explore_ms));
        trace_commits(ctx, &mut layers, &writer_script, median(&e2e.samples.op_ms))?;
    }

    Ok(Report {
        tally,
        checks_ok: recovered,
        e2e,
        layers,
        record: vec![
            ("account_rows", Json::from(sizes.account_rows)),
            ("ref_rows", Json::from(sizes.ref_rows)),
            ("probes", Json::from(sizes.probes)),
            ("audit_slots", Json::from(gen::AUDIT_SLOTS)),
            ("explores", Json::from(explore_ms.len())),
            ("flush_policy", Json::from("sync always: fsync per commit")),
            ("snapshot_every", Json::from(SNAPSHOT_EVERY)),
            (
                "server_flags",
                Json::from(util::server_flags(Some(Path::new("<data-dir>"))).join(" ")),
            ),
        ],
    })
}

/// Replays writer commits in process: through a durable `ServerSession`
/// (execute time, response size), then layer by layer through `Session`,
/// `CommitDelta` and `WalStore` exactly as a durable commit runs them.
fn trace_commits(
    ctx: &Ctx,
    layers: &mut Layers,
    writer_script: &str,
    rtt_p50_ms: f64,
) -> Result<(), String> {
    let rows = ctx.sizes.account_rows;
    let updates: Vec<String> = {
        let mut rng = Rng::new(ctx.seed ^ 0x3a17 ^ 0xffff);
        (0..TRACE_COMMITS)
            .map(|_| gen::writer_update(&mut rng, rows))
            .collect()
    };

    let cache = ScriptCache::new();
    let root = util::fresh_dir(&ctx.scratch, "trace-server")?;
    let mut session = ServerSession::new();
    session.set_durable_root(Some(Arc::new(DurableRoot::new(root, SyncPolicy::Always))));
    let mut load = load_req(writer_script);
    if let Json::Obj(fields) = &mut load {
        fields.push(("persist".into(), Json::from(STORE)));
    }
    session.handle_op("load", &load, &cache).map_err(|e| e.1)?;
    let (mut execute, mut kb) = (Vec::new(), Vec::new());
    for u in &updates {
        let request = Json::parse(&exec_req(u)).map_err(|e| e.to_string())?;
        let (res, t) = timed(|| session.handle_op("exec", &request, &cache));
        execute.push(ms(t));
        kb.push(util::ok_line(res.map_err(|e| e.1)?).len() as f64 / 1024.0);
    }
    drop(session);

    let loaded = load_script(writer_script).map_err(|e| e.to_string())?;
    let rules_text: String = loaded.defs.iter().map(|d| format!("{d};\n")).collect();
    let mut s = Session::restore(
        loaded.db.clone(),
        loaded.defs.clone(),
        Some(loaded.rules.clone()),
        loaded.directives.clone(),
    );
    let dir = util::fresh_dir(&ctx.scratch, "trace-wal")?;
    let (mut store, _) = WalStore::open(&dir, SyncPolicy::Batch).map_err(|e| e.to_string())?;
    let wal = dir.join("wal.log");
    let mut base = s.db().clone();
    let mut v: [Vec<f64>; 9] = Default::default();
    let [copy, script, assert, diff, append, fsync, snap, bytes, attributed] = &mut v;
    let mut considerations = Vec::new();
    for (k, u) in updates.iter().enumerate() {
        let (mut probe, t) = timed(|| base.clone());
        let (res, t2) = timed(|| {
            probe.insert(
                "account",
                vec![Value::Int(rows as i64 + k as i64), Value::Int(0)],
            )
        });
        res.map_err(|e| e.to_string())?;
        copy.push(ms(t + t2));
        drop(probe);

        let (res, t_script) = timed(|| s.execute_script(u));
        res.map_err(|e| e.to_string())?;
        let (run, t_assert) = timed(|| s.commit(&mut FirstEligible));
        considerations.push(run.map_err(|e| e.to_string())?.considerations.len() as f64);
        let (mut delta, t_diff) = timed(|| CommitDelta::diff(&base, s.db()));
        let len0 = file_len(&wal);
        let (res, t_append) = timed(|| store.append_commit(&mut delta));
        res.map_err(|e| e.to_string())?;
        let (res, t_sync) = timed(|| store.sync_now());
        res.map_err(|e| e.to_string())?;
        bytes.push(file_len(&wal).saturating_sub(len0) as f64);
        base = s.db().clone();
        let mut t_snap = Duration::ZERO;
        if (k + 1) % SNAPSHOT_EVERY == 0 {
            let (res, t) = timed(|| store.snapshot(&base, &rules_text));
            res.map_err(|e| e.to_string())?;
            snap.push(ms(t));
            t_snap = t;
        }
        script.push(ms(t_script));
        assert.push(ms(t_assert));
        diff.push(ms(t_diff));
        append.push(us(t_append));
        fsync.push(us(t_sync));
        attributed.push(ms(t_script
            + t_assert
            + t_diff
            + t_append
            + t_sync
            + t_snap));
    }
    let exec = median(&execute);
    let transport = rtt_p50_ms - exec;
    layers.set("server.execute.exec_ms", exec);
    layers.set("server.transport.exec_us", transport * 1e3);
    layers.set("server.response_kb.exec", median(&kb));
    layers.set("storage.table_copy_ms", median(copy));
    layers.set("engine.exec_script_ms", median(script));
    layers.set("engine.assert_rules_ms", median(assert));
    layers.set("engine.considerations", median(&considerations));
    layers.set("storage.delta_diff_ms", median(diff));
    layers.set("storage.wal_append_us", median(append));
    layers.set("storage.fsync_us", median(fsync));
    layers.set("storage.snapshot_ms", median(snap));
    layers.set("storage.snapshots", snap.len() as f64);
    layers.set("storage.wal_bytes_per_commit", median(bytes));
    layers.set(
        "trace.unattributed_share.exec",
        1.0 - (median(attributed) + transport) / rtt_p50_ms,
    );
    Ok(())
}
