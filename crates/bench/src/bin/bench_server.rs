//! Server load generator: measures the aggregate cost of N rule-engine
//! sessions served concurrently by `starling-server` against the same N
//! sessions run as sequential one-shot `starling explore` CLI invocations,
//! and records the numbers in `BENCH_server.json`.
//!
//! The workload is deliberately seed-heavy: every one-shot invocation pays
//! process spawn + script parse + seed execution + rule compilation before
//! doing any useful work, while the server pays them once — the shared
//! program cache hands every later session a copy-on-write snapshot and a
//! refcounted compiled rule set. The speedup measured here is that
//! amortization (the harness does not assume extra cores).
//!
//! Usage:
//!
//! ```text
//! bench_server [--smoke] [--sessions N] [--label NAME] [--out PATH]
//! bench_server --durability [--smoke] [--commits N] [--label NAME] [--out PATH]
//! bench_server --scale [--smoke] [--sessions N] [--label NAME] [--out PATH]
//! ```
//!
//! * `--smoke` — small seed and few sessions (CI keep-alive mode);
//! * `--sessions` — number of sessions (default 64, smoke default 8;
//!   scale family: default 1024, smoke default 128);
//! * `--durability` — run the durability family instead: committed
//!   transitions per second through one engine session, in-memory vs a
//!   WAL-attached store with `sync=batch` vs `sync=always` (one `fsync`
//!   per commit) — the price tag on each sync policy;
//! * `--commits N` — committed transitions per durability config
//!   (default 2000, smoke default 300);
//! * `--scale` — run the scale family instead: the pooled executor's
//!   connection-churn throughput, ping latency percentiles (p50/p95/p99)
//!   across N concurrent sessions, cheap-op p99 while a heavy exec
//!   saturates one worker, and the idle-session footprint (threads and
//!   resident memory for N parked connections);
//! * `--label` / `--out` — as in `bench_oracle`; the output file holds a
//!   JSON array and each run **appends** one entry, preserving history.
//!
//! Requires the release CLI next to this binary (`cargo build --release
//! -p starling-cli -p starling-bench`). The scale family is in-process
//! only and needs no CLI binary.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use starling_engine::{FirstEligible, Outcome, Session};
use starling_server::{raise_fd_limit, Client, ScriptCache, Server, ServerConfig};
use starling_sql::json::Json;
use starling_storage::SyncPolicy;

/// Builds the seed-heavy workload: schema, `seed_rows` seed inserts, an
/// audit rule and a capping rule, and a one-row user transition probed by
/// `explore`.
fn workload_script(seed_rows: usize) -> String {
    let mut s = String::with_capacity(seed_rows * 40 + 512);
    s.push_str("create table account (id int, balance int);\n");
    s.push_str("create table audit_log (id int, balance int);\n");
    for i in 0..seed_rows {
        let _ = writeln!(s, "insert into account values ({i}, {});", (i * 37) % 1000);
    }
    s.push_str(
        "create rule audit on account when inserted then \
           insert into audit_log select id, balance from inserted end;\n\
         create rule cap on account when inserted, updated(balance) \
           if exists (select * from account where balance > 100000) \
           then update account set balance = 100000 where balance > 100000 end;\n\
         insert into account values (999001, 55);\n",
    );
    s
}

/// The release `starling` binary, expected beside this one.
fn cli_path() -> PathBuf {
    let mut p = std::env::current_exe().expect("current_exe");
    p.pop();
    p.push("starling");
    assert!(
        p.exists(),
        "{} not found — build it first: cargo build --release -p starling-cli",
        p.display()
    );
    p
}

/// N sequential one-shot CLI invocations (spawn + parse + seed + compile +
/// explore each time). Returns total wall time.
fn run_baseline(cli: &PathBuf, script_path: &std::path::Path, sessions: usize) -> Duration {
    let start = Instant::now();
    for _ in 0..sessions {
        let out = Command::new(cli)
            .arg("explore")
            .arg(script_path)
            .args(["--max-states", "10000", "--json"])
            .output()
            .expect("spawn starling explore");
        assert!(
            out.status.success(),
            "baseline explore failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    start.elapsed()
}

/// N concurrent sessions against an in-process server: each connects,
/// loads the script (one cache miss total), explores, digests, quits.
/// Returns (total wall time, cache hits, cache misses).
fn run_server(script: &str, sessions: usize) -> (Duration, u64, u64) {
    let server = Server::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let load = Json::obj([("op", Json::from("load")), ("script", Json::from(script))]).to_string();
    // Attach-by-digest: sessions try the cheap path first and only the
    // loser(s) of the initial race upload the full script.
    let attach = Json::obj([
        ("op", Json::from("load")),
        (
            "digest",
            Json::from(format!("{:016x}", ScriptCache::digest(script))),
        ),
    ])
    .to_string();
    let explore = r#"{"op":"explore","budget":{"max_states":10000}}"#.to_owned();
    let digest = r#"{"op":"digest"}"#.to_owned();

    let start = Instant::now();
    let digests: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|_| {
                let (load, attach, explore, digest) = (&load, &attach, &explore, &digest);
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    let ok = |line: &str, c: &mut Client| {
                        let resp = c.raw_request(line).expect("request");
                        let resp = Json::parse(&resp).expect("response json");
                        assert_eq!(
                            resp.get("ok"),
                            Some(&Json::Bool(true)),
                            "error response: {resp}"
                        );
                        resp.get("result").cloned().unwrap_or(Json::Null)
                    };
                    let attached = c.raw_request(attach).expect("request");
                    if !attached.contains("\"ok\":true") {
                        ok(load, &mut c);
                    }
                    ok(explore, &mut c);
                    let d = ok(digest, &mut c)
                        .get("digest")
                        .and_then(Json::as_str)
                        .expect("digest string")
                        .to_owned();
                    c.quit().expect("quit");
                    d
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session"))
            .collect()
    });
    let wall = start.elapsed();

    // Sanity: snapshot isolation means every session saw the same state.
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "sessions diverged: {digests:?}"
    );
    let (hits, misses) = server.shared().cache.stats();
    server.shutdown();
    server.join();
    (wall, hits, misses)
}

/// One durability config: `commits` committed transitions (each firing an
/// audit rule) through a single session, optionally WAL-attached. Returns
/// wall time for the commit loop (setup and teardown excluded).
fn run_durability_config(commits: usize, sync: Option<SyncPolicy>) -> Duration {
    let mut s = Session::new();
    s.execute_script(
        "create table account (id int, balance int); \
         create table audit_log (id int, balance int); \
         create rule audit on account when inserted then \
           insert into audit_log select id, balance from inserted end;",
    )
    .expect("seed script");
    let dir = sync.map(|policy| {
        let dir = std::env::temp_dir().join(format!(
            "starling-bench-durability-{}-{}",
            std::process::id(),
            policy.name()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        s.persist_to(&dir, policy).expect("persist_to");
        dir
    });
    let start = Instant::now();
    for i in 0..commits {
        s.execute_script(&format!("insert into account values ({i}, {});", i % 997))
            .expect("transition");
        let run = s.commit(&mut FirstEligible).expect("commit");
        assert_eq!(run.outcome, Outcome::Quiescent, "{:?}", run.error);
    }
    let wall = start.elapsed();
    if let Some(dir) = dir {
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
    wall
}

/// The durability family: ops/sec for in-memory vs WAL `sync=batch` vs
/// WAL `sync=always`, appended to the JSON history as one entry.
fn run_durability(commits: usize, smoke: bool, label: &str, out: &str) {
    println!("durability workload: {commits} committed transitions per config");
    let configs: [(&str, Option<SyncPolicy>); 3] = [
        ("memory", None),
        ("wal_batch", Some(SyncPolicy::Batch)),
        ("wal_always", Some(SyncPolicy::Always)),
    ];
    let mut rates = Vec::new();
    for (name, sync) in configs {
        let wall = run_durability_config(commits, sync);
        let rate = commits as f64 / wall.as_secs_f64();
        println!(
            "{name:>10}: {:>8.3} s  ({rate:>10.0} commits/s)",
            wall.as_secs_f64()
        );
        rates.push((name, wall, rate));
    }
    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut entry = format!(
        "  {{\n    \"label\": \"{}\",\n    \"unix_time\": {epoch},\n    \
         \"family\": \"durability\",\n    \"mode\": \"{}\",\n    \
         \"commits\": {commits}",
        label.replace('"', "'"),
        if smoke { "smoke" } else { "full" },
    );
    for (name, wall, rate) in &rates {
        let _ = write!(
            entry,
            ",\n    \"{name}_wall_s\": {:.6},\n    \"{name}_commits_per_s\": {rate:.1}",
            wall.as_secs_f64()
        );
    }
    entry.push_str("\n  }");
    if let Err(e) = append_entry(out, &entry) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("recorded durability entry \"{label}\" in {out}");
}

/// The q-th percentile (0.0..=1.0) of a latency sample, in microseconds.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A numeric field from `/proc/self/status` (e.g. `Threads`, `VmRSS` in
/// kB); 0 where procfs is unavailable.
fn proc_status(key: &str) -> i64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix(key)?
                    .trim_start_matches(':')
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Connection churn: `total` short-lived sessions (connect, one ping
/// round-trip, quit) pushed through `drivers` concurrent client threads.
fn run_churn(addr: std::net::SocketAddr, total: usize, drivers: usize) -> Duration {
    let ping = Json::obj([("op", Json::from("ping"))]);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for d in 0..drivers {
            let ping = &ping;
            scope.spawn(move || {
                let mine = total / drivers + usize::from(d < total % drivers);
                for _ in 0..mine {
                    let mut c = Client::connect(addr).expect("churn connect");
                    c.expect_ok(ping).expect("churn ping");
                    c.quit().expect("churn quit");
                }
            });
        }
    });
    start.elapsed()
}

/// Ping round-trip latencies across `sessions` concurrent open
/// connections, `rounds` pings each, driven by `drivers` client threads
/// (each thread walks its own connection set, so driver-side queueing is
/// identical for both executors). Returns sorted latencies in µs.
fn run_ping_latency(
    addr: std::net::SocketAddr,
    sessions: usize,
    rounds: usize,
    drivers: usize,
) -> Vec<u64> {
    let ping = Json::obj([("op", Json::from("ping"))]);
    let mut all: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let ping = &ping;
                scope.spawn(move || {
                    let mine = sessions / drivers + usize::from(d < sessions % drivers);
                    let mut conns: Vec<Client> = (0..mine)
                        .map(|_| Client::connect(addr).expect("latency connect"))
                        .collect();
                    let mut lat = Vec::with_capacity(mine * rounds);
                    for _ in 0..rounds {
                        for c in conns.iter_mut() {
                            let t = Instant::now();
                            c.expect_ok(ping).expect("latency ping");
                            lat.push(t.elapsed().as_micros() as u64);
                        }
                    }
                    for c in conns.iter_mut() {
                        c.quit().expect("latency quit");
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("latency driver"))
            .collect()
    });
    all.sort_unstable();
    all
}

/// Aggregate pipelined throughput: every session sends `batch` pings in
/// one write, then reads all responses — `sessions * batch` requests with
/// maximum decode-ahead. This is where executor overhead (syscalls per
/// response, scheduler rounds, context switches) dominates, because the
/// per-request work is trivial.
fn run_pipeline_throughput(
    addr: std::net::SocketAddr,
    sessions: usize,
    batch: usize,
    drivers: usize,
) -> f64 {
    let pings: Vec<Json> = (0..batch)
        .map(|_| Json::obj([("op", Json::from("ping"))]))
        .collect();
    // The timed window ends when the last driver has drained its last
    // response; connection teardown (quit round-trips) is not throughput.
    let drained = std::sync::Mutex::new(Duration::ZERO);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for d in 0..drivers {
            let (pings, drained) = (&pings, &drained);
            scope.spawn(move || {
                let mine = sessions / drivers + usize::from(d < sessions % drivers);
                let mut conns: Vec<Client> = (0..mine)
                    .map(|_| Client::connect(addr).expect("pipeline connect"))
                    .collect();
                // Send all batches first (the server decodes ahead), then
                // drain all responses.
                for c in conns.iter_mut() {
                    c.send_batch(pings).expect("pipeline send");
                }
                for c in conns.iter_mut() {
                    for _ in 0..pings.len() {
                        let resp = c.recv().expect("pipeline recv");
                        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
                    }
                }
                let t = start.elapsed();
                let mut max = drained.lock().unwrap();
                if t > *max {
                    *max = t;
                }
                drop(max);
                for c in conns.iter_mut() {
                    c.quit().expect("pipeline quit");
                }
            });
        }
    });
    let wall = *drained.lock().unwrap();
    (sessions * batch) as f64 / wall.as_secs_f64()
}

/// Thread-count and resident-memory cost of `sessions` idle connections:
/// measures `/proc/self/status` before and after opening them (server and
/// harness share the process, so the delta includes everything the server
/// allocates per parked session).
fn run_idle_footprint(addr: std::net::SocketAddr, sessions: usize) -> (i64, i64) {
    let threads0 = proc_status("Threads");
    let rss0 = proc_status("VmRSS");
    let idle: Vec<Client> = (0..sessions)
        .map(|_| Client::connect(addr).expect("idle connect"))
        .collect();
    // One round-trip proves every accept is done.
    let mut probe = Client::connect(addr).expect("idle probe");
    probe
        .expect_ok(&Json::obj([("op", Json::from("ping"))]))
        .expect("idle probe ping");
    let threads = proc_status("Threads") - threads0;
    let rss_kb = proc_status("VmRSS") - rss0;
    drop(probe);
    drop(idle);
    (threads, rss_kb)
}

/// The pooled executor's scale measurements.
struct ScaleRow {
    churn_per_s: f64,
    pipelined_per_s: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    idle_threads: i64,
    idle_rss_kb: i64,
}

/// Requests per pipelined batch in the throughput phase.
const PIPELINE_BATCH: usize = 64;

/// Runs churn + pipelined throughput + latency + idle-footprint.
fn run_scale_mode(sessions: usize, rounds: usize) -> ScaleRow {
    let cfg = ServerConfig {
        // The pipelined phase intentionally floods the server with
        // sessions*batch decode-ahead requests; disable admission control
        // so the bench measures executor overhead, not refusal latency.
        max_inflight: 0,
        ..ServerConfig::default()
    };
    let server = Server::bind_cfg("127.0.0.1:0", None, cfg).expect("bind");
    let addr = server.local_addr();
    let drivers = sessions.clamp(1, 8);

    let churn_wall = run_churn(addr, sessions, drivers);
    let pipelined_per_s = run_pipeline_throughput(addr, sessions, PIPELINE_BATCH, drivers);
    let lat = run_ping_latency(addr, sessions, rounds, drivers);
    let (idle_threads, idle_rss_kb) = run_idle_footprint(addr, sessions);

    server.shutdown();
    server.join();
    ScaleRow {
        churn_per_s: sessions as f64 / churn_wall.as_secs_f64(),
        pipelined_per_s,
        p50_us: percentile(&lat, 0.50),
        p95_us: percentile(&lat, 0.95),
        p99_us: percentile(&lat, 0.99),
        idle_threads,
        idle_rss_kb,
    }
}

/// Cheap-op latency percentiles on the pooled executor while one heavy
/// exec (a non-terminating rule under a huge consideration budget)
/// saturates a worker — the fairness datapoint behind the
/// `cheap_sessions_pass_a_heavy_pipeline` regression test.
fn run_contended(sessions: usize, rounds: usize) -> (u64, u64, u64) {
    let server = Server::bind_cfg("127.0.0.1:0", None, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let heavy = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("heavy connect");
        c.expect_ok(&Json::obj([
            ("op", Json::from("load")),
            (
                "script",
                Json::from(
                    "create table t (x int);\n\
                     create rule grow on t when inserted then \
                       insert into t select x + 1 from inserted end;",
                ),
            ),
        ]))
        .expect("heavy load");
        // Budget-bounded, with a wall-clock backstop: the bench must not
        // hang if the machine is slow.
        let resp = c
            .call(&Json::obj([
                ("op", Json::from("exec")),
                ("sql", Json::from("insert into t values (1);")),
                (
                    "budget",
                    Json::obj([
                        ("max_considerations", Json::from(4_000_000i64)),
                        ("timeout_ms", Json::from(20_000i64)),
                    ]),
                ),
            ]))
            .expect("heavy exec");
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
        let _ = c.quit();
    });
    // Measure while the heavy exec holds its worker.
    let drivers = sessions.clamp(1, 8);
    let lat = run_ping_latency(addr, sessions, rounds, drivers);
    heavy.join().expect("heavy session");
    server.shutdown();
    server.join();
    (
        percentile(&lat, 0.50),
        percentile(&lat, 0.95),
        percentile(&lat, 0.99),
    )
}

/// The scale family, appended to the JSON history as one entry.
fn run_scale(sessions: usize, smoke: bool, label: &str, out: &str) {
    raise_fd_limit(16 * 1024);
    let rounds = if smoke { 4 } else { 8 };
    println!("scale workload: {sessions} sessions, {rounds} ping rounds each");
    let pool = run_scale_mode(sessions, rounds);
    // Contended latency uses a smaller cheap cohort so the datapoint is
    // about scheduling, not client-side queueing.
    let contended_sessions = sessions.min(256);
    let (c50, c95, c99) = run_contended(contended_sessions, rounds);

    println!(
        "     pool: churn {:>9.0} conns/s | pipelined {:>9.0} req/s | \
         ping p50/p95/p99 {:>5}/{:>5}/{:>5} µs | idle +{} threads, +{} kB rss",
        pool.churn_per_s,
        pool.pipelined_per_s,
        pool.p50_us,
        pool.p95_us,
        pool.p99_us,
        pool.idle_threads,
        pool.idle_rss_kb,
    );
    println!(
        "contended: ping p50/p95/p99 {c50}/{c95}/{c99} µs under one heavy exec \
         ({contended_sessions} cheap sessions)"
    );

    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut entry = format!(
        "  {{\n    \"label\": \"{}\",\n    \"unix_time\": {epoch},\n    \
         \"family\": \"scale\",\n    \"mode\": \"{}\",\n    \
         \"sessions\": {sessions},\n    \"rounds\": {rounds},\n    \
         \"pipeline_batch\": {PIPELINE_BATCH}",
        label.replace('"', "'"),
        if smoke { "smoke" } else { "full" },
    );
    let _ = write!(
        entry,
        ",\n    \"pool_churn_conns_per_s\": {:.1},\n    \
         \"pool_pipelined_req_per_s\": {:.1},\n    \
         \"pool_ping_p50_us\": {},\n    \"pool_ping_p95_us\": {},\n    \
         \"pool_ping_p99_us\": {},\n    \"pool_idle_threads\": {},\n    \
         \"pool_idle_rss_kb\": {},\n    \
         \"contended_sessions\": {contended_sessions},\n    \
         \"contended_p50_us\": {c50},\n    \"contended_p95_us\": {c95},\n    \
         \"contended_p99_us\": {c99}\n  }}",
        pool.churn_per_s,
        pool.pipelined_per_s,
        pool.p50_us,
        pool.p95_us,
        pool.p99_us,
        pool.idle_threads,
        pool.idle_rss_kb,
    );
    if let Err(e) = append_entry(out, &entry) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("recorded scale entry \"{label}\" in {out}");
}

/// Appends `entry` to the JSON array in `path` (creating the file if
/// needed), preserving history — same convention as `bench_oracle`.
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
    let mut durability = false;
    let mut scale = false;
    let mut sessions: Option<usize> = None;
    let mut commits: Option<usize> = None;
    let mut label = "current".to_owned();
    let mut out = "BENCH_server.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--durability" => durability = true,
            "--scale" => scale = true,
            "--sessions" => {
                sessions = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--sessions needs a number"),
                )
            }
            "--commits" => {
                commits = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--commits needs a number"),
                )
            }
            "--label" => label = args.next().expect("--label needs a value"),
            "--out" => out = args.next().expect("--out needs a value"),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench_server [--smoke] [--sessions N] [--label NAME] [--out PATH]\n       \
                     bench_server --durability [--smoke] [--commits N] [--label NAME] [--out PATH]\n       \
                     bench_server --scale [--smoke] [--sessions N] [--label NAME] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if durability {
        let commits = commits.unwrap_or(if smoke { 300 } else { 2000 });
        run_durability(commits, smoke, &label, &out);
        return;
    }
    if scale {
        let sessions = sessions.unwrap_or(if smoke { 128 } else { 1024 });
        run_scale(sessions, smoke, &label, &out);
        return;
    }
    let sessions = sessions.unwrap_or(if smoke { 8 } else { 64 });
    let seed_rows = if smoke { 200 } else { 4000 };

    let script = workload_script(seed_rows);
    let script_path = std::env::temp_dir().join(format!("bench_server_{}.rql", std::process::id()));
    std::fs::write(&script_path, &script).expect("write workload script");

    let cli = cli_path();
    println!("workload: {seed_rows} seed rows, {sessions} sessions");
    let baseline = run_baseline(&cli, &script_path, sessions);
    println!(
        "baseline: {sessions} one-shot CLI invocations  {:>8.3} s  ({:.1} ms/session)",
        baseline.as_secs_f64(),
        baseline.as_secs_f64() * 1e3 / sessions as f64,
    );
    let (server, hits, misses) = run_server(&script, sessions);
    println!(
        "server:   {sessions} concurrent sessions       {:>8.3} s  ({:.1} ms/session, \
         cache {hits} hits / {misses} misses)",
        server.as_secs_f64(),
        server.as_secs_f64() * 1e3 / sessions as f64,
    );
    let speedup = baseline.as_secs_f64() / server.as_secs_f64();
    println!("aggregate speedup: {speedup:.2}x");
    let _ = std::fs::remove_file(&script_path);

    let epoch = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = format!(
        "  {{\n    \"label\": \"{}\",\n    \"unix_time\": {epoch},\n    \"mode\": \"{}\",\n    \
         \"sessions\": {sessions},\n    \"seed_rows\": {seed_rows},\n    \
         \"baseline_wall_s\": {:.6},\n    \"server_wall_s\": {:.6},\n    \
         \"cache_hits\": {hits},\n    \"cache_misses\": {misses},\n    \
         \"speedup\": {speedup:.3}\n  }}",
        label.replace('"', "'"),
        if smoke { "smoke" } else { "full" },
        baseline.as_secs_f64(),
        server.as_secs_f64(),
    );
    if let Err(e) = append_entry(&out, &entry) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("recorded entry \"{label}\" in {out}");
}
