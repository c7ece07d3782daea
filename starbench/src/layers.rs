//! The per-layer metrics of a traced run, and the recorders shared by
//! every workload. Every traced run reports every name below; a layer a
//! workload never enters reads 0 there.
//!
//! Times are medians per operation of the layer's self time, measured
//! around the public call into the layer; counts are per operation over a
//! fixed replay, so they repeat exactly for a seed. The `mix.*` rows are
//! durable_mix's secondary end-to-end figures (its explores, commit tail
//! and crash recovery), kept here because the other workloads have no
//! such operations.

use std::collections::BTreeMap;
use std::time::Duration;

use starling_engine::RuleSet;
use starling_server::{ScriptCache, ServerSession};
use starling_sql::json::Json;

use crate::trace::{self, CondKind};
use crate::util::{self, median, ms, timed, us, Conn};

/// `(name, unit)` of every per-layer metric, in report order.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    // server
    ("server.execute.explore_ms", "ms"),
    ("server.execute.analyze_ms", "ms"),
    ("server.execute.exec_ms", "ms"),
    ("server.execute.ping_us", "us"),
    ("server.transport.explore_us", "us"),
    ("server.transport.analyze_us", "us"),
    ("server.transport.exec_us", "us"),
    ("server.transport.ping_us", "us"),
    ("server.ping_p50_us", "us"),
    ("server.ping_p99_us", "us"),
    ("server.response_kb.explore", "KB"),
    ("server.response_kb.analyze", "KB"),
    ("server.response_kb.exec", "KB"),
    ("server.cpu_ms_per_req", "ms"),
    ("server.sched_rounds_per_req", "count"),
    ("server.refused", "count"),
    ("server.cache_hit_ratio", "ratio"),
    // sql
    ("sql.parse_ms", "ms"),
    ("sql.parse_mb_per_s", "MB/s"),
    ("sql.compile_ms", "ms"),
    ("sql.cond_eval_ms", "ms"),
    ("sql.cond_evals", "count"),
    ("sql.cond_true_ratio", "ratio"),
    ("sql.cond_repeat_share", "ratio"),
    ("sql.plan.hash_join_conds", "count"),
    ("sql.plan.vector_pushdown_conds", "count"),
    ("sql.plan.row_or_interp_conds", "count"),
    ("sql.action_ms", "ms"),
    ("sql.actions_fired", "count"),
    ("sql.json_encode_ms.explore", "ms"),
    ("sql.json_encode_ms.analyze", "ms"),
    ("sql.json_decode_ms.explore", "ms"),
    ("sql.json_decode_ms.analyze", "ms"),
    // engine
    ("engine.state_fork_ms", "ms"),
    ("engine.state_drop_ms", "ms"),
    ("engine.state_digest_ms", "ms"),
    ("engine.triggered_ms", "ms"),
    ("engine.states", "count"),
    ("engine.edges", "count"),
    ("engine.dedup_ratio", "ratio"),
    ("engine.trace_ms", "ms"),
    ("prov.choice_points", "count"),
    ("engine.exec_script_ms", "ms"),
    ("engine.assert_rules_ms", "ms"),
    ("engine.considerations", "count"),
    // storage
    ("storage.table_copy_ms", "ms"),
    ("storage.delta_diff_ms", "ms"),
    ("storage.wal_append_us", "us"),
    ("storage.fsync_us", "us"),
    ("storage.snapshot_ms", "ms"),
    ("storage.snapshots", "count"),
    ("storage.wal_bytes_per_commit", "B"),
    ("storage.snapshot_kb", "KB"),
    ("storage.recover_open_ms", "ms"),
    ("storage.commit_drift", "ratio"),
    // core
    ("core.analyze_ms", "ms"),
    ("core.report_json_ms", "ms"),
    ("core.pairs_rechecked", "count"),
    ("core.pair_hit_ratio", "ratio"),
    ("core.incremental_sweep_share", "ratio"),
    ("core.violations", "count"),
    // harness
    ("trace.unattributed_share.explore", "ratio"),
    ("trace.unattributed_share.analyze", "ratio"),
    ("trace.unattributed_share.exec", "ratio"),
    ("client.cpu_share", "ratio"),
    ("failed_frac", "ratio"),
    // the primary operation's round-trip distribution, contention included
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    // durable_mix's secondary end-to-end figures
    ("mix.explore_p50_ms", "ms"),
    ("mix.explore_p95_ms", "ms"),
    ("mix.commit_p99_ms", "ms"),
    ("mix.recovery_ms", "ms"),
];

/// Per-layer values of one run, every known name present.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    /// Sets a known metric; a non-finite value (an empty ratio) reads 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    /// `(name, value, unit)` in [`LAYER_METRICS`] order.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_owned(), self.0[n], u))
            .collect()
    }
}

/// Server `stats` counters used by every workload's per-layer report.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub requests: f64,
    pub rounds: f64,
    pub refused: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
}

pub fn server_counters(conn: &mut Conn) -> Result<(ServerCounters, Json), String> {
    let stats = conn.ok(&Json::obj([("op", Json::from("stats"))]))?;
    let num = |path: &[&str]| {
        let mut v = &stats;
        for p in path {
            match v.get(p) {
                Some(x) => v = x,
                None => return 0.0,
            }
        }
        v.as_f64().unwrap_or(0.0)
    };
    Ok((
        ServerCounters {
            requests: num(&["server", "requests"]),
            rounds: num(&["server", "scheduler", "rounds"]),
            refused: num(&["server", "scheduler", "refused"]),
            cache_hits: num(&["server", "cache", "hits"]),
            cache_misses: num(&["server", "cache", "misses"]),
        },
        stats,
    ))
}

/// Server-side use summed over a run's measured segments.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerUse {
    /// `stats` deltas per segment, summed; cache counts are each fresh
    /// server's totals, summed.
    pub counters: ServerCounters,
    pub server_cpu: Duration,
    pub client_cpu: Duration,
}

impl ServerUse {
    /// Adds one segment's `stats` readings.
    pub fn add(&mut self, before: ServerCounters, after: ServerCounters) {
        let c = &mut self.counters;
        c.requests += after.requests - before.requests;
        c.rounds += after.rounds - before.rounds;
        c.refused += after.refused - before.refused;
        c.cache_hits += after.cache_hits;
        c.cache_misses += after.cache_misses;
    }
}

/// Server-level per-layer figures over the measured segments.
pub fn record_server(layers: &mut Layers, usage: &ServerUse) {
    let c = usage.counters;
    let reqs = c.requests.max(1.0);
    layers.set("server.cpu_ms_per_req", ms(usage.server_cpu) / reqs);
    layers.set("server.sched_rounds_per_req", c.rounds / reqs);
    layers.set("server.refused", c.refused);
    layers.set(
        "server.cache_hit_ratio",
        c.cache_hits / (c.cache_hits + c.cache_misses),
    );
    layers.set(
        "client.cpu_share",
        usage.client_cpu.as_secs_f64() / (usage.client_cpu + usage.server_cpu).as_secs_f64(),
    );
}

/// This process's CPU time so far.
pub fn self_cpu() -> Duration {
    util::proc_cpu("/proc/self/stat")
}

/// Parse and compile figures over the load scripts one setup sends: the
/// total parse time and rate, and the median compile.
pub fn record_scripts(layers: &mut Layers, scripts: &[&str]) -> Result<(), String> {
    let (mut parse, mut bytes, mut compile) = (Duration::ZERO, 0, Vec::new());
    for s in scripts {
        let (p, c, n) = trace::parse_compile(s)?;
        parse += p;
        bytes += n;
        compile.push(ms(c));
    }
    layers.set("sql.parse_ms", ms(parse));
    layers.set(
        "sql.parse_mb_per_s",
        bytes as f64 / 1e6 / parse.as_secs_f64().max(1e-9),
    );
    layers.set("sql.compile_ms", median(&compile));
    Ok(())
}

/// Condition plan shapes summed over a workload's distinct rule programs.
pub fn record_plans(layers: &mut Layers, programs: &[&RuleSet]) {
    let kinds: Vec<CondKind> = programs.iter().flat_map(|r| trace::cond_kinds(r)).collect();
    let count = |k: CondKind| kinds.iter().filter(|&&x| x == k).count() as f64;
    layers.set("sql.plan.hash_join_conds", count(CondKind::HashJoin));
    layers.set(
        "sql.plan.vector_pushdown_conds",
        count(CondKind::VectorPushdown),
    );
    layers.set("sql.plan.row_or_interp_conds", count(CondKind::RowOrInterp));
}

/// In-process `ServerSession` timings of `ping`; returns the median µs.
pub fn execute_ping() -> f64 {
    let cache = ScriptCache::new();
    let mut s = ServerSession::new();
    let ping = Json::parse("{\"op\":\"ping\"}").expect("literal");
    let v: Vec<f64> = (0..501)
        .map(|_| us(timed(|| s.handle_op("ping", &ping, &cache)).1))
        .collect();
    median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in LAYER_METRICS {
            assert!(seen.insert(*n), "duplicate {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(u.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let j = starling_sql::json::Json::parse(&text).expect("valid JSON");
        let listed: Vec<(String, String)> = j
            .get("per_layer")
            .and_then(|v| v.as_arr())
            .expect("per_layer array")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(|v| v.as_str()).unwrap().to_owned(),
                    m.get("unit").and_then(|v| v.as_str()).unwrap().to_owned(),
                )
            })
            .collect();
        let want: Vec<(String, String)> = LAYER_METRICS
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed, want);
    }
}
