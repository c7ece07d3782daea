//! `starbench`: the end-to-end and per-layer benchmark of `starling serve`.
//!
//! ```text
//! starbench --server-bin <path> --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Each run starts the release server, drives it from this process in a
//! closed loop (at most two connections, one thread each), checks every
//! response, and prints one JSON result as its last stdout line. With
//! `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
//! the run also replays the same seeded inputs through the libraries'
//! public functions in this process and reports per-layer self times and
//! counts instead. `--tiny` shrinks every size for a quick self-check.
//! See `README.md` for the workloads and the metric-to-layer map.

mod durable;
mod explore;
mod gen;
mod layers;
mod refine;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use starling_sql::json::Json;

use crate::layers::{self_cpu, server_counters, Layers, ServerCounters, ServerUse};
use crate::util::{median, pct, Conn, ServerProc};

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 3] = ["explore_states", "refine_loop", "durable_mix"];

/// Measured segments per run. Each segment starts a fresh server, sets it
/// up, and measures for its share of `--seconds`; samples are pooled.
/// Identical runs of one server process differ by up to a third in step
/// time (hash seeds, allocator state, thread placement), so pooling three
/// processes per run steadies the medians; `setup_s` is the median of the
/// three setups.
const SEGMENTS: usize = 3;

/// `ping`s sent after each primary operation. Pings measure the cheap-op
/// round trip (transport, scheduling) next to the heavy work.
pub const PINGS_PER_OP: usize = 8;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub server_bin: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub sizes: gen::Sizes,
    /// Scratch root for data dirs, inside the checkout.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn segments(&self) -> usize {
        if self.tiny {
            1
        } else {
            SEGMENTS
        }
    }

    /// Measuring time of one segment.
    pub fn segment_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.segments() as f64)
    }
}

/// Operations attempted and failed (error, refusal, or wrong answer).
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// Round-trip samples pooled over a run's segments.
#[derive(Default)]
pub struct Samples {
    /// Primary-operation round trips, ms.
    pub op_ms: Vec<f64>,
    /// `ping` round trips, µs.
    pub ping_us: Vec<f64>,
    /// Measured wall time, summed over segments.
    pub wall: Duration,
}

/// The end-to-end metrics every workload reports.
#[derive(Default)]
pub struct EndToEnd {
    /// One per segment.
    pub setup_s: Vec<f64>,
    pub samples: Samples,
    /// Server `VmHWM`, one per segment.
    pub peak_rss_mb: Vec<f64>,
}

/// Readings around one measured segment on a live server.
pub struct Segment {
    before: ServerCounters,
    server_cpu: Duration,
    client_cpu: Duration,
    start: Instant,
}

impl Segment {
    pub fn start(server: &ServerProc, stats: &mut Conn) -> Result<Segment, String> {
        let (before, _) = server_counters(stats)?;
        Ok(Segment {
            before,
            server_cpu: server.cpu(),
            client_cpu: self_cpu(),
            start: Instant::now(),
        })
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Closes the segment: adds its wall time, peak RSS, CPU and `stats`
    /// deltas to the run's totals; returns the final `stats` reply.
    pub fn finish(
        self,
        server: &ServerProc,
        stats: &mut Conn,
        e2e: &mut EndToEnd,
        usage: &mut ServerUse,
    ) -> Result<Json, String> {
        e2e.samples.wall += self.start.elapsed();
        usage.server_cpu += server.cpu() - self.server_cpu;
        usage.client_cpu += self_cpu() - self.client_cpu;
        let (after, reply) = server_counters(stats)?;
        usage.add(self.before, after);
        e2e.peak_rss_mb.push(server.peak_rss_mb());
        Ok(reply)
    }
}

impl EndToEnd {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("op_p90_ms", pct(&self.samples.op_ms, 0.9), "ms"),
            // The mean, not the median: a refine_loop server's peak is
            // about 221, 236 or 251 MB from one server to the next (steps
            // the size of its 15.8 MB cold report), and the median of
            // three servers jumps a whole step where the mean moves a third.
            (
                "peak_rss_mb",
                self.peak_rss_mb.iter().sum::<f64>() / self.peak_rss_mb.len().max(1) as f64,
                "MB",
            ),
        ]
    }

    /// The centre of the round-trip distribution, reported but not
    /// gated. Co-tenants of a shared host slow the program by up to half
    /// for stretches of a second or more, so round trips split into a
    /// quiet and a contended mode whose mix changes from run to run; the
    /// median and the mean move with that mix, by up to a third between
    /// runs of the same code. The 90th percentile lies inside the
    /// contended mode and barely moves.
    fn distribution(&self) -> Vec<(&'static str, f64)> {
        let s = &self.samples;
        vec![
            ("op_p50_ms", median(&s.op_ms)),
            (
                "ops_per_s",
                s.op_ms.len() as f64 / s.wall.as_secs_f64().max(1e-9),
            ),
        ]
    }
}

/// What one workload run produced.
pub struct Report {
    pub tally: Tally,
    /// Correctness checks beyond per-response comparison (band, final
    /// report, recovered digest) all held.
    pub checks_ok: bool,
    pub e2e: EndToEnd,
    /// Filled only by traced runs.
    pub layers: Layers,
    /// Sizes and flags for the run record.
    pub record: Vec<(&'static str, Json)>,
}

fn usage() -> ! {
    eprintln!(
        "usage: starbench --server-bin <path> --workload <{}> --seed <n> --seconds <s> \
         --trace <0|1> [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> (String, Ctx) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut server_bin = None;
    let (mut seed, mut seconds, mut trace, mut tiny) = (None, None, None, false);
    let mut i = 0;
    while i < args.len() {
        let val = || args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(val()),
            "--server-bin" => server_bin = Some(PathBuf::from(val())),
            "--seed" => seed = val().parse::<u64>().ok(),
            "--seconds" => seconds = val().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(val() == "1"),
            "--tiny" => {
                tiny = true;
                i += 1;
                continue;
            }
            _ => usage(),
        }
        i += 2;
    }
    let (Some(workload), Some(server_bin), Some(seed), Some(seconds), Some(trace)) =
        (workload, server_bin, seed, seconds, trace)
    else {
        usage()
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage()
    }
    let sizes = if tiny {
        gen::Sizes::tiny()
    } else {
        gen::Sizes::full()
    };
    let ctx = Ctx {
        server_bin,
        seed,
        seconds,
        trace,
        tiny,
        sizes,
        scratch: PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id())),
    };
    (workload, ctx)
}

fn run_record(workload: &str, ctx: &Ctx, report: &Report) -> Json {
    let mut fields = vec![
        ("workload", Json::from(workload)),
        ("seed", Json::from(ctx.seed as i64)),
        ("seconds", Json::Float(ctx.seconds)),
        ("trace", Json::from(ctx.trace)),
        ("tiny", Json::from(ctx.tiny)),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        (
            "rustc",
            Json::from(util::command_line_output("rustc", &["--version"])),
        ),
        (
            "git_commit",
            Json::from(util::command_line_output("git", &["rev-parse", "HEAD"])),
        ),
        ("segments", Json::from(ctx.segments())),
        ("pings_per_op", Json::from(PINGS_PER_OP)),
        ("op_samples", Json::from(report.e2e.samples.op_ms.len())),
    ];
    fields.extend(
        report
            .e2e
            .distribution()
            .into_iter()
            .map(|(n, v)| (n, Json::Float(v))),
    );
    fields.extend(report.record.iter().cloned());
    Json::obj(fields)
}

/// Per-layer figures every workload shares: the ping split, the centre
/// of the round-trip distribution, and failures.
fn record_shared(report: &mut Report) {
    let pings = &report.e2e.samples.ping_us;
    let execute = layers::execute_ping();
    let l = &mut report.layers;
    l.set("server.execute.ping_us", execute);
    l.set("server.ping_p50_us", median(pings));
    l.set("server.ping_p99_us", pct(pings, 0.99));
    l.set("server.transport.ping_us", median(pings) - execute);
    for (name, v) in report.e2e.distribution() {
        l.set(name, v);
    }
    let t = report.tally;
    l.set("failed_frac", t.failed as f64 / t.attempted.max(1) as f64);
}

fn main() {
    let (workload, ctx) = parse_args();
    if !Path::new(&ctx.server_bin).is_file() {
        eprintln!(
            "starbench: no server binary at {}",
            ctx.server_bin.display()
        );
        std::process::exit(1);
    }
    let started = Instant::now();
    let out = match workload.as_str() {
        "explore_states" => explore::run(&ctx),
        "refine_loop" => refine::run(&ctx),
        "durable_mix" => durable::run(&ctx),
        _ => unreachable!("validated by parse_args"),
    };
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if let Some(root) = ctx.scratch.parent() {
        // Only succeeds when no other run is using it.
        let _ = std::fs::remove_dir(root);
    }
    let mut report = match out {
        Ok(r) => r,
        Err(e) => {
            eprintln!("starbench: {workload}: {e}");
            std::process::exit(1);
        }
    };
    if ctx.trace {
        record_shared(&mut report);
    }
    println!("run record: {}", run_record(&workload, &ctx, &report));
    eprintln!(
        "starbench: {workload} seed {} finished in {:.1}s",
        ctx.seed,
        started.elapsed().as_secs_f64()
    );
    let metrics: Vec<(String, f64, &str)> = if ctx.trace {
        report.layers.metrics()
    } else {
        report
            .e2e
            .metrics()
            .into_iter()
            .map(|(n, v, u)| (n.to_owned(), v, u))
            .collect()
    };
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, v, unit)| {
                (
                    name,
                    Json::obj([("value", Json::Float(v)), ("unit", Json::from(unit))]),
                )
            })
            .collect(),
    );
    let t = report.tally;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::from(report.checks_ok && t.failed == 0)),
            ("attempted", Json::from(t.attempted.max(1) as i64)),
            ("failed", Json::from(t.failed as i64)),
            ("metrics", metrics),
        ])
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at tiny size, untraced and traced, against the
    /// release server named by `STARBENCH_SERVER_BIN` (the test is a no-op
    /// when it is unset):
    ///
    /// ```sh
    /// STARBENCH_SERVER_BIN=$PWD/../.bench_build/release/starling cargo test --release
    /// ```
    #[test]
    fn tiny_runs_pass_every_check() {
        let Some(bin) = std::env::var_os("STARBENCH_SERVER_BIN") else {
            eprintln!("STARBENCH_SERVER_BIN unset; skipping the tiny end-to-end runs");
            return;
        };
        for workload in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    server_bin: PathBuf::from(&bin),
                    seed: 7,
                    seconds: 0.5,
                    trace,
                    tiny: true,
                    sizes: gen::Sizes::tiny(),
                    scratch: PathBuf::from(".bench_run").join(format!("test-{workload}")),
                };
                let report = match workload {
                    "explore_states" => explore::run(&ctx),
                    "refine_loop" => refine::run(&ctx),
                    _ => durable::run(&ctx),
                }
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
                let _ = std::fs::remove_dir_all(&ctx.scratch);
                assert!(report.checks_ok, "{workload}: a correctness check failed");
                assert_eq!(report.tally.failed, 0, "{workload}: failed operations");
                assert!(report.tally.attempted > 0);
                assert!(report.e2e.metrics().iter().all(|(_, v, _)| *v > 0.0));
            }
        }
        let _ = std::fs::remove_dir(".bench_run");
    }
}
