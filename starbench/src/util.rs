//! Harness plumbing: the seeded generator, order statistics, the server
//! process and its connections, and `/proc` readings.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use starling_sql::json::Json;

use crate::{Tally, PINGS_PER_OP};

/// SplitMix64: small, seedable, and stable across platforms, so a seed
/// names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Nearest-rank percentile of `v`; 0 for no samples.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// A running `starling serve`. Dropping it kills the process and waits
/// for it, so no server outlives the benchmark.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<std::process::ChildStdout>,
}

/// The flags every server of the benchmark runs with: two workers for two
/// cores, and (for the durable workload) a data dir with `--sync always`.
pub fn server_flags(data_dir: Option<&Path>) -> Vec<String> {
    let mut flags: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--workers", "2"]
        .map(String::from)
        .to_vec();
    if let Some(d) = data_dir {
        flags.extend([
            "--data-dir".to_owned(),
            d.display().to_string(),
            "--sync".to_owned(),
            "always".to_owned(),
        ]);
    }
    flags
}

impl ServerProc {
    /// Starts the server and waits for its listening line.
    pub fn spawn(bin: &Path, data_dir: Option<&Path>) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(server_flags(data_dir))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("server exited before listening".into());
            }
            if let Some(a) = line.trim().strip_prefix("starling-server listening on ") {
                let addr = a
                    .parse()
                    .map_err(|e| format!("bad listen address {a}: {e}"))?;
                return Ok(ServerProc {
                    child,
                    addr,
                    _stdout: stdout,
                });
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_status_kb(self.pid(), "VmHWM:") / 1024.0
    }

    /// User plus system CPU time consumed so far.
    pub fn cpu(&self) -> Duration {
        proc_cpu(&format!("/proc/{}/stat", self.pid()))
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(self.addr)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn proc_status_kb(pid: u32, key: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// utime + stime from a `/proc/.../stat` file, at the kernel's usual 100
/// ticks per second.
pub fn proc_cpu(path: &str) -> Duration {
    let Ok(s) = std::fs::read_to_string(path) else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    Duration::from_millis(f.iter().sum::<u64>() * 10)
}

/// The longest a reply may take; the slowest (a cold 15 MB analysis)
/// takes about two seconds.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One client connection: a request is one line out, one line back.
pub struct Conn {
    r: BufReader<TcpStream>,
    w: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        // A hung server fails the run instead of stalling it.
        s.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let w = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            r: BufReader::new(s),
            w,
            out: Vec::new(),
        })
    }

    /// Sends `line` and returns the raw response line with the round-trip
    /// time, measured from the write to the end of the response line.
    pub fn call(&mut self, line: &str) -> Result<(String, Duration), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        let t = Instant::now();
        self.w.write_all(&self.out).map_err(|e| e.to_string())?;
        let resp = self.read_line()?;
        Ok((resp, t.elapsed()))
    }

    /// Sends many requests in one write and reads their responses.
    pub fn pipeline(&mut self, lines: &[String]) -> Result<Vec<String>, String> {
        self.out.clear();
        for l in lines {
            self.out.extend_from_slice(l.as_bytes());
            self.out.push(b'\n');
        }
        self.w.write_all(&self.out).map_err(|e| e.to_string())?;
        (0..lines.len()).map(|_| self.read_line()).collect()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut buf = Vec::new();
        let n = self
            .r
            .read_until(b'\n', &mut buf)
            .map_err(|e| e.to_string())?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        buf.pop();
        String::from_utf8(buf).map_err(|e| e.to_string())
    }

    /// A request that must succeed; returns its `result`.
    pub fn ok(&mut self, req: &Json) -> Result<Json, String> {
        let (resp, _) = self.call(&req.to_string())?;
        result_of(&resp)
    }
}

/// The exact response to a `ping`.
pub const PONG: &str = "{\"ok\":true,\"result\":{\"pong\":true}}";

pub fn load_req(script: &str) -> Json {
    Json::obj([("op", Json::from("load")), ("script", Json::from(script))])
}

/// `PINGS_PER_OP` pings, each timed and checked.
pub fn pings(conn: &mut Conn, out: &mut Vec<f64>, tally: &mut Tally) -> Result<(), String> {
    for _ in 0..PINGS_PER_OP {
        let (resp, rtt) = conn.call("{\"op\":\"ping\"}")?;
        tally.op(resp == PONG);
        out.push(us(rtt));
    }
    Ok(())
}

/// The `result` of a response line, or the error it carries.
pub fn result_of(resp: &str) -> Result<Json, String> {
    let j = Json::parse(resp).map_err(|e| format!("bad response: {e}"))?;
    if j.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("error response: {}", truncate(resp)));
    }
    j.get("result")
        .cloned()
        .ok_or_else(|| "response without result".to_owned())
}

/// Whether a response line is a success, without decoding it.
pub fn is_ok(resp: &str) -> bool {
    resp.starts_with("{\"ok\":true,")
}

pub fn truncate(s: &str) -> &str {
    &s[..s.floor_char_boundary(200)]
}

/// The exact response line the server sends for a successful `result`.
pub fn ok_line(result: Json) -> String {
    starling_server::ok_response(None, result)
}

/// A fresh, empty directory under the checkout's scratch root.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let d = root.join(name);
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).map_err(|e| format!("create {}: {e}", d.display()))?;
    Ok(d)
}

/// The size of a file in bytes (0 when absent).
pub fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Output of a short command, for the run record.
pub fn command_line_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}
