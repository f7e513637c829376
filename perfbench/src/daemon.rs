//! Driving `fdi serve` from outside: build, spawn on a fresh store, talk
//! the JSON-lines protocol, and shut down cleanly.

use crate::report::{peak_rss_mb, OUT_DIR};
use fdi_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long any single protocol step may take before the run is abandoned.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Builds the `fdi` binary from the checkout's root manifest (a no-op when
/// it is up to date) and returns its path under the cargo target directory.
pub fn build_fdi() -> Result<PathBuf, String> {
    // `cargo run` names itself in CARGO: build with the same toolchain.
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--offline", "--bin", "fdi"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building fdi failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("fdi");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built fdi not found at {}", bin.display()))
    }
}

/// A fresh working directory under [`OUT_DIR`], unique within this process.
pub fn fresh_dir(tag: &str) -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = Path::new(OUT_DIR).join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A running daemon on its own fresh store. Dropping it without
/// [`Daemon::shutdown`] kills and reaps the process and removes the store.
pub struct Daemon {
    child: Option<Child>,
    port: u16,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns `fdi serve --jobs <jobs>` on a fresh store and waits until it
    /// answers a `ping`; returns the daemon and a connection to it.
    pub fn start(bin: &Path, jobs: usize) -> Result<(Daemon, Conn), String> {
        let dir = fresh_dir("serve")?;
        let port_file = dir.join("port");
        let child = Command::new(bin)
            .arg("serve")
            .args(["--port", "0", "--jobs", &jobs.to_string()])
            .arg("--port-file")
            .arg(&port_file)
            .arg("--store")
            .arg(dir.join("store"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            port: 0,
            dir,
        };
        let started = Instant::now();
        daemon.port = loop {
            if let Some(port) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                break port;
            }
            if let Some(status) = daemon.child_mut().try_wait().map_err(|e| e.to_string())? {
                return Err(format!("fdi serve exited during start-up: {status}"));
            }
            if started.elapsed() > IO_TIMEOUT {
                return Err("fdi serve never wrote its port file".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        let mut conn = daemon.connect()?;
        let pong = conn.call("{\"op\":\"ping\"}\n")?;
        if !pong.contains("\"ok\":true") {
            return Err(format!("bad ping reply: {pong}"));
        }
        Ok((daemon, conn))
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child
            .as_mut()
            .expect("daemon child is present until shutdown")
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(("127.0.0.1", self.port))
            .map_err(|e| format!("cannot connect to fdi serve: {e}"))?;
        // The request goes out in one write; this only keeps the kernel
        // from holding back a tail segment on the client side.
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.pid()).unwrap_or(0.0)
    }

    /// Graceful drain over `conn`: the daemon must reply, exit 0, and leave
    /// no process behind. The store is removed afterwards.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let reply = conn.call("{\"op\":\"shutdown\"}\n")?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("bad shutdown reply: {reply}"));
        }
        let mut child = self
            .child
            .take()
            .expect("daemon child is present until shutdown");
        let pid = child.id();
        let started = Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if started.elapsed() > IO_TIMEOUT {
                let _ = child.kill();
                let _ = child.wait();
                return Err("fdi serve did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        if !status.success() {
            return Err(format!("fdi serve exited with {status}"));
        }
        if Path::new(&format!("/proc/{pid}")).exists() {
            return Err(format!("fdi serve process {pid} still present after exit"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Sends one request line (newline included) in a single write and
    /// reads one response line.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed by fdi serve".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// The daemon's `{"op":"stats"}` engine counters.
    pub fn stats(&mut self) -> Result<Json, String> {
        let reply = self.call("{\"op\":\"stats\"}\n")?;
        json::parse(&reply)?
            .get("stats")
            .cloned()
            .ok_or_else(|| format!("stats reply without stats: {reply}"))
    }
}

/// A job answer, as the checks need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub cached: bool,
    pub optimized: String,
    pub baseline_size: f64,
    pub optimized_size: f64,
    pub sites_inlined: f64,
}

/// Parses a job response. `Err` carries the typed rejection kind or the
/// reason the answer is unusable (degraded, oracle-rejected, malformed).
pub fn parse_answer(reply: &str) -> Result<Answer, String> {
    let v = json::parse(reply).map_err(|e| format!("malformed reply: {e}"))?;
    let flag = |k: &str| matches!(v.get(k), Some(Json::Bool(true)));
    let num = |k: &str| v.get(k).and_then(Json::as_num);
    if !flag("ok") {
        let kind = v.get("kind").and_then(Json::as_str).unwrap_or("unknown");
        return Err(format!("rejected: {kind}"));
    }
    if flag("degraded") || flag("oracle_rejected") {
        return Err("degraded answer".into());
    }
    match (
        v.get("optimized").and_then(Json::as_str),
        num("baseline_size"),
        num("optimized_size"),
        num("sites_inlined"),
    ) {
        (Some(optimized), Some(baseline_size), Some(optimized_size), Some(sites_inlined)) => {
            Ok(Answer {
                cached: flag("cached"),
                optimized: optimized.to_string(),
                baseline_size,
                optimized_size,
                sites_inlined,
            })
        }
        _ => Err("answer lacks optimized program or sizes".into()),
    }
}

/// A numeric engine counter from a `stats` object (0 when absent).
pub fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_num).unwrap_or(0.0)
}
