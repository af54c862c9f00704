//! Starting and stopping the server under test, and reading what the
//! kernel and `GET /v1/metrics` say about it.
//!
//! The benchmark proper runs `qmatch serve` as a child process with its
//! deployed defaults (shards = cores, `--max-schemas 64`, fsync on every
//! write), so CPU time and peak RSS belong to the server alone. The smoke
//! test runs the same library server on a thread of its own process.

use crate::http::Client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the server under test is started.
#[derive(Debug, Clone)]
pub enum Launcher {
    /// `BINARY serve --addr 127.0.0.1:0 --data-dir DIR` as a child process.
    Binary(PathBuf),
    /// `qmatch_serve::Server` on a thread of this process (smoke test).
    InProcess,
}

/// A running server.
pub struct Running {
    pub addr: SocketAddr,
    /// Process whose CPU time and peak RSS are reported.
    pub pid: u32,
    handle: Option<Handle>,
}

enum Handle {
    Child {
        child: Child,
        stderr: JoinHandle<String>,
    },
    Thread {
        shutdown: qmatch_serve::ShutdownHandle,
        thread: JoinHandle<std::io::Result<String>>,
    },
}

/// A child that has not printed its listen address by then is broken.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a stopping server may take to drain before it is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, ...) -> i32;
}
const SIGTERM: i32 = 15;
const SIGKILL: u64 = 9;
const SC_CLK_TCK: i32 = 2;
const PR_SET_PDEATHSIG: i32 = 1;

impl Launcher {
    /// Starts a server whose registry persists to `data_dir`.
    pub fn start(&self, data_dir: &Path) -> Result<Running, String> {
        std::fs::create_dir_all(data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
        match self {
            Launcher::Binary(binary) => start_child(binary, data_dir),
            Launcher::InProcess => {
                let server = qmatch_serve::Server::bind(qmatch_serve::ServerConfig {
                    addr: "127.0.0.1:0".to_owned(),
                    data_dir: Some(data_dir.to_path_buf()),
                    ..qmatch_serve::ServerConfig::default()
                })
                .map_err(|e| format!("bind: {e}"))?;
                let addr = server.local_addr().map_err(|e| e.to_string())?;
                let shutdown = server.shutdown_handle();
                let thread = std::thread::spawn(move || server.run());
                Ok(Running {
                    addr,
                    pid: std::process::id(),
                    handle: Some(Handle::Thread { shutdown, thread }),
                })
            }
        }
    }
}

fn start_child(binary: &Path, data_dir: &Path) -> Result<Running, String> {
    let mut command = Command::new(binary);
    // SAFETY: the hook runs in the forked child before exec and only calls
    // `prctl`, which is async-signal-safe. It makes the kernel kill the
    // server if the benchmark is killed before it can stop the server
    // itself (the thread that forks is the main thread, which outlives
    // every server).
    unsafe {
        command.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                Ok(())
            } else {
                Err(std::io::Error::last_os_error())
            }
        });
    }
    let mut child = command
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    let pid = child.id();
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    // The server announces `... listening on http://ADDR (...)` on stderr
    // once it is bound; everything after that is drained by a thread so
    // the pipe never fills.
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut seen = String::new();
        let mut line = String::new();
        while stderr.read_line(&mut line).is_ok_and(|n| n > 0) {
            if let Some(rest) = line.split("listening on http://").nth(1) {
                let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                let _ = tx.send(addr);
            }
            seen.push_str(&line);
            line.clear();
        }
        let _ = stderr.read_to_string(&mut seen);
        seen
    });
    let mut running = Running {
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        pid,
        handle: Some(Handle::Child {
            child,
            stderr: reader,
        }),
    };
    match rx.recv_timeout(START_TIMEOUT) {
        Ok(addr) => {
            running.addr = addr
                .parse()
                .map_err(|_| format!("server announced a bad address {addr:?}"))?;
            Ok(running)
        }
        Err(_) => {
            let log = running.stop().unwrap_or_else(|e| e);
            Err(format!("server did not start: {log}"))
        }
    }
}

impl Running {
    /// Stops the server (SIGTERM, drain, exit) and returns its log.
    pub fn stop(mut self) -> Result<String, String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<String, String> {
        match self.handle.take() {
            None => Ok(String::new()),
            Some(Handle::Thread { shutdown, thread }) => {
                shutdown.shutdown();
                match thread.join() {
                    Ok(Ok(summary)) => Ok(summary),
                    Ok(Err(e)) => Err(format!("server error: {e}")),
                    Err(_) => Err("server thread panicked".to_owned()),
                }
            }
            Some(Handle::Child { mut child, stderr }) => {
                // SAFETY: `kill` has no memory-safety preconditions; the pid
                // is our own unreaped child, so it cannot name another process.
                unsafe { kill(child.id() as i32, SIGTERM) };
                let deadline = Instant::now() + STOP_TIMEOUT;
                let status = loop {
                    match child.try_wait() {
                        Ok(Some(status)) => break Some(status),
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(5))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break None;
                        }
                    }
                };
                let log = stderr.join().unwrap_or_default();
                match status {
                    Some(status) if status.success() => Ok(log),
                    Some(status) => Err(format!("server exited with {status}: {log}")),
                    None => Err(format!(
                        "server did not stop within {STOP_TIMEOUT:?}: {log}"
                    )),
                }
            }
        }
    }

    /// User + system CPU seconds the server process has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid))
            .map_err(|e| format!("/proc/{}/stat: {e}", self.pid))?;
        // Fields after the parenthesised command name: state is field 3,
        // utime 14 and stime 15 (proc(5)).
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        let (Some(utime), Some(stime)) = (ticks(11), ticks(12)) else {
            return Err("unreadable /proc stat".to_owned());
        };
        // SAFETY: `sysconf` only reads a configuration value.
        let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
        Ok((utime + stime) as f64 / hz)
    }

    /// The server's peak resident set (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid))
            .map_err(|e| format!("/proc/{}/status: {e}", self.pid))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        // Error paths never leave a server behind.
        let _ = self.shutdown();
    }
}

/// One `GET /v1/metrics` scrape: series name (with labels) → value.
pub type Scrape = BTreeMap<String, f64>;

/// One scrape on a fresh connection (a kept one would idle out during a
/// long window).
pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let reply = Client::connect(addr)
        .and_then(|mut client| client.request("GET", "/v1/metrics", b""))
        .map_err(|e| format!("GET /v1/metrics: {e}"))?;
    if !reply.is_success() {
        return Err(format!("GET /v1/metrics answered {}", reply.status));
    }
    let text = String::from_utf8(reply.body).map_err(|_| "metrics are not UTF-8".to_owned())?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let (name, value) = line.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect())
}

/// `after - before` for one series (absent series count as zero).
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}
