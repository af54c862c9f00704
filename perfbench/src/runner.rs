//! One benchmark run: synthesise inputs, compute the reference, set the
//! server up several times, drive the timed window closed-loop, check
//! every reply, and turn what was measured into metrics.

use crate::http::{Client, Reply};
use crate::replay::{Counts, Replayer};
use crate::server::{self, Launcher, Running, Scrape};
use crate::workload::{self, check, match_expect, Expect, Plan, Reference, Scale, Workload};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What one run does.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window(s), in seconds.
    pub seconds: f64,
    /// `false`: end-to-end metrics from an untraced window. `true`: a
    /// traced window with the in-process replay (per-layer metrics),
    /// then an untraced one of the same length for the tracing overhead.
    pub trace: bool,
    pub launcher: Launcher,
    /// Server data directories, the replay WAL and the span dump.
    pub work_dir: PathBuf,
    pub scale: Scale,
    /// Setups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Test hook: perturb every per-operation expectation, so each
    /// operation must be counted as failed.
    pub corrupt_reference: bool,
}

/// A named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every request the run sent, setup included.
    pub attempted: u64,
    pub failed: u64,
    /// Requests sent during setup (`PUT`s of every repeat).
    pub setup_requests: u64,
    /// Whether the traced replay's counters equal the server's deltas
    /// (`None` when not checked: untraced runs, multi-connection runs).
    pub counts_match: Option<bool>,
    pub metrics: Vec<Metric>,
    /// Human-readable facts printed before the result line.
    pub notes: Vec<String>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.counts_match != Some(false)
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Attempt/failure counters shared by client threads.
#[derive(Default)]
struct Tally {
    attempted: AtomicUsize,
    failed: AtomicUsize,
    errors: Mutex<Vec<String>>,
}

impl Tally {
    fn record(&self, result: Result<(), String>) -> bool {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
                let mut errors = self.errors.lock().expect("error log lock");
                if errors.len() < 5 {
                    errors.push(e);
                }
                false
            }
        }
    }
}

/// Checks replies to operation `i`: the first reply per key against the
/// reference, later ones byte-for-byte against that verified reply (match
/// replies are deterministic functions of registry and query).
struct Checker<'a> {
    plan: &'a Plan,
    expect: Vec<Expect>,
    verified: Vec<OnceLock<Vec<u8>>>,
}

impl Checker<'_> {
    fn check(&self, i: usize, reply: &Reply) -> Result<(), String> {
        let key = self.plan.key(i);
        if reply.is_success() && self.verified[key].get() == Some(&reply.body) {
            return Ok(());
        }
        check(&self.expect[key], reply)
            .map_err(|e| format!("op {i} ({:?}): {e}", self.plan.op(i)))?;
        let _ = self.verified[key].set(reply.body.clone());
        Ok(())
    }
}

type Request = (&'static str, String, Arc<[u8]>);

/// When a drive stops issuing operations.
#[derive(Clone, Copy)]
enum Stop {
    Count(usize),
    Until(Instant),
}

/// One completed request.
#[derive(Clone, Copy)]
struct Sample {
    /// Request start, from the start of the drive.
    at: Duration,
    wall: Duration,
    ok: bool,
}

struct Drive {
    samples: Vec<Sample>,
    elapsed: Duration,
    /// The next unissued operation index.
    next: usize,
}

/// Runs operations `first, first+1, …` closed-loop over `clients` (one
/// thread each, one request in flight per connection) until `stop`.
/// `on_reply` sees every reply with its operation index and timing.
fn drive(
    clients: Vec<Client>,
    first: usize,
    stop: Stop,
    request: &(dyn Fn(usize) -> Request + Sync),
    on_reply: &(dyn Fn(usize, Instant, Instant, Result<Reply, String>) -> Result<(), String>
          + Sync),
    tally: &Tally,
    addr: SocketAddr,
) -> Drive {
    let next = AtomicUsize::new(first);
    let started = Instant::now();
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    loop {
                        if let Stop::Until(deadline) = stop {
                            if Instant::now() >= deadline {
                                break;
                            }
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if let Stop::Count(n) = stop {
                            if i >= first + n {
                                break;
                            }
                        }
                        let (method, target, body) = request(i);
                        let t0 = Instant::now();
                        let reply = client.request(method, &target, &body);
                        let t1 = Instant::now();
                        let broken = reply.is_err();
                        let ok = tally.record(on_reply(
                            i,
                            t0,
                            t1,
                            reply.map_err(|e| format!("op {i}: {e}")),
                        ));
                        samples.push(Sample {
                            at: t0 - started,
                            wall: t1 - t0,
                            ok,
                        });
                        if broken {
                            // The connection's state is unknown after an
                            // I/O error: start a fresh one.
                            match Client::connect(addr) {
                                Ok(fresh) => client = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let next = next.load(Ordering::Relaxed);
    Drive {
        samples: per_thread.into_iter().flatten().collect(),
        elapsed,
        next: match stop {
            Stop::Count(n) => first + n,
            Stop::Until(_) => next,
        },
    }
}

fn connect(addr: SocketAddr, n: usize) -> Result<Vec<Client>, String> {
    (0..n)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}")))
        .collect()
}

/// Median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Tail percentiles, highest last. The ladder stops at p90: how many
/// samples a window holds depends on how busy the host is, and a rung that
/// rose to p99 whenever a run crossed 1000 samples would change the
/// metric's meaning between runs of one workload.
const TAIL_LADDER: [f64; 3] = [50.0, 75.0, 90.0];

/// The highest ladder percentile with at least ten samples above it, as
/// `(value, percentile)`, by nearest rank over ascending `sorted`. Fewer
/// than twenty samples give the maximum (no rung has ten above it).
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let rank = |p: f64| ((p / 100.0 * n as f64).ceil() as usize).max(1);
    match TAIL_LADDER.iter().rev().find(|&&p| n >= rank(p) + 10) {
        Some(&p) => (sorted[rank(p) - 1], p),
        None => (sorted.last().copied().unwrap_or(0.0), 100.0),
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = cfg.workload.connections(nproc);
    let t0 = std::time::Instant::now();
    let plan = Plan::build(cfg.workload, cfg.seed, cfg.scale);
    let synthesis_s = t0.elapsed().as_secs_f64();
    let reference = Reference::compute(&plan)?;
    let reference_s = t0.elapsed().as_secs_f64() - synthesis_s;
    let mut expect = reference.keys.clone();
    if cfg.corrupt_reference {
        for e in &mut expect {
            match e {
                Expect::Match { total_qom, .. } => *total_qom += 1.0,
                Expect::Topk(ranking) => ranking.reverse(),
                Expect::Put { nodes, .. } => *nodes += 1,
            }
        }
    }
    let checker = Checker {
        plan: &plan,
        expect,
        verified: (0..plan.keys()).map(|_| OnceLock::new()).collect(),
    };
    let tally = Tally::default();
    let run_dir = cfg
        .work_dir
        .join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    let result = measure(
        cfg,
        &plan,
        &reference,
        &checker,
        &tally,
        &run_dir,
        connections,
        nproc,
    );
    let _ = std::fs::remove_dir_all(&run_dir);
    let (metrics, mut notes, counts_match, setup_requests) = result?;
    notes.insert(
        0,
        format!(
            "input synthesis {synthesis_s:.3} s, reference {reference_s:.3} s, total {:.3} s",
            t0.elapsed().as_secs_f64()
        ),
    );
    notes.insert(
        0,
        format!(
            "workload={} seed={} nproc={nproc} shards={nproc} connections={connections} profile={} window_s={} trace={}",
            cfg.workload.name(),
            cfg.seed,
            if cfg!(debug_assertions) { "debug" } else { "release" },
            cfg.seconds,
            u8::from(cfg.trace)
        ),
    );
    let errors = tally.errors.lock().expect("error log lock").clone();
    Ok(Outcome {
        attempted: tally.attempted.load(Ordering::Relaxed) as u64,
        failed: tally.failed.load(Ordering::Relaxed) as u64,
        setup_requests,
        counts_match,
        metrics,
        notes,
        errors,
    })
}

type Measured = (Vec<Metric>, Vec<String>, Option<bool>, u64);

#[allow(clippy::too_many_arguments)]
fn measure(
    cfg: &Config,
    plan: &Plan,
    reference: &Reference,
    checker: &Checker,
    tally: &Tally,
    run_dir: &std::path::Path,
    connections: usize,
    nproc: usize,
) -> Result<Measured, String> {
    let mut notes = Vec::new();
    // Setup, several times on fresh servers: start, register through PUT,
    // warm up. Replies are kept and checked after the clock stops.
    let mut setup_times = Vec::new();
    let mut running: Option<Running> = None;
    let mut setup_requests = 0u64;
    for k in 0..cfg.setup_repeats.max(1) {
        if let Some(old) = running.take() {
            old.stop()?;
        }
        let replies: Mutex<Vec<(usize, Result<Reply, String>)>> = Mutex::new(Vec::new());
        let keep = |i: usize, _: Instant, _: Instant, r: Result<Reply, String>| {
            replies.lock().expect("reply log lock").push((i, r));
            Ok(())
        };
        let quiet = Tally::default();
        let t0 = Instant::now();
        let server = cfg.launcher.start(&run_dir.join(format!("setup-{k}")))?;
        let put = |i: usize| -> Request {
            let (name, body) = &plan.setup[i];
            ("PUT", format!("/v1/schemas/{name}"), body.clone())
        };
        drive(
            connect(server.addr, connections)?,
            0,
            Stop::Count(plan.setup.len()),
            &put,
            &keep,
            &quiet,
            server.addr,
        );
        let puts = std::mem::take(&mut *replies.lock().expect("reply log lock"));
        let op = |i: usize| workload::request(plan, &plan.op(i));
        drive(
            connect(server.addr, connections)?,
            0,
            Stop::Count(plan.warmup),
            &op,
            &keep,
            &quiet,
            server.addr,
        );
        setup_times.push(t0.elapsed().as_secs_f64());
        for (i, reply) in puts {
            tally.record(reply.and_then(|r| check(&reference.setup[i], &r)));
            setup_requests += 1;
        }
        for (i, reply) in std::mem::take(&mut *replies.lock().expect("reply log lock")) {
            tally.record(reply.and_then(|r| checker.check(i, &r)));
        }
        running = Some(server);
    }
    let server = running.expect("at least one setup");
    let setup_s = {
        let mut times = setup_times.clone();
        median(&mut times)
    };
    notes.push(format!(
        "setup_s per repeat: {}",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let op_request = |i: usize| workload::request(plan, &plan.op(i));
    let window = Duration::from_secs_f64(cfg.seconds.max(0.01));
    let mut metrics = Vec::new();
    let mut counts_match = None;
    let mut next = plan.warmup;
    if !cfg.trace {
        let before = server::scrape(server.addr)?;
        let clients = connect(server.addr, connections)?;
        let cpu0 = server.cpu_seconds()?;
        let verify = |i: usize, _: Instant, _: Instant, r: Result<Reply, String>| {
            r.and_then(|r| checker.check(i, &r))
        };
        let d = drive(
            clients,
            next,
            Stop::Until(Instant::now() + window),
            &op_request,
            &verify,
            tally,
            server.addr,
        );
        let cpu = server.cpu_seconds()? - cpu0;
        next = d.next;
        let after = server::scrape(server.addr)?;
        write_samples(cfg, &d)?;
        let mut walls: Vec<f64> = d
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.wall.as_secs_f64() * 1e3)
            .collect();
        let ops = walls.len();
        let p50 = median(&mut walls);
        let (tail_ms, tail_pct) = tail(&walls);
        let ops_f = (ops as f64).max(1.0);
        notes.push(format!(
            "window: {ops} ok ops of {} in {:.3} s; tail = p{tail_pct:.2} over {ops} samples",
            d.samples.len(),
            d.elapsed.as_secs_f64()
        ));
        notes.push(count_note(&before, &after, ops_f));
        metrics.extend([
            metric("setup_s", setup_s, "s"),
            metric("ops_per_s", ops as f64 / d.elapsed.as_secs_f64(), "1/s"),
            metric("step_p50_ms", p50, "ms"),
            metric("step_tail_ms", tail_ms, "ms"),
            metric("cpu_ms_per_op", cpu * 1e3 / ops_f, "ms"),
            metric(
                "peak_rss_mib",
                server.peak_rss_kib()? as f64 / 1024.0,
                "MiB",
            ),
        ]);
    } else {
        let (layer, matched, untraced_next) = traced(
            cfg,
            plan,
            checker,
            tally,
            &server,
            run_dir,
            connections,
            nproc,
            window,
            &mut notes,
        )?;
        metrics = layer;
        counts_match = matched;
        next = untraced_next;
    }

    // put-evolve's last check: match the final revision against PIR.
    if cfg.workload == Workload::PutEvolve {
        let last = plan.revision(next - 1);
        let expect = match_expect(
            &qmatch_core::MatchSession::new(qmatch_core::model::MatchConfig::default()),
            &Arc::new(workload::compile(&plan.revisions[last])?),
            &Arc::new(workload::compile(&plan.setup[0].1)?),
        );
        let mut client = Client::connect(server.addr).map_err(|e| e.to_string())?;
        let reply = client
            .request("POST", "/v1/match?source=pdb&target=pir", b"")
            .map_err(|e| e.to_string());
        tally.record(
            reply
                .and_then(|r| check(&expect, &r))
                .map_err(|e| format!("final match of revision {last}: {e}")),
        );
        notes.push(format!(
            "final check: /v1/match of revision {last} against pir"
        ));
    }
    server.stop()?;
    Ok((metrics, notes, counts_match, setup_requests))
}

/// Writes the window's per-request timings (`at_s wall_ms ok`, by start
/// time) next to the span dumps, for reading host phases.
fn write_samples(cfg: &Config, d: &Drive) -> Result<(), String> {
    let mut samples = d.samples.clone();
    samples.sort_by_key(|s| s.at);
    let mut out = String::from("at_s\twall_ms\tok\n");
    for s in samples {
        out.push_str(&format!(
            "{:.6}\t{:.4}\t{}\n",
            s.at.as_secs_f64(),
            s.wall.as_secs_f64() * 1e3,
            u8::from(s.ok)
        ));
    }
    let path = cfg.work_dir.join(format!(
        "window-{}-seed{}.tsv",
        cfg.workload.name(),
        cfg.seed
    ));
    std::fs::write(&path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// The exact counters of `/metrics`, as deltas over the window.
fn count_note(before: &Scrape, after: &Scrape, ops: f64) -> String {
    let series = Counts::default().series();
    let parts: Vec<String> = series
        .iter()
        .map(|(name, _)| format!("{name}={}", server::delta(before, after, name)))
        .collect();
    format!("/metrics deltas over {ops} ops: {}", parts.join(" "))
}

#[allow(clippy::too_many_arguments)]
fn traced(
    cfg: &Config,
    plan: &Plan,
    checker: &Checker,
    tally: &Tally,
    server: &Running,
    run_dir: &std::path::Path,
    connections: usize,
    nproc: usize,
    window: Duration,
    notes: &mut Vec<String>,
) -> Result<(Vec<Metric>, Option<bool>, usize), String> {
    let half = window / 2;
    let mut replayer = Replayer::new(cfg.workload, nproc, &run_dir.join("replay-wal"))?;
    replayer.setup(plan)?;
    let replayer = Mutex::new(replayer);
    let before = server::scrape(server.addr)?;
    let mirror_before = {
        let mut r = replayer.lock().expect("replay lock");
        r.enable();
        r.snapshot()
    };
    let replay_error: Mutex<Option<String>> = Mutex::new(None);
    let on_reply = |i: usize, t0: Instant, t1: Instant, r: Result<Reply, String>| {
        let verdict = r.and_then(|r| checker.check(i, &r));
        let mut replay = replayer.lock().expect("replay lock");
        if let Err(e) = replay.traced(plan, i, t0, t1) {
            replay_error
                .lock()
                .expect("replay error lock")
                .get_or_insert(e);
        }
        verdict
    };
    let op_request = |i: usize| workload::request(plan, &plan.op(i));
    let clients = connect(server.addr, connections)?;
    let traced = drive(
        clients,
        plan.warmup,
        Stop::Until(Instant::now() + half),
        &op_request,
        &on_reply,
        tally,
        server.addr,
    );
    let after = server::scrape(server.addr)?;
    let mut replayer = replayer.into_inner().expect("replay lock");
    replayer.finish(&mirror_before);
    if let Some(e) = replay_error.into_inner().expect("replay error lock") {
        return Err(format!("replay failed: {e}"));
    }
    // The same workload untraced, for the tracing overhead.
    let verify = |i: usize, _: Instant, _: Instant, r: Result<Reply, String>| {
        r.and_then(|r| checker.check(i, &r))
    };
    let clients = connect(server.addr, connections)?;
    let untraced = drive(
        clients,
        traced.next,
        Stop::Until(Instant::now() + half),
        &op_request,
        &verify,
        tally,
        server.addr,
    );

    let trace_path = cfg.work_dir.join(format!(
        "trace-{}-seed{}.tsv",
        cfg.workload.name(),
        cfg.seed
    ));
    replayer
        .spans
        .write_tsv(&trace_path)
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    notes.push(format!(
        "spans: {} written to {}",
        replayer.spans.spans.len(),
        trace_path.display()
    ));

    let ops = replayer.stats.ops.max(1) as f64;
    let d = |name: &str| server::delta(&before, &after, name);
    let per_op = |v: f64| v / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let by_name = replayer.spans.self_by_name();
    let ms = |name: &str| by_name.get(name).map_or(0.0, |t| t.as_secs_f64() * 1e3);
    let walls = |drive: &Drive| {
        let mut w: Vec<f64> = drive
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.wall.as_secs_f64() * 1e3)
            .collect();
        median(&mut w)
    };
    let traced_ms = walls(&traced);
    let untraced_ms = walls(&untraced);

    // Replay counters against the server's deltas.
    let server_counts: Vec<(&str, f64)> = replayer
        .counts
        .series()
        .iter()
        .map(|(n, _)| (*n, d(n)))
        .collect();
    let mismatches: Vec<String> = replayer
        .counts
        .series()
        .iter()
        .zip(&server_counts)
        .filter(|((_, mine), (_, theirs))| *mine as f64 != *theirs)
        .map(|((name, mine), (_, theirs))| format!("{name}: replay {mine} server {theirs}"))
        .collect();
    let counts_match = if connections == 1 {
        Some(mismatches.is_empty())
    } else {
        None
    };
    notes.push(format!(
        "traced ops: {} (server {} requests); replay counts {}",
        replayer.stats.ops,
        traced.samples.len(),
        if mismatches.is_empty() {
            "equal the /metrics deltas".to_owned()
        } else {
            format!(
                "differ{}: {}",
                if connections > 1 {
                    " (not asserted: concurrent connections reorder the LRU)"
                } else {
                    ""
                },
                mismatches.join("; ")
            )
        }
    ));
    notes.push(count_note(&before, &after, ops));
    notes.push(format!(
        "replayed self ms per op: {}",
        by_name
            .iter()
            .map(|(n, t)| format!("{n}={:.4}", t.as_secs_f64() * 1e3 / ops))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let st = &replayer.stats;
    let setup_puts = st.setup_puts.max(1) as f64;
    let index_queries = if cfg.workload == Workload::Topk1k {
        ops
    } else {
        0.0
    };
    let metrics = vec![
        metric("xsd.parse_ms", per_op(ms("xsd.parse")), "ms"),
        metric("xsd.compile_ms", per_op(ms("xsd.compile")), "ms"),
        metric(
            "setup.xsd_ms",
            st.setup_xsd.as_secs_f64() * 1e3 / setup_puts,
            "ms",
        ),
        metric(
            "setup.register_ms",
            st.setup_register.as_secs_f64() * 1e3 / setup_puts,
            "ms",
        ),
        metric("session.prepare_ms", per_op(ms("session.prepare")), "ms"),
        metric("registry.lookup_ms", per_op(ms("registry.lookup")), "ms"),
        metric("labels.matrix_ms", per_op(ms("labels.matrix")), "ms"),
        metric(
            "labels.cache_hit_rate",
            ratio(
                d("qmatch_label_cache_hits_total"),
                d("qmatch_label_cache_hits_total") + d("qmatch_label_cache_misses_total"),
            ),
            "ratio",
        ),
        metric(
            "labels.hits_per_op",
            per_op(d("qmatch_label_cache_hits_total")),
            "count",
        ),
        metric(
            "labels.misses_per_op",
            per_op(d("qmatch_label_cache_misses_total")),
            "count",
        ),
        metric("hybrid.run_ms", per_op(ms("hybrid.run")), "ms"),
        metric("hybrid.seq_ms", per_op(ms("hybrid.seq")), "ms"),
        metric("mapping.extract_ms", per_op(ms("mapping.extract")), "ms"),
        metric("render.category_ms", per_op(ms("render.category")), "ms"),
        metric("index.signature_ms", per_op(ms("index.signature")), "ms"),
        metric("index.candidates_ms", per_op(ms("index.candidates")), "ms"),
        metric(
            "index.candidates_per_query",
            ratio(d("qmatch_index_candidates"), index_queries),
            "count",
        ),
        metric(
            "index.filtered_per_query",
            ratio(d("qmatch_index_filtered_total"), index_queries),
            "count",
        ),
        metric("diff.ms", per_op(ms("diff")), "ms"),
        metric(
            "diff.dirty_fraction",
            ratio(st.dirty_fraction, st.puts as f64),
            "ratio",
        ),
        metric("evolve.reprepare_ms", per_op(ms("evolve.reprepare")), "ms"),
        metric(
            "evolve.incremental_ratio",
            ratio(
                d("qmatch_evolve_incremental_total"),
                d("qmatch_evolve_incremental_total") + d("qmatch_evolve_full_total"),
            ),
            "ratio",
        ),
        metric(
            "registry.resident_hit_rate",
            ratio(
                d("qmatch_prepare_hits_total"),
                d("qmatch_prepare_hits_total") + d("qmatch_prepare_misses_total"),
            ),
            "ratio",
        ),
        metric(
            "registry.prepare_misses_per_op",
            per_op(d("qmatch_prepare_misses_total")),
            "count",
        ),
        metric(
            "registry.evictions_per_op",
            per_op(d("qmatch_prepare_evictions_total")),
            "count",
        ),
        metric(
            "serve.queue_wait_ms",
            ratio(
                d("qmatch_queue_wait_us_sum"),
                d("qmatch_queue_wait_us_count"),
            ) / 1e3,
            "ms",
        ),
        metric(
            "serve.scatter_ms",
            ratio(
                d("qmatch_shard_scatter_us_sum"),
                d("qmatch_shard_scatter_us_count"),
            ) / 1e3,
            "ms",
        ),
        metric("wal.append_ms", per_op(ms("wal.append")), "ms"),
        metric("wal.sync_ms", per_op(ms("wal.sync")), "ms"),
        metric("wal.compact_ms", per_op(ms("wal.compact")), "ms"),
        metric(
            "wal.compactions_per_op",
            per_op(st.compactions as f64),
            "count",
        ),
        metric("wal.bytes_per_op", per_op(d("qmatch_wal_bytes_total")), "B"),
        metric(
            "serve.overhead_ms",
            per_op((st.http.as_secs_f64() - st.critical_path.as_secs_f64()) * 1e3),
            "ms",
        ),
        metric("op.traced_p50_ms", traced_ms, "ms"),
        metric("op.untraced_p50_ms", untraced_ms, "ms"),
        metric(
            "trace.overhead_ratio",
            ratio(traced_ms, untraced_ms),
            "ratio",
        ),
        metric(
            "replay.counts_match",
            if mismatches.is_empty() { 1.0 } else { 0.0 },
            "bool",
        ),
    ];
    Ok((metrics, counts_match, untraced.next))
}

/// The smoke mode: every workload at [`Scale::SMOKE`], untraced and
/// traced, must finish with zero failed operations (and, traced, with
/// replay counts equal to the server's); then a run against a corrupted
/// reference must count every operation it checks as failed.
pub fn smoke(launcher: &Launcher, work_dir: &std::path::Path) -> Result<String, String> {
    let mut summary = Vec::new();
    let base = |workload: Workload, trace: bool| Config {
        workload,
        seed: 7,
        seconds: 0.6,
        trace,
        launcher: launcher.clone(),
        work_dir: work_dir.to_path_buf(),
        scale: Scale::SMOKE,
        setup_repeats: 2,
        corrupt_reference: false,
    };
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&base(workload, trace))?;
            if !outcome.correct() {
                return Err(format!(
                    "{} trace={trace}: {} of {} failed, counts_match={:?}: {:?} {:?}",
                    workload.name(),
                    outcome.failed,
                    outcome.attempted,
                    outcome.counts_match,
                    outcome.errors,
                    outcome.notes
                ));
            }
            let key = if trace {
                "trace.overhead_ratio"
            } else {
                "ops_per_s"
            };
            if outcome.metric(key).is_none_or(|v| v <= 0.0) {
                return Err(format!("{} trace={trace}: no {key}", workload.name()));
            }
            summary.push(format!(
                "{} trace={}: attempted {} failed 0 {key} {:.3}",
                workload.name(),
                u8::from(trace),
                outcome.attempted,
                outcome.metric(key).unwrap_or(0.0)
            ));
        }
    }
    let corrupt = run(&Config {
        corrupt_reference: true,
        ..base(Workload::MatchDeep, false)
    })?;
    let checked = corrupt.attempted - corrupt.setup_requests;
    if corrupt.correct() || corrupt.failed != checked || checked == 0 {
        return Err(format!(
            "corrupted reference: {} failed of {checked} checked operations",
            corrupt.failed
        ));
    }
    summary.push(format!(
        "corrupted reference: all {checked} checked operations counted as failed"
    ));
    Ok(summary.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_above_it() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted), (900.0, 90.0), "the ladder stops at p90");
        assert_eq!(tail(&sorted[..100]), (90.0, 90.0), "exactly ten above p90");
        assert_eq!(tail(&sorted[..99]), (75.0, 75.0), "nine above p90");
        assert_eq!(tail(&sorted[..39]), (20.0, 50.0));
        assert_eq!(tail(&sorted[..5]), (5.0, 100.0));
        assert_eq!(tail(&[]), (0.0, 100.0));
        let mut odd = vec![3.0, 1.0, 2.0];
        assert_eq!(median(&mut odd), 2.0);
        let mut even = vec![4.0, 1.0, 2.0, 3.0];
        assert_eq!(median(&mut even), 2.5);
    }

    #[test]
    fn checker_counts_wrong_replies_and_trusts_verified_bytes() {
        let plan = Plan::build(Workload::Topk1k, 1, Scale::SMOKE);
        let checker = Checker {
            plan: &plan,
            expect: vec![Expect::Topk(vec![("a".into(), 0.5)]); plan.keys()],
            verified: (0..plan.keys()).map(|_| OnceLock::new()).collect(),
        };
        let good = Reply {
            status: 200,
            body: br#"{"ranking":[{"target":"a","total_qom":0.5}]}"#.to_vec(),
        };
        let tally = Tally::default();
        assert!(tally.record(checker.check(0, &good)));
        assert!(
            tally.record(checker.check(plan.queries.len(), &good)),
            "same key, same bytes"
        );
        let wrong = Reply {
            status: 200,
            body: br#"{"ranking":[{"target":"b","total_qom":0.5}]}"#.to_vec(),
        };
        assert!(!tally.record(checker.check(0, &wrong)));
        assert!(!tally.record(checker.check(
            1,
            &Reply {
                status: 429,
                ..good.clone()
            }
        )));
        assert_eq!(tally.attempted.load(Ordering::Relaxed), 4);
        assert_eq!(tally.failed.load(Ordering::Relaxed), 2);
    }
}
