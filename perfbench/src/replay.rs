//! The traced replay: every operation sent over HTTP is run again in this
//! process through the public function of each layer it crosses on the
//! server, inside spans kept in memory.
//!
//! The replay keeps a mirror of the server's state — a
//! `qmatch_serve::Registry` with the same shard count and LRU cap, and for
//! put-evolve the resident revision plus a WAL of its own — and replays
//! setup and warm-up untimed, so that during the traced window it walks
//! the same path the server walks. Its counters (label cache, prepare LRU,
//! index, evolve, WAL bytes) must then equal the server's `/metrics`
//! deltas on single-connection workloads.
//!
//! Work the served path does not do — the label-matrix and sequential-DP
//! probes that split the hybrid run into layers — runs under a separate
//! `op.probe` root, after the served path, and is kept out of the counts.

use crate::workload::{compile, Op, Plan, Workload, TOPK_K};
use qmatch_core::algorithms::Algorithm;
use qmatch_core::index::{IndexParams, Signature};
use qmatch_core::mapping::extract_mapping;
use qmatch_core::matrix::Precision;
use qmatch_core::model::MatchConfig;
use qmatch_core::quality::default_threshold;
use qmatch_core::session::{MatchSession, OwnedPreparedSchema};
use qmatch_serve::metrics::RegistrySnapshot;
use qmatch_serve::{Persist, Registry, Shard};
use qmatch_xsd::{parse_schema_with_limits, IngestLimits, SchemaTree, TreeProfile};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server's defaults the mirror copies.
const MAX_RESIDENT: usize = 64;
const SNAPSHOT_BYTES: u64 = 4 * 1024 * 1024;

/// One span: a named interval, its parent, and the operation it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span log. Disabled logs record nothing (setup replay).
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
    enabled: bool,
    op: u64,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            enabled: false,
            op: 0,
        }
    }

    /// Opens a span; `parent` is the id of an open span.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            op: self.op,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if let Some(span) = self.spans.get_mut(id) {
            span.end = self.origin.elapsed();
        }
    }

    /// Records an interval measured elsewhere (the HTTP request wall).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start: start.saturating_duration_since(self.origin),
                end: end.saturating_duration_since(self.origin),
                parent: None,
                op: self.op,
            });
        }
    }

    fn rename(&mut self, id: usize, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id) {
            span.name = name;
        }
    }

    /// Each span's self time: its duration minus its children's (children
    /// of one span never overlap — the replay is sequential).
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Self time per span name, summed.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(span.name).or_insert(Duration::ZERO) += own;
        }
        out
    }

    /// Tab-separated dump: `op id parent name start_us end_us`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("op\tid\tparent\tname\tstart_us\tend_us\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "{}\t{id}\t{parent}\t{}\t{:.3}\t{:.3}\n",
                s.op,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            ));
        }
        std::fs::write(path, out)
    }
}

/// Counters the replay accumulates while enabled, named after the
/// `/metrics` series they must equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub label_hits: u64,
    pub label_misses: u64,
    pub prepare_hits: u64,
    pub prepare_misses: u64,
    pub evictions: u64,
    pub index_candidates: u64,
    pub index_filtered: u64,
    pub evolve_incremental: u64,
    pub evolve_full: u64,
    pub wal_bytes: u64,
}

impl Counts {
    /// `(name, value)` pairs in `/metrics` series order.
    pub fn series(&self) -> [(&'static str, u64); 10] {
        [
            ("qmatch_label_cache_hits_total", self.label_hits),
            ("qmatch_label_cache_misses_total", self.label_misses),
            ("qmatch_prepare_hits_total", self.prepare_hits),
            ("qmatch_prepare_misses_total", self.prepare_misses),
            ("qmatch_prepare_evictions_total", self.evictions),
            ("qmatch_index_candidates", self.index_candidates),
            ("qmatch_index_filtered_total", self.index_filtered),
            ("qmatch_evolve_incremental_total", self.evolve_incremental),
            ("qmatch_evolve_full_total", self.evolve_full),
            ("qmatch_wal_bytes_total", self.wal_bytes),
        ]
    }
}

/// The resident revision of an evolving schema.
struct Resident {
    tree: Arc<SchemaTree>,
    prepared: Arc<OwnedPreparedSchema>,
    signature: Signature,
}

/// Per-run replay statistics that are not counters.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Replayed traced operations.
    pub ops: u64,
    /// Sum of each op's critical path through the replayed layers (the
    /// slowest shard for a scatter), for `serve.overhead_ms`.
    pub critical_path: Duration,
    /// Sum of the HTTP walls of the traced operations.
    pub http: Duration,
    /// Sum of `TreeDiff::dirty_fraction` over replayed PUTs.
    pub dirty_fraction: f64,
    pub puts: u64,
    pub compactions: u64,
    /// Setup replay: parse+compile and register time per setup PUT.
    pub setup_xsd: Duration,
    pub setup_register: Duration,
    pub setup_puts: u64,
}

pub struct Replayer {
    workload: Workload,
    registry: Arc<Registry>,
    threshold: f64,
    precision: Precision,
    limits: IngestLimits,
    /// Latest body per name (the compaction dump).
    sources: BTreeMap<String, Arc<[u8]>>,
    persist: Option<Persist>,
    evolving: Option<Resident>,
    pub spans: Spans,
    pub counts: Counts,
    pub stats: Stats,
}

impl Replayer {
    /// A mirror of a fresh server with `shards` shards; put-evolve's WAL
    /// lives under `wal_dir`.
    pub fn new(workload: Workload, shards: usize, wal_dir: &Path) -> Result<Replayer, String> {
        let config = MatchConfig::default();
        let shards = (0..shards.max(1))
            .map(|i| Arc::new(Shard::new(i, MatchSession::new(config), MAX_RESIDENT)))
            .collect();
        let persist = if workload == Workload::PutEvolve {
            let _ = std::fs::remove_dir_all(wal_dir);
            // The server fsyncs inside `append`; a window longer than any
            // run defers the sync so `sync` can be timed on its own.
            let (persist, _) =
                Persist::open_with(wal_dir, SNAPSHOT_BYTES, Duration::from_secs(86_400))
                    .map_err(|e| format!("replay WAL {}: {e}", wal_dir.display()))?;
            Some(persist)
        } else {
            None
        };
        Ok(Replayer {
            workload,
            registry: Arc::new(Registry::new(shards)),
            threshold: default_threshold(&Algorithm::Hybrid, &config),
            precision: config.precision,
            limits: IngestLimits::default(),
            sources: BTreeMap::new(),
            persist,
            evolving: None,
            spans: Spans::new(),
            counts: Counts::default(),
            stats: Stats::default(),
        })
    }

    /// Replays setup: the `PUT`s, then the warm-up operations. Untraced,
    /// except for the per-PUT parse/compile and register times.
    pub fn setup(&mut self, plan: &Plan) -> Result<(), String> {
        for (name, body) in &plan.setup {
            let t0 = Instant::now();
            let tree = compile(body).map_err(|e| format!("{name}: {e}"))?;
            let t1 = Instant::now();
            self.registry.register(name, tree, body);
            self.stats.setup_xsd += t1 - t0;
            self.stats.setup_register += t1.elapsed();
            self.stats.setup_puts += 1;
            self.log(name, body)?;
        }
        if self.workload == Workload::PutEvolve {
            let session = self.registry.owner("pdb").session();
            let prepared = self
                .registry
                .prepared("pdb")
                .ok_or("pdb is not registered")?;
            let signature = session.signature(prepared.prepared());
            self.evolving = Some(Resident {
                tree: prepared.tree_arc().clone(),
                prepared,
                signature,
            });
        }
        for i in 0..plan.warmup {
            self.op(plan, i)?;
        }
        Ok(())
    }

    /// Turns span and count recording on for the traced window.
    pub fn enable(&mut self) {
        self.spans.enabled = true;
        self.spans.origin = Instant::now();
    }

    /// Registry counters of the mirror (prepare LRU, index).
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Replays one traced operation whose HTTP request took
    /// `http_start..http_end`.
    pub fn traced(
        &mut self,
        plan: &Plan,
        i: usize,
        http_start: Instant,
        http_end: Instant,
    ) -> Result<(), String> {
        self.spans.op = i as u64;
        self.spans.record("op.http", http_start, http_end);
        self.stats.http += http_end - http_start;
        self.stats.ops += 1;
        self.op(plan, i)
    }

    fn op(&mut self, plan: &Plan, i: usize) -> Result<(), String> {
        match plan.op(i) {
            Op::Match { source, target } => self.do_match(&source, &target),
            Op::Topk { source } => self.do_topk(&source),
            Op::Put { name, rev } => self.do_put(&name, &plan.revisions[rev]),
        }
    }

    /// A prepared lookup, named `session.prepare` when it missed the LRU.
    fn lookup(
        &mut self,
        shard: &Shard,
        name: &str,
        parent: usize,
    ) -> Result<Arc<OwnedPreparedSchema>, String> {
        let misses = shard.snapshot().prepare_misses;
        let span = self.spans.begin("registry.lookup", Some(parent));
        let prepared = shard
            .prepared(name)
            .ok_or_else(|| format!("{name} is not registered"))?;
        self.spans.end(span);
        if shard.snapshot().prepare_misses > misses {
            self.spans.rename(span, "session.prepare");
        }
        Ok(prepared)
    }

    /// The served hybrid run, with its label-cache counts.
    fn hybrid(
        &mut self,
        session: &MatchSession,
        source: &OwnedPreparedSchema,
        target: &OwnedPreparedSchema,
        parent: usize,
    ) -> qmatch_core::MatchOutcome {
        let before = session.cache_stats();
        let span = self.spans.begin("hybrid.run", Some(parent));
        let outcome = session
            .run_with_precision(
                &Algorithm::Hybrid,
                source.prepared(),
                target.prepared(),
                self.precision,
            )
            .expect("hybrid is infallible");
        self.spans.end(span);
        self.count_labels(session, before);
        outcome
    }

    fn count_labels(&mut self, session: &MatchSession, before: qmatch_core::CacheStats) {
        if self.spans.enabled {
            let after = session.cache_stats();
            self.counts.label_hits += after.hits - before.hits;
            self.counts.label_misses += after.misses - before.misses;
        }
    }

    /// Label-matrix and sequential-DP probes for one served pair.
    fn probe(
        &mut self,
        session: &MatchSession,
        source: &OwnedPreparedSchema,
        target: &OwnedPreparedSchema,
        parent: usize,
    ) {
        let span = self.spans.begin("labels.matrix", Some(parent));
        let labels = session.label_matrix(source.prepared(), target.prepared());
        self.spans.end(span);
        drop(labels);
        let span = self.spans.begin("hybrid.seq", Some(parent));
        let outcome = session
            .run_sequential(&Algorithm::Hybrid, source.prepared(), target.prepared())
            .expect("hybrid is infallible");
        self.spans.end(span);
        session.recycle(outcome);
    }

    /// `POST /v1/match`: look up both schemas, run the hybrid on the
    /// source owner's session, extract the mapping, classify the root
    /// (the reply's `category`).
    fn do_match(&mut self, source_name: &str, target_name: &str) -> Result<(), String> {
        let registry = self.registry.clone();
        let root = self.spans.begin("op.replay", None);
        let started = Instant::now();
        let source = self.lookup(registry.owner(source_name), source_name, root)?;
        let target = self.lookup(registry.owner(target_name), target_name, root)?;
        let session = registry.owner(source_name).session();
        let outcome = self.hybrid(session, &source, &target, root);
        let span = self.spans.begin("mapping.extract", Some(root));
        let mapping = extract_mapping(&outcome.matrix, self.threshold);
        self.spans.end(span);
        let before = session.cache_stats();
        let span = self.spans.begin("render.category", Some(root));
        let category = session.category(source.prepared(), target.prepared(), &outcome);
        self.spans.end(span);
        self.count_labels(session, before);
        std::hint::black_box((mapping, category));
        drop(outcome);
        self.path(started.elapsed());
        self.spans.end(root);
        if self.spans.enabled {
            let probe = self.spans.begin("op.probe", None);
            self.probe(session, &source, &target, probe);
            self.spans.end(probe);
        }
        Ok(())
    }

    /// `POST /v1/match/topk`: source lookup and signature, then each
    /// shard's partial (candidates → lookups → hybrid runs → local
    /// top-k), then the merge. Shards run in parallel on the server, so
    /// the critical path takes the slowest partial.
    fn do_topk(&mut self, source_name: &str) -> Result<(), String> {
        let registry = self.registry.clone();
        let root = self.spans.begin("op.replay", None);
        let started = Instant::now();
        let source = self.lookup(registry.owner(source_name), source_name, root)?;
        let span = self.spans.begin("index.signature", Some(root));
        let signature = registry.session().signature(source.prepared());
        self.spans.end(span);
        let mut path = started.elapsed();
        let indexed =
            qmatch_core::index::IndexPolicy::Auto.engages(registry.len(), &IndexParams::default());
        let mut partials: Vec<(String, f64)> = Vec::new();
        let mut slowest = Duration::ZERO;
        let mut pairs: Vec<(usize, Arc<OwnedPreparedSchema>)> = Vec::new();
        for (index, shard) in registry.shards().iter().enumerate() {
            let partial_start = Instant::now();
            let partial = self.spans.begin("serve.partial", Some(root));
            let before = shard.snapshot();
            let span = self.spans.begin("index.candidates", Some(partial));
            let names = if indexed {
                shard.candidates(&signature)
            } else {
                shard.names()
            };
            self.spans.end(span);
            let mut ranking = Vec::new();
            for name in names {
                if name == source_name {
                    continue;
                }
                let target = self.lookup(shard, &name, partial)?;
                let outcome = self.hybrid(shard.session(), &source, &target, partial);
                ranking.push((name, outcome.total_qom));
                shard.session().recycle(outcome);
                pairs.push((index, target));
            }
            ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            ranking.truncate(TOPK_K);
            partials.extend(ranking);
            self.spans.end(partial);
            self.count_shard(&before, &shard.snapshot());
            slowest = slowest.max(partial_start.elapsed());
        }
        let merge_start = Instant::now();
        let span = self.spans.begin("serve.merge", Some(root));
        partials.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        partials.truncate(TOPK_K);
        std::hint::black_box(&partials);
        self.spans.end(span);
        path += slowest + merge_start.elapsed();
        self.path(path);
        self.spans.end(root);
        if self.spans.enabled {
            let probe = self.spans.begin("op.probe", None);
            for (index, target) in pairs {
                self.probe(registry.shard(index).session(), &source, &target, probe);
            }
            self.spans.end(probe);
        }
        Ok(())
    }

    /// Index counters of one shard partial (prepare counters are counted
    /// per lookup).
    fn count_shard(&mut self, before: &RegistrySnapshot, after: &RegistrySnapshot) {
        if self.spans.enabled {
            self.counts.index_candidates += after.index_candidates - before.index_candidates;
            self.counts.index_filtered += after.index_filtered - before.index_filtered;
        }
    }

    /// `PUT /v1/schemas/{name}` of a new revision: parse, compile, the
    /// registry's incremental path (diff → re-prepare → evolved
    /// signature) or its full path, then the WAL append, fsync and
    /// compaction when due.
    fn do_put(&mut self, name: &str, body: &Arc<[u8]>) -> Result<(), String> {
        let root = self.spans.begin("op.replay", None);
        let started = Instant::now();
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        let span = self.spans.begin("xsd.parse", Some(root));
        let schema = parse_schema_with_limits(text, &self.limits).map_err(|e| e.to_string())?;
        self.spans.end(span);
        let span = self.spans.begin("xsd.compile", Some(root));
        let tree = Arc::new(
            SchemaTree::compile_with_limits(&schema, &self.limits).map_err(|e| e.to_string())?,
        );
        self.spans.end(span);
        let register = self.spans.begin("registry.register", Some(root));
        std::hint::black_box(TreeProfile::of(&tree));
        let registry = self.registry.clone();
        let session = registry.owner(name).session();
        let resident = match self.evolving.take() {
            Some(old) => {
                let span = self.spans.begin("diff", Some(register));
                let diff = session.diff_trees(&old.tree, &tree);
                self.spans.end(span);
                let span = self.spans.begin("evolve.reprepare", Some(register));
                let prepared =
                    Arc::new(session.reprepare_owned(&old.prepared, tree.clone(), &diff));
                self.spans.end(span);
                let span = self.spans.begin("index.signature", Some(register));
                let signature = session
                    .signature_evolved(&old.signature, old.prepared.prepared(), prepared.prepared())
                    .unwrap_or_else(|| session.signature(prepared.prepared()));
                self.spans.end(span);
                if self.spans.enabled {
                    self.counts.evolve_incremental += 1;
                    self.stats.dirty_fraction += diff.dirty_fraction();
                    self.stats.puts += 1;
                }
                Resident {
                    tree,
                    prepared,
                    signature,
                }
            }
            None => {
                let span = self.spans.begin("session.prepare", Some(register));
                let prepared = Arc::new(session.prepare_owned(tree.clone()));
                self.spans.end(span);
                let span = self.spans.begin("index.signature", Some(register));
                let signature = session.signature(prepared.prepared());
                self.spans.end(span);
                if self.spans.enabled {
                    self.counts.evolve_full += 1;
                    self.stats.puts += 1;
                }
                Resident {
                    tree,
                    prepared,
                    signature,
                }
            }
        };
        self.evolving = Some(resident);
        self.spans.end(register);
        self.log_traced(name, body, root)?;
        self.path(started.elapsed());
        self.spans.end(root);
        Ok(())
    }

    /// Setup-time WAL append (untraced).
    fn log(&mut self, name: &str, body: &Arc<[u8]>) -> Result<(), String> {
        self.log_traced(name, body, usize::MAX)
    }

    fn path(&mut self, elapsed: Duration) {
        if self.spans.enabled {
            self.stats.critical_path += elapsed;
        }
    }

    fn log_traced(&mut self, name: &str, body: &Arc<[u8]>, parent: usize) -> Result<(), String> {
        self.sources.insert(name.to_owned(), body.clone());
        let Some(persist) = &self.persist else {
            return Ok(());
        };
        let parent = (parent != usize::MAX).then_some(parent);
        let span = self.spans.begin("wal.append", parent);
        let bytes = persist
            .append(name, body)
            .map_err(|e| format!("WAL append: {e}"))?;
        self.spans.end(span);
        let span = self.spans.begin("wal.sync", parent);
        persist.sync().map_err(|e| format!("WAL sync: {e}"))?;
        self.spans.end(span);
        if persist.needs_compaction() {
            let span = self.spans.begin("wal.compact", parent);
            let dump: Vec<(String, Arc<[u8]>)> = self
                .sources
                .iter()
                .map(|(n, b)| (n.clone(), b.clone()))
                .collect();
            persist
                .compact(|| dump)
                .map_err(|e| format!("WAL compaction: {e}"))?;
            self.spans.end(span);
            if self.spans.enabled {
                self.stats.compactions += 1;
            }
        }
        if self.spans.enabled {
            self.counts.wal_bytes += bytes;
        }
        Ok(())
    }

    /// Ends recording: prepare-LRU counts come from the mirror's registry
    /// counters between `before` and now.
    pub fn finish(&mut self, before: &RegistrySnapshot) {
        let after = self.registry.snapshot();
        self.counts.prepare_hits = after.prepare_hits - before.prepare_hits;
        self.counts.prepare_misses = after.prepare_misses - before.prepare_misses;
        self.counts.evictions = after.evictions - before.evictions;
        self.spans.enabled = false;
    }
}
