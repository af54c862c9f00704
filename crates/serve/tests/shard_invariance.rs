//! 1 shard == N shards, end to end through the request handlers.
//!
//! A sharded registry runs artifacts prepared by one shard's session on
//! another shard's session (the top-k scatter ranks the source's artifact
//! on every shard; `/v1/match` runs the target's on the source's owner).
//! Label-cache keys are interner symbols, so this only stays correct if
//! every session either shares the preparing interner or re-interns the
//! foreign artifact. A drift registry of a few hundred schemas interns
//! enough distinct labels, in shard-dependent orders, that a symbol from
//! the wrong interner would hit a cached comparison of some other label
//! pair and change a score.

use qmatch_core::model::MatchConfig;
use qmatch_core::MatchSession;
use qmatch_datasets::drift::synthetic_registry;
use qmatch_serve::handlers::handle;
use qmatch_serve::http::Request;
use qmatch_serve::{Metrics, Registry, ServeState, Shard};
use qmatch_xsd::{IngestLimits, SchemaTree};
use std::sync::Arc;

const SCHEMAS: usize = 200;
/// Small enough that shards evict and re-prepare while ranking.
const MAX_RESIDENT: usize = 24;

fn state(registry: Registry, corpus: &[(String, SchemaTree)]) -> ServeState {
    for (name, tree) in corpus {
        registry.register(name, tree.clone(), b"");
    }
    ServeState {
        registry,
        metrics: Arc::new(Metrics::new()),
        limits: IngestLimits::default(),
        persist: None,
    }
}

/// Two shards whose sessions share one interner, as the server builds them.
fn siblings(shards: usize) -> Registry {
    let base = MatchSession::new(MatchConfig::default());
    Registry::new(
        (0..shards)
            .map(|i| Arc::new(Shard::new(i, base.sibling(), MAX_RESIDENT)))
            .collect(),
    )
}

/// Shards with unrelated sessions: every cross-shard artifact is foreign.
fn strangers(shards: usize) -> Registry {
    Registry::new(
        (0..shards)
            .map(|i| {
                Arc::new(Shard::new(
                    i,
                    MatchSession::new(MatchConfig::default()),
                    MAX_RESIDENT,
                ))
            })
            .collect(),
    )
}

fn post(path: &str, query: &[(&str, &str)]) -> Request {
    Request {
        method: "POST".into(),
        path: path.into(),
        query: query
            .iter()
            .map(|&(k, v)| (k.to_owned(), v.to_owned()))
            .collect(),
        headers: Vec::new(),
        body: Vec::new(),
        keep_alive: true,
    }
}

/// Every reply body the registry gives: a top-k ranking per schema and a
/// match of each schema against its neighbour in the corpus.
fn replies(state: &ServeState, corpus: &[(String, SchemaTree)]) -> Vec<Vec<u8>> {
    let mut bodies = Vec::new();
    for (i, (source, _)) in corpus.iter().enumerate() {
        let target = &corpus[(i + 1) % corpus.len()].0;
        for request in [
            post("/v1/match/topk", &[("source", source), ("k", "5")]),
            post("/v1/match", &[("source", source), ("target", target)]),
        ] {
            let (_, response) = handle(&request, state);
            assert_eq!(response.status, 200, "{source}");
            bodies.push(response.body);
        }
    }
    bodies
}

#[test]
fn sharded_replies_are_byte_identical_to_one_shard() {
    let corpus = synthetic_registry(SCHEMAS, 1);
    let single = replies(&state(siblings(1), &corpus), &corpus);
    for (label, registry) in [
        ("2 sibling shards", siblings(2)),
        ("2 unrelated shards", strangers(2)),
    ] {
        let sharded = replies(&state(registry, &corpus), &corpus);
        assert_eq!(single.len(), sharded.len());
        for (k, (a, b)) in single.iter().zip(&sharded).enumerate() {
            assert!(
                a == b,
                "{label}: reply {k} differs:\n{}\n{}",
                String::from_utf8_lossy(a),
                String::from_utf8_lossy(b)
            );
        }
    }
}
