//! The four workloads: seeded input synthesis, the operation sequence each
//! one runs, and the in-process reference every reply is checked against.
//!
//! Everything here runs before the server starts; the server receives
//! only the XSD bytes built here.

use crate::http::Reply;
use crate::json::Json;
use qmatch_bench::synth_tree::{balanced_tree_with_vocab, SCHEMA_VOCAB};
use qmatch_core::algorithms::Algorithm;
use qmatch_core::index::{CorpusIndex, IndexParams, IndexPolicy};
use qmatch_core::mapping::{extract_mapping, path_of};
use qmatch_core::model::MatchConfig;
use qmatch_core::quality::default_threshold;
use qmatch_core::session::{MatchSession, OwnedPreparedSchema};
use qmatch_datasets::{drift, synth};
use qmatch_prng::SmallRng;
use qmatch_xsd::{
    parse_schema_with_limits, DataType, IngestLimits, MaxOccurs, NodeId, NodeKind, SchemaTree,
    TreeProfile,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The benchmark's workloads (see README.md for why each was chosen).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MatchProtein,
    MatchDeep,
    Topk1k,
    PutEvolve,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MatchProtein,
        Workload::MatchDeep,
        Workload::Topk1k,
        Workload::PutEvolve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatchProtein => "match-protein",
            Workload::MatchDeep => "match-deep",
            Workload::Topk1k => "topk-1k",
            Workload::PutEvolve => "put-evolve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections: `topk-1k` uses two (one per core of the
    /// reference host, never more than `nproc`), the rest one.
    pub fn connections(self, nproc: usize) -> usize {
        match self {
            Workload::Topk1k => 2.min(nproc).max(1),
            _ => 1,
        }
    }
}

/// Input sizes: the benchmark's, or the smoke test's much smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// `balanced_tree_with_vocab(3, depth)` for match-deep.
    pub deep_depth: usize,
    /// Registry size for topk-1k.
    pub registry: usize,
    /// Distinct top-k queries (cycled in seeded order).
    pub queries: usize,
    /// Revisions in the put-evolve chain (walked forward and back).
    pub chain: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        deep_depth: 7,
        registry: 1000,
        queries: 400,
        chain: 48,
    };
    pub const SMOKE: Scale = Scale {
        deep_depth: 4,
        registry: 80,
        queries: 12,
        chain: 4,
    };
}

/// `k` of every top-k query.
pub const TOPK_K: usize = 10;
/// Label drift of the match-deep revision and of each put-evolve step.
const DEEP_DRIFT: f64 = 0.05;
const EVOLVE_DRIFT: f64 = 0.02;

/// One operation of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Match { source: String, target: String },
    Topk { source: String },
    Put { name: String, rev: usize },
}

/// A workload instance: what setup `PUT`s, and the operation sequence.
pub struct Plan {
    pub workload: Workload,
    /// `(name, XSD body)` registered during setup, in order.
    pub setup: Vec<(String, Arc<[u8]>)>,
    /// Operations `0..warmup` run (untimed) at the end of setup; the timed
    /// window continues the sequence from there.
    pub warmup: usize,
    /// Distinct top-k query sources, cycled by the op sequence.
    pub queries: Vec<String>,
    /// put-evolve: the revision bodies of `pdb`, index = revision.
    pub revisions: Vec<Arc<[u8]>>,
}

impl Plan {
    /// Synthesises the inputs of `workload` from `seed`.
    pub fn build(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let mut plan = Plan {
            workload,
            setup: Vec::new(),
            warmup: 2,
            queries: Vec::new(),
            revisions: Vec::new(),
        };
        let body = |xsd: String| -> Arc<[u8]> { Arc::from(xsd.into_bytes()) };
        match workload {
            Workload::MatchProtein => {
                // The paper's fixed PIR (231) ↔ PDB (3753) pair: the seed
                // has nothing to vary here.
                let corpus = synth::protein_corpus();
                plan.setup
                    .push(("pir".into(), body(corpus.pir_xsd.clone())));
                plan.setup
                    .push(("pdb".into(), body(corpus.pdb_xsd.clone())));
            }
            Workload::MatchDeep => {
                let tree = balanced_tree_with_vocab(3, scale.deep_depth, SCHEMA_VOCAB);
                let revision = drift::mutation_chain(&tree, 1, DEEP_DRIFT, seed).remove(0);
                plan.setup.push(("deep".into(), body(render_xsd(&tree))));
                plan.setup
                    .push(("deep-rev".into(), body(render_xsd(&revision))));
            }
            Workload::Topk1k => {
                let registry = drift::synthetic_registry(scale.registry, seed);
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x7470_6b31_6b00_0000);
                plan.queries = (0..scale.queries)
                    .map(|_| registry[rng.gen_range(0..registry.len())].0.clone())
                    .collect();
                plan.setup = registry
                    .iter()
                    .map(|(name, tree)| (name.clone(), body(render_xsd(tree))))
                    .collect();
                // One pass over the queries fills the label cache.
                plan.warmup = plan.queries.len();
            }
            Workload::PutEvolve => {
                let corpus = synth::protein_corpus();
                let chain = drift::mutation_chain(&corpus.pdb, scale.chain, EVOLVE_DRIFT, seed);
                plan.revisions = chain.iter().map(|t| body(render_xsd(t))).collect();
                plan.setup
                    .push(("pir".into(), body(corpus.pir_xsd.clone())));
                plan.setup.push(("pdb".into(), plan.revisions[0].clone()));
                plan.warmup = 3;
            }
        }
        plan
    }

    /// The `i`-th operation of the (unbounded) sequence.
    pub fn op(&self, i: usize) -> Op {
        match self.workload {
            Workload::MatchProtein => Op::Match {
                source: "pir".into(),
                target: "pdb".into(),
            },
            Workload::MatchDeep => Op::Match {
                source: "deep".into(),
                target: "deep-rev".into(),
            },
            Workload::Topk1k => Op::Topk {
                source: self.queries[i % self.queries.len()].clone(),
            },
            Workload::PutEvolve => Op::Put {
                name: "pdb".into(),
                rev: self.revision(i),
            },
        }
    }

    /// put-evolve walks the chain forward and back (1, 2, …, n-1, n-2, …,
    /// 0, 1, …) so every PUT is one small drift step from the last one.
    pub fn revision(&self, i: usize) -> usize {
        let n = self.revisions.len();
        if n < 2 {
            return 0;
        }
        let period = 2 * (n - 1);
        let m = (i + 1) % period;
        if m < n {
            m
        } else {
            period - m
        }
    }

    /// Replies to equal keys must be byte-identical.
    pub fn key(&self, i: usize) -> usize {
        match self.workload {
            Workload::MatchProtein | Workload::MatchDeep => 0,
            Workload::Topk1k => i % self.queries.len(),
            Workload::PutEvolve => self.revision(i),
        }
    }

    pub fn keys(&self) -> usize {
        match self.workload {
            Workload::MatchProtein | Workload::MatchDeep => 1,
            Workload::Topk1k => self.queries.len(),
            Workload::PutEvolve => self.revisions.len(),
        }
    }
}

/// The HTTP request for an operation: `(method, target, body)`.
pub fn request(plan: &Plan, op: &Op) -> (&'static str, String, Arc<[u8]>) {
    match op {
        Op::Match { source, target } => (
            "POST",
            format!("/v1/match?source={source}&target={target}"),
            Arc::from(&b""[..]),
        ),
        Op::Topk { source } => (
            "POST",
            format!("/v1/match/topk?source={source}&k={TOPK_K}"),
            Arc::from(&b""[..]),
        ),
        Op::Put { name, rev } => (
            "PUT",
            format!("/v1/schemas/{name}"),
            plan.revisions[*rev].clone(),
        ),
    }
}

/// Renders a schema tree as an XSD document of nested anonymous complex
/// types (elements first, then attributes — the order the compiler
/// produces), indented like a hand-written schema.
pub fn render_xsd(tree: &SchemaTree) -> String {
    let mut out = String::with_capacity(tree.len() * 96);
    out.push_str(
        "<?xml version=\"1.0\"?>\n<xs:schema xmlns:xs=\"http://www.w3.org/2001/XMLSchema\">\n",
    );
    render_node(tree, tree.root_id(), 1, true, &mut out);
    out.push_str("</xs:schema>\n");
    out
}

fn render_node(tree: &SchemaTree, id: NodeId, depth: usize, root: bool, out: &mut String) {
    let node = tree.node(id);
    let props = &node.properties;
    let pad = "  ".repeat(depth);
    let simple = match &props.data_type {
        DataType::Builtin(b) => format!("xs:{b}"),
        DataType::Complex(_) => "xs:string".to_owned(),
    };
    if node.kind == NodeKind::Attribute {
        let required = if props.min_occurs > 0 {
            " use=\"required\""
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{pad}<xs:attribute name=\"{}\" type=\"{simple}\"{required}/>",
            node.label
        );
        return;
    }
    let mut occurs = String::new();
    if !root {
        if props.min_occurs != 1 {
            let _ = write!(occurs, " minOccurs=\"{}\"", props.min_occurs);
        }
        match props.max_occurs {
            MaxOccurs::Bounded(1) => {}
            MaxOccurs::Bounded(n) => {
                let _ = write!(occurs, " maxOccurs=\"{n}\"");
            }
            MaxOccurs::Unbounded => occurs.push_str(" maxOccurs=\"unbounded\""),
        }
    }
    if node.children.is_empty() {
        let _ = writeln!(
            out,
            "{pad}<xs:element name=\"{}\" type=\"{simple}\"{occurs}/>",
            node.label
        );
        return;
    }
    let _ = writeln!(out, "{pad}<xs:element name=\"{}\"{occurs}>", node.label);
    let (elements, attributes): (Vec<NodeId>, Vec<NodeId>) = node
        .children
        .iter()
        .partition(|&&c| tree.node(c).kind == NodeKind::Element);
    let (open, close) = if elements.is_empty() {
        ("<xs:complexType>", "</xs:complexType>")
    } else {
        (
            "<xs:complexType><xs:sequence>",
            "</xs:sequence></xs:complexType>",
        )
    };
    let _ = writeln!(out, "{pad}  {open}");
    for c in elements {
        render_node(tree, c, depth + 2, false, out);
    }
    for c in attributes {
        render_node(tree, c, depth + 2, false, out);
    }
    let _ = writeln!(out, "{pad}  {close}");
    let _ = writeln!(out, "{pad}</xs:element>");
}

/// Parses and compiles a body exactly as `PUT /v1/schemas` does.
pub fn compile(body: &[u8]) -> Result<SchemaTree, String> {
    let limits = IngestLimits::default();
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    parse_schema_with_limits(text, &limits)
        .and_then(|schema| SchemaTree::compile_with_limits(&schema, &limits))
        .map_err(|e| e.to_string())
}

/// What one reply must say.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    Match {
        total_qom: f64,
        /// `(source path, target path, score)` in mapping order.
        mapping: Vec<(String, String, f64)>,
    },
    Topk(Vec<(String, f64)>),
    Put {
        name: String,
        nodes: usize,
        replaced: bool,
    },
}

/// The in-process reference: one expectation per setup `PUT` and per
/// operation key, computed with a single fresh session.
pub struct Reference {
    pub setup: Vec<Expect>,
    pub keys: Vec<Expect>,
}

impl Reference {
    pub fn compute(plan: &Plan) -> Result<Reference, String> {
        let session = MatchSession::new(MatchConfig::default());
        let mut trees: HashMap<&str, Arc<SchemaTree>> = HashMap::new();
        let mut setup = Vec::with_capacity(plan.setup.len());
        for (name, body) in &plan.setup {
            let tree = compile(body).map_err(|e| format!("setup schema {name}: {e}"))?;
            setup.push(Expect::Put {
                name: name.clone(),
                nodes: TreeProfile::of(&tree).nodes,
                replaced: false,
            });
            trees.insert(name, Arc::new(tree));
        }
        let keys = match plan.workload {
            Workload::MatchProtein | Workload::MatchDeep => {
                let Op::Match { source, target } = plan.op(0) else {
                    unreachable!("match workloads only match")
                };
                vec![match_expect(
                    &session,
                    &trees[source.as_str()],
                    &trees[target.as_str()],
                )]
            }
            Workload::Topk1k => topk_expects(&session, plan, &trees),
            Workload::PutEvolve => plan
                .revisions
                .iter()
                .map(|body| {
                    compile(body).map(|tree| Expect::Put {
                        name: "pdb".into(),
                        nodes: TreeProfile::of(&tree).nodes,
                        replaced: true,
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        Ok(Reference { setup, keys })
    }
}

/// The reply `/v1/match?source&target` must give: hybrid total QoM and
/// the greedy mapping at the hybrid's default threshold.
pub fn match_expect(
    session: &MatchSession,
    source: &Arc<SchemaTree>,
    target: &Arc<SchemaTree>,
) -> Expect {
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    let outcome = session
        .run(&Algorithm::Hybrid, &sp, &tp)
        .expect("hybrid is infallible");
    let threshold = default_threshold(&Algorithm::Hybrid, session.config());
    let mapping = extract_mapping(&outcome.matrix, threshold)
        .pairs
        .iter()
        .map(|c| {
            (
                path_of(source, c.source),
                path_of(target, c.target),
                c.score,
            )
        })
        .collect();
    Expect::Match {
        total_qom: outcome.total_qom,
        mapping,
    }
}

/// The index-gated ranking of every distinct query: candidates from one
/// index over the whole registry (the per-shard candidate sets partition
/// it), hybrid root QoM, descending, ties by name, top `TOPK_K`.
fn topk_expects(
    session: &MatchSession,
    plan: &Plan,
    trees: &HashMap<&str, Arc<SchemaTree>>,
) -> Vec<Expect> {
    let prepared: HashMap<&str, OwnedPreparedSchema> = trees
        .iter()
        .map(|(name, tree)| (*name, session.prepare_owned(tree.clone())))
        .collect();
    let params = IndexParams::default();
    let indexed = IndexPolicy::Auto.engages(prepared.len(), &params);
    let mut index = CorpusIndex::new(params);
    let mut all: Vec<&str> = prepared.keys().copied().collect();
    all.sort_unstable();
    for name in &all {
        index.insert(name, session.signature(prepared[name].prepared()));
    }
    let mut memo: HashMap<&str, Vec<(String, f64)>> = HashMap::new();
    plan.queries
        .iter()
        .map(|query| {
            let ranking = memo.entry(query.as_str()).or_insert_with(|| {
                let source = prepared[query.as_str()].prepared();
                let names: Vec<String> = if indexed {
                    index.candidates(&session.signature(source)).names
                } else {
                    all.iter().map(|n| n.to_string()).collect()
                };
                let mut ranking: Vec<(String, f64)> = names
                    .into_iter()
                    .filter(|n| n != query)
                    .map(|n| {
                        let outcome = session
                            .run(&Algorithm::Hybrid, source, prepared[n.as_str()].prepared())
                            .expect("hybrid is infallible");
                        let qom = outcome.total_qom;
                        session.recycle(outcome);
                        (n, qom)
                    })
                    .collect();
                ranking.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                ranking.truncate(TOPK_K);
                ranking
            });
            Expect::Topk(ranking.clone())
        })
        .collect()
}

/// Checks a reply against its expectation.
pub fn check(expect: &Expect, reply: &Reply) -> Result<(), String> {
    if !reply.is_success() {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body[..reply.body.len().min(200)])
        ));
    }
    let text = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = Json::parse(text)?;
    let num = |doc: &Json, key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no number {key:?}"))
    };
    let string = |doc: &Json, key: &str| {
        doc.get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or(format!("no string {key:?}"))
    };
    match expect {
        Expect::Match { total_qom, mapping } => {
            let got = num(&doc, "total_qom")?;
            if got != *total_qom {
                return Err(format!("total_qom {got} != reference {total_qom}"));
            }
            let pairs = doc
                .get("mapping")
                .and_then(Json::as_arr)
                .ok_or("no mapping array")?;
            if pairs.len() != mapping.len() || num(&doc, "matches")? != mapping.len() as f64 {
                return Err(format!(
                    "{} mapping pairs != reference {}",
                    pairs.len(),
                    mapping.len()
                ));
            }
            for (i, (pair, (s, t, score))) in pairs.iter().zip(mapping).enumerate() {
                let got = (
                    string(pair, "source_path")?,
                    string(pair, "target_path")?,
                    num(pair, "score")?,
                );
                if (&got.0, &got.1, got.2) != (s, t, *score) {
                    return Err(format!(
                        "mapping[{i}] {got:?} != reference ({s}, {t}, {score})"
                    ));
                }
            }
        }
        Expect::Topk(ranking) => {
            let entries = doc
                .get("ranking")
                .and_then(Json::as_arr)
                .ok_or("no ranking array")?;
            let got: Vec<(String, f64)> = entries
                .iter()
                .map(|e| Ok((string(e, "target")?, num(e, "total_qom")?)))
                .collect::<Result<_, String>>()?;
            if &got != ranking {
                return Err(format!("ranking {got:?} != reference {ranking:?}"));
            }
        }
        Expect::Put {
            name,
            nodes,
            replaced,
        } => {
            let got_name = string(&doc, "name")?;
            let got_nodes = num(&doc, "nodes")?;
            let got_replaced = doc
                .get("replaced")
                .and_then(Json::as_bool)
                .ok_or("no bool \"replaced\"")?;
            if (&got_name, got_nodes, got_replaced) != (name, *nodes as f64, *replaced) {
                return Err(format!(
                    "put reply ({got_name}, {got_nodes}, {got_replaced}) != reference ({name}, {nodes}, {replaced})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_xsd_compiles_back_to_the_same_shape() {
        let corpus = synth::protein_corpus();
        for tree in [&corpus.pir, &corpus.pdb] {
            let back = compile(render_xsd(tree).as_bytes()).unwrap();
            assert_eq!(back.len(), tree.len());
            let labels =
                |t: &SchemaTree| t.iter().map(|(_, n)| n.label.clone()).collect::<Vec<_>>();
            assert_eq!(labels(&back), labels(tree));
        }
        let deep = balanced_tree_with_vocab(3, 3, SCHEMA_VOCAB);
        assert_eq!(
            compile(render_xsd(&deep).as_bytes()).unwrap().len(),
            deep.len()
        );
    }

    #[test]
    fn evolve_walks_the_chain_back_and_forth_one_step_at_a_time() {
        let plan = Plan::build(Workload::PutEvolve, 3, Scale::SMOKE);
        let revs: Vec<usize> = (0..8).map(|i| plan.revision(i)).collect();
        assert_eq!(revs, [1, 2, 3, 2, 1, 0, 1, 2]);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = Plan::build(Workload::Topk1k, 5, Scale::SMOKE);
        let b = Plan::build(Workload::Topk1k, 5, Scale::SMOKE);
        let c = Plan::build(Workload::Topk1k, 6, Scale::SMOKE);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.setup[7].1, b.setup[7].1);
        assert_ne!(
            (a.queries.clone(), a.setup[7].1.clone()),
            (c.queries, c.setup[7].1.clone())
        );
    }

    #[test]
    fn wrong_bodies_and_statuses_fail_the_check() {
        let expect = Expect::Topk(vec![("a".into(), 0.5), ("b".into(), 0.25)]);
        let reply = |status: u16, body: &str| Reply {
            status,
            body: body.as_bytes().to_vec(),
        };
        let good = r#"{"source":"q","ranking":[{"target":"a","total_qom":0.5},{"target":"b","total_qom":0.25}]}"#;
        assert!(check(&expect, &reply(200, good)).is_ok());
        assert!(check(&expect, &reply(503, good)).is_err());
        assert!(check(&expect, &reply(200, &good.replace("0.25", "0.2500001"))).is_err());
        assert!(check(&expect, &reply(200, &good.replace("\"b\"", "\"c\""))).is_err());
        assert!(check(&expect, &reply(200, "{\"ranking\":")).is_err());
        let put = Expect::Put {
            name: "pdb".into(),
            nodes: 3,
            replaced: true,
        };
        assert!(check(
            &put,
            &reply(
                200,
                r#"{"name":"pdb","replaced":true,"nodes":3,"max_depth":1}"#
            )
        )
        .is_ok());
        assert!(check(
            &put,
            &reply(
                201,
                r#"{"name":"pdb","replaced":false,"nodes":3,"max_depth":1}"#
            )
        )
        .is_err());
    }
}
