//! The standalone structural matcher.
//!
//! Labels are ignored entirely; two nodes are similar when their *shapes*
//! agree — children (recursively), arity, properties (type/occurrence), and
//! nesting level. This is the paper's second baseline and the component that
//! lets QMatch match the structurally-identical but linguistically-disparate
//! schemas of Figures 7/8 (the Figure 9 experiment).
//!
//! The recursion mirrors CUPID's structural phase: similarity flows up from
//! the leaves through a greedy best-pair alignment of child sets, computed
//! bottom-up over all node pairs (the same memoized O(n·m) discipline as the
//! hybrid).

use super::{greedy_assignment, MatchOutcome};
use crate::arena::MatchArena;
use crate::matrix::{Precision, SimMatrix};
use crate::model::MatchConfig;
use crate::par;
use crate::props::compare_properties;
use crate::session::{MatchSession, PreparedSchema};
use crate::trace::{Phase, Span, Trace};
use qmatch_xsd::{NodeId, SchemaTree};

/// Component weights of the structural similarity. Children dominate, as in
/// the hybrid's weight model; the remainder splits between arity, the
/// property shape, and the level.
const W_CHILDREN: f64 = 0.45;
const W_ARITY: f64 = 0.15;
const W_PROPS: f64 = 0.25;
const W_LEVEL: f64 = 0.15;

/// Runs the structural matcher. `total_qom` is the similarity of the roots.
///
/// Both passes are wavefronted: the bottom-up shape DP by source-node
/// height, the top-down context blend by source-node depth. Bit-identical
/// to [`structural_match_sequential`].
///
/// # Migration
///
/// Use [`MatchSession::run`] with
/// [`Algorithm::Structural`](super::Algorithm::Structural) over prepared
/// schemas.
#[deprecated(
    since = "0.1.0",
    note = "use MatchSession::run(&Algorithm::Structural, ..) over prepared schemas"
)]
pub fn structural_match(
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
) -> MatchOutcome {
    let session = MatchSession::new(*config);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    session.structural(&sp, &tp)
}

/// The always-sequential engine: same arithmetic, no threads.
///
/// # Migration
///
/// Use [`MatchSession::run_sequential`] with
/// [`Algorithm::Structural`](super::Algorithm::Structural).
#[deprecated(
    since = "0.1.0",
    note = "use MatchSession::run_sequential(&Algorithm::Structural, ..) over prepared schemas"
)]
pub fn structural_match_sequential(
    source: &SchemaTree,
    target: &SchemaTree,
    config: &MatchConfig,
) -> MatchOutcome {
    let session = MatchSession::new(*config);
    let (sp, tp) = (session.prepare(source), session.prepare(target));
    session.structural_sequential(&sp, &tp)
}

pub(crate) fn structural_match_impl(
    source: &PreparedSchema,
    target: &PreparedSchema,
    config: &MatchConfig,
    parallel: bool,
    trace: &Trace,
    arena: &MatchArena,
    precision: Precision,
) -> MatchOutcome {
    let (rows_n, cols_n) = (source.tree().len(), target.tree().len());
    // Both passes run in f64 (the context blend reads the shape matrix cell
    // by cell); an f32 request only converts the final matrix. The two big
    // intermediates come from — and the shape pass returns to — the arena.
    let t_alloc = trace.start();
    let mut matrix = arena.take_matrix(rows_n, cols_n, Precision::F64);
    let mut contextual = arena.take_matrix(rows_n, cols_n, Precision::F64);
    trace.finish(
        t_alloc,
        Span {
            rows: (2 * rows_n) as u64,
            cells: (2 * rows_n * cols_n) as u64,
            ..Span::empty(Phase::Alloc)
        },
    );
    for (w, wave) in source.waves_by_height().iter().enumerate() {
        let t0 = trace.start();
        let rows = par::map_rows(wave.len(), parallel, |i| {
            structural_row(source, target, wave[i], config, &matrix)
        });
        for (&s, row) in wave.iter().zip(&rows) {
            matrix.set_row(s, row);
        }
        trace.finish(
            t0,
            Span {
                wave: w as u32,
                rows: wave.len() as u64,
                cells: (wave.len() * cols_n) as u64,
                ..Span::empty(Phase::StructuralWave)
            },
        );
    }
    // Top-down context pass: a pair is only as believable as its parents.
    // Without labels, two same-typed leaves at the same level and order are
    // indistinguishable; blending in the (already contextualized) parent
    // pair's similarity disambiguates them the way CUPID's structural phase
    // propagates context. A row depends only on the parent's row, one depth
    // wave earlier.
    for (w, wave) in source.waves_by_depth().iter().enumerate() {
        let t0 = trace.start();
        let rows = par::map_rows(wave.len(), parallel, |i| {
            context_row(source, target, wave[i], &matrix, &contextual)
        });
        for (&s, row) in wave.iter().zip(&rows) {
            contextual.set_row(s, row);
        }
        trace.finish(
            t0,
            Span {
                wave: w as u32,
                rows: wave.len() as u64,
                cells: (wave.len() * cols_n) as u64,
                ..Span::empty(Phase::ContextWave)
            },
        );
    }
    // The shape matrix is internal: hand its buffer straight back.
    arena.put_matrix(matrix);
    let matrix = arena.convert(contextual, precision);
    let total_qom = matrix.get(source.tree().root_id(), target.tree().root_id());
    MatchOutcome { matrix, total_qom }
}

/// One source node's row of the bottom-up shape DP.
fn structural_row(
    source: &PreparedSchema,
    target: &PreparedSchema,
    s: NodeId,
    config: &MatchConfig,
    matrix: &SimMatrix,
) -> Vec<f64> {
    let sn = source.tree().node(s);
    let s_leaf = source.is_leaf(s);
    let s_level = source.level(s);
    let s_props = source.props(s);
    (0..target.tree().len() as u32)
        .map(|t| {
            let t = NodeId(t);
            let t_props = target.props(t);
            match (s_leaf, target.is_leaf(t)) {
                // CUPID-style leaf similarity: the data type dominates (it
                // is the only structural evidence a leaf carries), with the
                // remaining properties and the nesting level refining it.
                (true, true) => {
                    let type_score =
                        crate::props::type_similarity(&s_props.data_type, &t_props.data_type);
                    let props_score = compare_properties(s_props, t_props).score;
                    let level_score = if s_level == target.level(t) { 1.0 } else { 0.0 };
                    0.6 * type_score + 0.2 * props_score + 0.2 * level_score
                }
                // A leaf carries no internal structure to align with a
                // subtree.
                (true, false) | (false, true) => 0.0,
                (false, false) => {
                    let tn = target.tree().node(t);
                    let scores: Vec<Vec<f64>> = sn
                        .children
                        .iter()
                        .map(|&cs| tn.children.iter().map(|&ct| matrix.get(cs, ct)).collect())
                        .collect();
                    let chosen = greedy_assignment(&scores);
                    let kept: f64 = chosen
                        .iter()
                        .filter(|(_, _, v)| *v >= config.threshold)
                        .map(|(_, _, v)| v)
                        .sum();
                    // Directional, like the paper's Rs (Eq. 4): the source's
                    // children must be covered; extra target children are
                    // not a penalty (the target schema may simply be richer).
                    let children_score = kept / sn.children.len() as f64;
                    let arity_score = arity_similarity(sn.children.len(), tn.children.len());
                    let props_score = compare_properties(s_props, t_props).score;
                    let level_score = if s_level == target.level(t) { 1.0 } else { 0.0 };
                    W_CHILDREN * children_score
                        + W_ARITY * arity_score
                        + W_PROPS * props_score
                        + W_LEVEL * level_score
                }
            }
        })
        .collect()
}

/// One source node's row of the top-down context blend.
fn context_row(
    source: &PreparedSchema,
    target: &PreparedSchema,
    s: NodeId,
    matrix: &SimMatrix,
    contextual: &SimMatrix,
) -> Vec<f64> {
    let sn = source.tree().node(s);
    (0..target.tree().len() as u32)
        .map(|t| {
            let t = NodeId(t);
            let tn = target.tree().node(t);
            let raw = matrix.get(s, t);
            match (sn.parent, tn.parent) {
                (None, None) => raw,
                (Some(ps), Some(pt)) => (1.0 - CONTEXT) * raw + CONTEXT * contextual.get(ps, pt),
                // A root never matches a non-root's context.
                _ => (1.0 - CONTEXT) * raw,
            }
        })
        .collect()
}

/// Weight of the parent-pair context in the top-down pass.
const CONTEXT: f64 = 0.25;

/// Directional arity fit: 1.0 when the target offers at least as many
/// children as the source needs, shrinking as the target falls short.
fn arity_similarity(source: usize, target: usize) -> f64 {
    match (source, target) {
        (0, 0) => 1.0,
        (0, _) | (_, 0) => 0.0,
        _ if target >= source => 1.0,
        _ => target as f64 / source as f64,
    }
}

/// Structural similarity of two specific nodes (exposed for diagnostics and
/// tests): equivalent to running the matcher and reading one cell.
#[cfg(test)]
#[allow(deprecated)]
pub(crate) fn pair_similarity(
    source: &SchemaTree,
    target: &SchemaTree,
    s: NodeId,
    t: NodeId,
    config: &MatchConfig,
) -> f64 {
    structural_match(source, target, config).matrix.get(s, t)
}

#[cfg(test)]
mod tests {
    #![allow(deprecated)] // the one-shot wrappers stay covered until removal
    use super::*;
    use qmatch_xsd::SchemaTree;

    fn library() -> SchemaTree {
        SchemaTree::from_labels(
            "Library",
            &[
                ("Library", None),
                ("Title", Some(0)),
                ("Book", Some(0)),
                ("number", Some(2)),
                ("character", Some(2)),
                ("Writer", Some(2)),
            ],
        )
    }

    fn human() -> SchemaTree {
        SchemaTree::from_labels(
            "human",
            &[
                ("human", None),
                ("head", Some(0)),
                ("body", Some(0)),
                ("hands", Some(2)),
                ("man", Some(2)),
                ("legs", Some(2)),
            ],
        )
    }

    #[test]
    fn identical_shapes_score_one() {
        // Figures 7/8: structurally identical, linguistically different.
        let out = structural_match(&library(), &human(), &MatchConfig::default());
        assert!(
            (out.total_qom - 1.0).abs() < 1e-9,
            "identical shapes must be structurally perfect: {}",
            out.total_qom
        );
    }

    #[test]
    fn self_match_is_one_everywhere_on_diagonal_structure() {
        let t = library();
        let out = structural_match(&t, &t, &MatchConfig::default());
        assert!((out.total_qom - 1.0).abs() < 1e-9);
        out.matrix.assert_normalized();
    }

    #[test]
    fn sequential_engine_agrees_exactly() {
        let (s, t) = (library(), human());
        let config = MatchConfig::default();
        let a = structural_match(&s, &t, &config);
        let b = structural_match_sequential(&s, &t, &config);
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.total_qom, b.total_qom);
    }

    #[test]
    fn different_shapes_score_lower() {
        let deep = SchemaTree::from_labels(
            "a",
            &[("a", None), ("b", Some(0)), ("c", Some(1)), ("d", Some(2))],
        );
        let wide = SchemaTree::from_labels(
            "a",
            &[("a", None), ("b", Some(0)), ("c", Some(0)), ("d", Some(0))],
        );
        let out = structural_match(&deep, &wide, &MatchConfig::default());
        assert!(out.total_qom < 0.8, "chain vs star: {}", out.total_qom);
    }

    #[test]
    fn leaf_vs_internal_gets_no_children_credit() {
        let leafy = SchemaTree::from_labels("x", &[("x", None)]);
        let nested = SchemaTree::from_labels("x", &[("x", None), ("y", Some(0))]);
        let out = structural_match(&leafy, &nested, &MatchConfig::default());
        // Children component 0, arity 0; props + level still match.
        assert!(out.total_qom < 0.5, "{}", out.total_qom);
    }

    #[test]
    fn arity_similarity_cases() {
        assert_eq!(arity_similarity(0, 0), 1.0);
        assert_eq!(arity_similarity(0, 3), 0.0);
        assert_eq!(arity_similarity(3, 0), 0.0);
        // Directional: a richer target fully covers the source's needs...
        assert_eq!(arity_similarity(2, 4), 1.0);
        // ...but a poorer target cannot.
        assert_eq!(arity_similarity(4, 2), 0.5);
        assert_eq!(arity_similarity(4, 4), 1.0);
    }

    #[test]
    fn level_mismatch_costs_the_level_component() {
        // Same subtree shape mounted at different depths.
        let shallow = SchemaTree::from_labels("r", &[("r", None), ("x", Some(0))]);
        let deep = SchemaTree::from_labels("r", &[("r", None), ("m", Some(0)), ("x", Some(1))]);
        let out = structural_match(&shallow, &deep, &MatchConfig::default());
        let s_x = shallow.find_by_label("x").unwrap();
        let d_x = deep.find_by_label("x").unwrap();
        let sim = out.matrix.get(s_x, d_x);
        assert!(
            sim < 1.0 && sim > 0.5,
            "leaf pair at different levels: {sim}"
        );
    }

    #[test]
    fn pair_similarity_matches_matrix_cell() {
        let (s, t) = (library(), human());
        let config = MatchConfig::default();
        let out = structural_match(&s, &t, &config);
        let a = s.find_by_label("Book").unwrap();
        let b = t.find_by_label("body").unwrap();
        assert_eq!(out.matrix.get(a, b), pair_similarity(&s, &t, a, b, &config));
    }

    #[test]
    fn labels_are_completely_ignored() {
        let named = library();
        let renamed = SchemaTree::from_labels(
            "zzz",
            &[
                ("zzz", None),
                ("q1", Some(0)),
                ("q2", Some(0)),
                ("q3", Some(2)),
                ("q4", Some(2)),
                ("q5", Some(2)),
            ],
        );
        let a = structural_match(&named, &renamed, &MatchConfig::default());
        let b = structural_match(&named, &named, &MatchConfig::default());
        assert!((a.total_qom - b.total_qom).abs() < 1e-12);
    }
}
