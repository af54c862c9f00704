//! Differential test of the session label cache: a long-lived warm session
//! against fresh cold sessions, over a seeded sequence of pairs drawn from
//! the drift registry, the paper's protein pair and a mutation chain.
//!
//! The warm session prepares trees lazily, as the sequence first needs
//! them, so later labels are interned past the cache's existing rows and
//! page directories while earlier rows keep gaining entries. Some pairs
//! use artifacts from an unrelated session, whose symbols must be
//! re-interned rather than trusted. A last walk interleaves label builds
//! with hybrid matches, so the label tables come out of the session arena
//! after pairs of other shapes. Every check is bit-for-bit.

use qmatch_core::algorithms::LabelMatrix;
use qmatch_core::matrix::SimMatrix;
use qmatch_core::model::MatchConfig;
use qmatch_core::session::{MatchSession, PreparedSchema};
use qmatch_datasets::drift::{mutation_chain, synthetic_registry, GATE_SEED};
use qmatch_datasets::synth;
use qmatch_prng::SmallRng;
use qmatch_xsd::{NodeId, SchemaTree};

/// Asserts two label matrices over the same trees agree bit for bit.
fn assert_same(a: &LabelMatrix, b: &LabelMatrix, source: &SchemaTree, target: &SchemaTree) {
    assert_eq!(a.distinct_pairs(), b.distinct_pairs());
    for (s, _) in source.iter() {
        for (t, _) in target.iter() {
            let (x, y) = (a.get(s, t), b.get(s, t));
            assert_eq!(x.grade, y.grade, "{s:?} {t:?}");
            assert_eq!(x.score.to_bits(), y.score.to_bits(), "{s:?} {t:?}");
        }
    }
}

/// `warm.label_matrix` over `(source, target)`: checks it against `cold`
/// (a fresh session's build when `None`), checks the hit/miss accounting,
/// and spot-checks `label_match`.
fn check_pair(
    warm: &MatchSession,
    (source, ps): (&SchemaTree, &PreparedSchema),
    (target, pt): (&SchemaTree, &PreparedSchema),
    cold: Option<LabelMatrix>,
    rng: &mut SmallRng,
) -> LabelMatrix {
    let before = warm.cache_stats();
    let labels = warm.label_matrix(ps, pt);
    let after = warm.cache_stats();
    let cells = (ps.distinct_labels() * pt.distinct_labels()) as u64;
    assert_eq!(
        after.hits + after.misses - before.hits - before.misses,
        cells,
        "one hit or miss per distinct pair"
    );
    assert_eq!(labels.distinct_pairs() as u64, cells);

    let expected = cold.unwrap_or_else(|| {
        let cold = MatchSession::new(MatchConfig::default());
        cold.label_matrix(&cold.prepare(source), &cold.prepare(target))
    });
    assert_same(&labels, &expected, source, target);

    for _ in 0..32 {
        let s = NodeId(rng.gen_range(0..source.len()) as u32);
        let t = NodeId(rng.gen_range(0..target.len()) as u32);
        let before = warm.cache_stats();
        let single = warm.label_match(ps, s, pt, t);
        let after = warm.cache_stats();
        assert_eq!(after.hits + after.misses, before.hits + before.misses + 1);
        let table = labels.get(s, t);
        assert_eq!(single.grade, table.grade);
        assert_eq!(single.score.to_bits(), table.score.to_bits());
    }
    labels
}

#[test]
fn warm_label_cache_matches_cold_sessions_bit_for_bit() {
    let mut rng = SmallRng::seed_from_u64(GATE_SEED ^ 0x1abe1);
    let mut pool: Vec<SchemaTree> = synthetic_registry(48, GATE_SEED)
        .into_iter()
        .map(|(_, tree)| tree)
        .collect();
    pool.push(synth::pir().clone());
    pool.push(synth::pdb().clone());
    let (pir, pdb) = (pool.len() - 2, pool.len() - 1);

    let warm = MatchSession::new(MatchConfig::default());
    let stranger = MatchSession::new(MatchConfig::default());
    let mut own: Vec<Option<PreparedSchema>> = pool.iter().map(|_| None).collect();
    let foreign: Vec<PreparedSchema> = pool.iter().rev().map(|t| stranger.prepare(t)).collect();
    let foreign = |k: usize| &foreign[pool.len() - 1 - k];

    // The paper's pair first: while `warm` is still fresh its first build
    // is the cold reference, and the rebuild is all cache hits.
    own[pir] = Some(warm.prepare(&pool[pir]));
    own[pdb] = Some(warm.prepare(&pool[pdb]));
    let source = (&pool[pir], own[pir].as_ref().unwrap());
    let target = (&pool[pdb], own[pdb].as_ref().unwrap());
    let cold = warm.label_matrix(source.1, target.1);
    let misses = warm.cache_stats().misses;
    check_pair(&warm, source, target, Some(cold), &mut rng);
    assert_eq!(warm.cache_stats().misses, misses, "warm rebuild");

    // Then a seeded walk over the pool (PIR may come back as a source);
    // drift schemas repeat, so rows that already exist keep gaining
    // entries.
    let mut pairs = Vec::new();
    for _ in 0..60 {
        pairs.push((rng.gen_range(0..=pir), rng.gen_range(0..pir)));
    }
    for (a, b) in pairs {
        for k in [a, b] {
            if own[k].is_none() {
                own[k] = Some(warm.prepare(&pool[k]));
            }
        }
        let pa = if rng.gen_bool(0.25) {
            foreign(a)
        } else {
            own[a].as_ref().unwrap()
        };
        let pb = if rng.gen_bool(0.25) {
            foreign(b)
        } else {
            own[b].as_ref().unwrap()
        };
        check_pair(&warm, (&pool[a], pa), (&pool[b], pb), None, &mut rng);
    }
}

#[test]
fn evolved_label_matrices_match_a_fresh_build() {
    let mut rng = SmallRng::seed_from_u64(GATE_SEED ^ 0xc4a1);
    let session = MatchSession::new(MatchConfig::default());
    let targets: Vec<SchemaTree> = synthetic_registry(6, GATE_SEED ^ 3)
        .into_iter()
        .map(|(_, tree)| tree)
        .collect();
    let base = synth::pir();
    for (i, target) in targets.iter().enumerate() {
        let pt = session.prepare(target);
        let chain: Vec<SchemaTree> = std::iter::once(base.clone())
            .chain(mutation_chain(base, 4, 0.08, GATE_SEED ^ i as u64))
            .collect();
        let mut old = session.prepare(&chain[0]);
        let mut old_labels = check_pair(&session, (&chain[0], &old), (target, &pt), None, &mut rng);
        let mut previous = session.hybrid(&old, &pt);
        for step in chain.windows(2) {
            let (prev, next) = (&step[0], &step[1]);
            let diff = session.diff_trees(prev, next);
            let new = session.reprepare(&old, next, &diff);
            let evolved = session.rematch_evolved(&old, &old_labels, &new, &pt, &diff, &previous);
            let full = check_pair(&session, (next, &new), (target, &pt), None, &mut rng);
            assert_same(&evolved.labels, &full, next, target);
            assert_eq!(
                evolved.outcome.matrix,
                session.hybrid(&new, &pt).matrix,
                "target {i}"
            );
            (old, old_labels, previous) = (new, evolved.labels, evolved.outcome);
        }
    }
}

/// A fresh session's label matrix and hybrid matrix for one tree pair.
fn cold_build(source: &SchemaTree, target: &SchemaTree) -> (LabelMatrix, SimMatrix) {
    let cold = MatchSession::new(MatchConfig::default());
    let (ps, pt) = (cold.prepare(source), cold.prepare(target));
    (cold.label_matrix(&ps, &pt), cold.hybrid(&ps, &pt).matrix)
}

#[test]
fn pooled_label_buffers_match_cold_builds() {
    let mut rng = SmallRng::seed_from_u64(GATE_SEED ^ 0xb0f5);
    let small: Vec<SchemaTree> = synthetic_registry(10, GATE_SEED ^ 7)
        .into_iter()
        .map(|(_, tree)| tree)
        .collect();
    let (pir, pdb) = (synth::pir(), synth::pdb());

    let warm = MatchSession::new(MatchConfig::default());
    let stranger = MatchSession::new(MatchConfig::default());
    let (wpir, wpdb) = (warm.prepare(pir), warm.prepare(pdb));
    // While `warm` is still fresh (empty cache, empty arena) its first
    // protein build is the cold reference; a second session would redo
    // all 867k comparisons.
    let protein_cold = (
        warm.label_matrix(&wpir, &wpdb),
        warm.hybrid(&wpir, &wpdb).matrix,
    );
    let wsmall: Vec<PreparedSchema> = small.iter().map(|t| warm.prepare(t)).collect();
    let foreign: Vec<PreparedSchema> = small.iter().map(|t| stranger.prepare(t)).collect();

    // Each build takes its score and grade tables from the arena, where
    // the previous step's hybrid match left a table of another shape:
    // large → small reuses a larger stale table, small → large grows one.
    let check = |(source, ps): (&SchemaTree, &PreparedSchema),
                 (target, pt): (&SchemaTree, &PreparedSchema),
                 cold: &(LabelMatrix, SimMatrix)| {
        assert_same(&warm.label_matrix(ps, pt), &cold.0, source, target);
        let outcome = warm.hybrid(ps, pt);
        assert_eq!(outcome.matrix, cold.1, "hybrid over pooled labels");
        warm.recycle(outcome);
    };
    check((pir, &wpir), (pdb, &wpdb), &protein_cold);
    let mut walk: Vec<(usize, usize)> = (0..8)
        .map(|_| (rng.gen_range(0..small.len()), rng.gen_range(0..small.len())))
        .collect();
    walk.insert(4, (usize::MAX, usize::MAX)); // the protein pair mid-walk
    for (a, b) in walk {
        if a == usize::MAX {
            check((pir, &wpir), (pdb, &wpdb), &protein_cold);
            continue;
        }
        let cold = cold_build(&small[a], &small[b]);
        check((&small[a], &wsmall[a]), (&small[b], &wsmall[b]), &cold);
        // The same pair with a source artifact from an unrelated interner.
        check((&small[a], &foreign[a]), (&small[b], &wsmall[b]), &cold);
    }
    // Large again, as a source against a small target.
    let cold = cold_build(pir, &small[0]);
    check((pir, &wpir), (&small[0], &wsmall[0]), &cold);

    // An evolved build copies rows into pooled tables as well.
    let next = mutation_chain(pir, 1, 0.08, GATE_SEED ^ 0xe7).remove(0);
    let diff = warm.diff_trees(pir, &next);
    let wnext = warm.reprepare(&wpir, &next, &diff);
    let old_labels = warm.label_matrix(&wpir, &wsmall[0]);
    let previous = warm.hybrid(&wpir, &wsmall[0]);
    let evolved = warm.rematch_evolved(&wpir, &old_labels, &wnext, &wsmall[0], &diff, &previous);
    let cold = cold_build(&next, &small[0]);
    assert_same(&evolved.labels, &cold.0, &next, &small[0]);
    assert_eq!(evolved.outcome.matrix, cold.1, "evolved hybrid");

    let stats = warm.arena_stats();
    assert!(
        stats.label_reuses > 0,
        "label tables were reused: {stats:?}"
    );
    assert!(stats.matrix_reuses > 0, "matrices were reused: {stats:?}");
}
