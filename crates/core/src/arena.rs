//! Buffer pooling across matches: the [`MatchArena`].
//!
//! The dominant allocations of a match are sized by the number of node
//! pairs or distinct label pairs: the dense similarity matrix (~775 MB of
//! `f64` for the 9841-node bench pair) and the label score/grade tables
//! (9 B per distinct label pair, 7.8 MB for the paper's PIR→PDB pair). A
//! corpus workload (`match_corpus`, `/v1/match/topk`) or a served
//! `/v1/match` used to allocate, fault in and unmap fresh ones per pair.
//! The arena, owned by [`MatchSession`](crate::session::MatchSession),
//! pools every one of them:
//!
//! - matrix buffers are returned via
//!   [`MatchSession::recycle`](crate::session::MatchSession::recycle) once a
//!   caller is done with an outcome (engine-internal intermediates return
//!   themselves), and handed back **without re-zeroing** — sound because
//!   every engine commits every row/cell of the matrix it takes (the
//!   wavefront covers all source nodes; the flat engines write all rows;
//!   the combiner and precision conversion write all cells), an invariant
//!   documented on `SimMatrix::from_storage`-based construction;
//! - label score/grade tables go back as soon as the kernel that read
//!   them has finished, and are handed out *empty* with their capacity
//!   kept, so a label build pushes every entry before anything reads it;
//! - row scratch (children-pass accumulators) cycles automatically inside
//!   the kernel, one lease per worker thread per wave.
//!
//! A take pops the most recently returned buffer; one too small for the
//! request is grown, which counts as an allocation. Pools are bounded (a handful of buffers) so a burst of concurrent
//! matches cannot hoard memory; excess buffers are simply dropped. Pooling
//! is explicit on purpose: glibc's dynamic mmap threshold stops adapting at
//! 32 MiB, so larger buffers would be unmapped on every `free`.

use crate::algorithms::LabelMatrix;
use crate::matrix::{MatrixData, Precision, SimMatrix};
use qmatch_lexicon::name_match::LabelGrade;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Most buffers a pool retains; extra returns are dropped.
const MAX_POOLED_MATRICES: usize = 4;
/// Label score/grade table pairs retained.
const MAX_POOLED_LABELS: usize = 4;
/// Row-scratch sets retained (bounded by worker-thread count in practice).
const MAX_POOLED_SCRATCH: usize = 32;

/// Counters describing how often the arena served a buffer from its pool
/// versus allocating a fresh one. A pooled buffer too small for the
/// request is grown, which maps fresh memory: it counts as an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Matrix buffers served from the pool (no allocation, no zeroing).
    pub matrix_reuses: u64,
    /// Matrix buffers freshly allocated or grown (no pooled buffer of the
    /// precision had room).
    pub matrix_allocs: u64,
    /// Label score/grade tables served from the pool.
    pub label_reuses: u64,
    /// Label score/grade tables freshly allocated or grown.
    pub label_allocs: u64,
}

/// Per-thread scratch for the hybrid kernel's children pass. Contents are
/// *stale* between leases; the kernel fills every entry it reads.
#[derive(Default)]
pub(crate) struct RowScratch {
    /// Per-target running QoM sum of matched source children.
    pub qsum: Vec<f64>,
    /// Per-target matched-children count.
    pub mcnt: Vec<u32>,
    /// Per-target best child score this pass (−1.0 = no child cleared the
    /// threshold).
    pub band: Vec<f64>,
}

impl RowScratch {
    /// Ensures each buffer holds exactly `cols` entries (values stale).
    pub(crate) fn ensure_cols(&mut self, cols: usize) {
        self.qsum.resize(cols, 0.0);
        self.mcnt.resize(cols, 0);
        self.band.resize(cols, 0.0);
    }
}

/// A label score table and its parallel grade table.
type LabelTables = (Vec<f64>, Vec<LabelGrade>);

/// One pool with its reuse/allocation counters.
struct Pool<B> {
    buffers: Mutex<Vec<B>>,
    reuses: AtomicU64,
    allocs: AtomicU64,
}

impl<B> Default for Pool<B> {
    fn default() -> Self {
        Pool {
            buffers: Mutex::new(Vec::new()),
            reuses: AtomicU64::new(0),
            allocs: AtomicU64::new(0),
        }
    }
}

impl<B> Pool<B> {
    /// Takes the most recently returned buffer and counts a reuse when its
    /// `room` covers `len`, an allocation otherwise (`None` when the pool
    /// is empty: the caller allocates).
    fn take(&self, len: usize, room: impl Fn(&B) -> usize) -> Option<B> {
        let taken = self.buffers.lock().expect("arena pool lock").pop();
        let fits = taken.as_ref().is_some_and(|b| room(b) >= len);
        let counter = if fits { &self.reuses } else { &self.allocs };
        counter.fetch_add(1, Ordering::Relaxed);
        taken
    }

    /// Returns a buffer to the pool (dropped if the pool is full).
    fn put(&self, buffer: B, max: usize) {
        let mut buffers = self.buffers.lock().expect("arena pool lock");
        if buffers.len() < max {
            buffers.push(buffer);
        }
    }

    fn counts(&self) -> (u64, u64) {
        (
            self.reuses.load(Ordering::Relaxed),
            self.allocs.load(Ordering::Relaxed),
        )
    }
}

/// The session-owned buffer pool. See the module docs for the lifecycle.
#[derive(Default)]
pub struct MatchArena {
    f64_pool: Pool<Vec<f64>>,
    f32_pool: Pool<Vec<f32>>,
    label_pool: Pool<LabelTables>,
    scratch_pool: Mutex<Vec<RowScratch>>,
}

impl std::fmt::Debug for MatchArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MatchArena").field(&self.stats()).finish()
    }
}

impl MatchArena {
    /// Reuse/allocation counters so far.
    pub fn stats(&self) -> ArenaStats {
        let (f64_reuses, f64_allocs) = self.f64_pool.counts();
        let (f32_reuses, f32_allocs) = self.f32_pool.counts();
        let (label_reuses, label_allocs) = self.label_pool.counts();
        ArenaStats {
            matrix_reuses: f64_reuses + f32_reuses,
            matrix_allocs: f64_allocs + f32_allocs,
            label_reuses,
            label_allocs,
        }
    }

    /// A `rows × cols` matrix in the requested precision, from the pool when
    /// possible.
    ///
    /// A pooled buffer is resized without re-zeroing its retained prefix:
    /// the caller (an engine) **must overwrite every cell** before the
    /// matrix escapes. Freshly allocated buffers are zeroed by `vec!`.
    pub(crate) fn take_matrix(&self, rows: usize, cols: usize, precision: Precision) -> SimMatrix {
        let len = rows * cols;
        let data = match precision {
            Precision::F64 => MatrixData::F64(match self.f64_pool.take(len, Vec::capacity) {
                Some(buf) => resize_stale(buf, len, 0.0),
                None => vec![0.0; len],
            }),
            Precision::F32 => MatrixData::F32(match self.f32_pool.take(len, Vec::capacity) {
                Some(buf) => resize_stale(buf, len, 0.0),
                None => vec![0.0; len],
            }),
        };
        SimMatrix::from_storage(rows, cols, data)
    }

    /// Returns a matrix's buffer to the pool (dropped if the pool is full).
    pub(crate) fn put_matrix(&self, matrix: SimMatrix) {
        match matrix.into_storage() {
            MatrixData::F64(buf) => self.f64_pool.put(buf, MAX_POOLED_MATRICES),
            MatrixData::F32(buf) => self.f32_pool.put(buf, MAX_POOLED_MATRICES),
        }
    }

    /// `matrix` in `precision` storage (itself when it already is): the
    /// converted copy comes from the pool and the source buffer goes back
    /// to it, one nearest-value rounding per cell as
    /// [`SimMatrix::with_precision`].
    pub(crate) fn convert(&self, matrix: SimMatrix, precision: Precision) -> SimMatrix {
        if matrix.precision() == precision {
            return matrix;
        }
        let mut out = self.take_matrix(matrix.rows(), matrix.cols(), precision);
        out.copy_cells_from(&matrix);
        self.put_matrix(matrix);
        out
    }

    /// Empty label score and grade tables with room for `len` entries
    /// each. The label builds push every entry, so no stale value is ever
    /// readable.
    pub(crate) fn take_labels(&self, len: usize) -> LabelTables {
        let room = |(scores, grades): &LabelTables| scores.capacity().min(grades.capacity());
        match self.label_pool.take(len, room) {
            Some((mut scores, mut grades)) => {
                scores.clear();
                grades.clear();
                scores.reserve(len);
                grades.reserve(len);
                (scores, grades)
            }
            None => (Vec::with_capacity(len), Vec::with_capacity(len)),
        }
    }

    /// Returns a label matrix's score and grade tables to the pool.
    pub(crate) fn put_labels(&self, labels: LabelMatrix) {
        self.label_pool.put(labels.into_tables(), MAX_POOLED_LABELS);
    }

    /// One row-scratch set sized for `cols` targets (contents stale).
    pub(crate) fn take_scratch(&self, cols: usize) -> RowScratch {
        let mut scratch = self
            .scratch_pool
            .lock()
            .expect("arena scratch lock")
            .pop()
            .unwrap_or_default();
        scratch.ensure_cols(cols);
        scratch
    }

    /// Returns a row-scratch set to the pool.
    pub(crate) fn put_scratch(&self, scratch: RowScratch) {
        let mut pool = self.scratch_pool.lock().expect("arena scratch lock");
        if pool.len() < MAX_POOLED_SCRATCH {
            pool.push(scratch);
        }
    }
}

/// Resizes a recycled buffer to `len` entries. Only the *appended* region
/// (if any) is initialized; the retained prefix keeps its stale values —
/// see the caller contract on [`MatchArena::take_matrix`].
fn resize_stale<T: Copy>(mut buf: Vec<T>, len: usize, fill: T) -> Vec<T> {
    if buf.len() > len {
        buf.truncate(len);
    } else if buf.len() < len {
        buf.resize(len, fill);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmatch_xsd::NodeId;

    #[test]
    fn take_is_zeroed_when_fresh_and_counts_allocs() {
        let arena = MatchArena::default();
        let m = arena.take_matrix(2, 2, Precision::F64);
        assert_eq!(m.get(NodeId(1), NodeId(1)), 0.0);
        assert_eq!(
            arena.stats(),
            ArenaStats {
                matrix_allocs: 1,
                ..ArenaStats::default()
            }
        );
    }

    #[test]
    fn recycled_buffer_is_reused_without_rezeroing() {
        let arena = MatchArena::default();
        let mut m = arena.take_matrix(2, 2, Precision::F64);
        m.set(NodeId(0), NodeId(0), 0.75);
        arena.put_matrix(m);
        let again = arena.take_matrix(2, 2, Precision::F64);
        // The stale value is visible — engines must overwrite every cell.
        assert_eq!(again.get(NodeId(0), NodeId(0)), 0.75);
        assert_eq!(arena.stats().matrix_reuses, 1);
    }

    #[test]
    fn recycled_buffer_grows_with_zeroed_tail() {
        let arena = MatchArena::default();
        let mut m = arena.take_matrix(1, 2, Precision::F64);
        m.set(NodeId(0), NodeId(1), 0.5);
        arena.put_matrix(m);
        let bigger = arena.take_matrix(2, 2, Precision::F64);
        assert_eq!(bigger.get(NodeId(1), NodeId(1)), 0.0, "appended region");
        // Growing the pooled buffer maps fresh memory: an allocation.
        let stats = arena.stats();
        assert_eq!((stats.matrix_reuses, stats.matrix_allocs), (0, 2));
        arena.put_matrix(bigger);
        let smaller = arena.take_matrix(1, 1, Precision::F64);
        assert_eq!(smaller.rows() * smaller.cols(), 1);
        assert_eq!(arena.stats().matrix_reuses, 1);
    }

    #[test]
    fn precisions_pool_separately() {
        let arena = MatchArena::default();
        let m64 = arena.take_matrix(2, 2, Precision::F64);
        arena.put_matrix(m64);
        let m32 = arena.take_matrix(2, 2, Precision::F32);
        assert_eq!(m32.precision(), Precision::F32);
        // The f64 buffer could not serve the f32 request.
        assert_eq!(arena.stats().matrix_allocs, 2);
        assert_eq!(arena.stats().matrix_reuses, 0);
    }

    #[test]
    fn pool_is_bounded() {
        let arena = MatchArena::default();
        let matrices: Vec<_> = (0..MAX_POOLED_MATRICES + 3)
            .map(|_| arena.take_matrix(1, 1, Precision::F64))
            .collect();
        for m in matrices {
            arena.put_matrix(m);
        }
        let pooled = arena.f64_pool.buffers.lock().unwrap().len();
        assert_eq!(pooled, MAX_POOLED_MATRICES);
    }

    #[test]
    fn label_tables_come_back_empty_with_their_capacity() {
        let arena = MatchArena::default();
        let (mut scores, mut grades) = arena.take_labels(6);
        scores.extend([0.5; 6]);
        grades.extend([LabelGrade::Relaxed; 6]);
        let labels = LabelMatrix::from_parts(vec![0, 1], vec![0, 1, 2], 3, (scores, grades));
        arena.put_labels(labels);
        let (scores, grades) = arena.take_labels(4);
        assert!(scores.is_empty() && grades.is_empty());
        assert!(scores.capacity() >= 6 && grades.capacity() >= 6);
        let stats = arena.stats();
        assert_eq!((stats.label_reuses, stats.label_allocs), (1, 1));
        assert_eq!(stats.matrix_allocs, 0);
    }

    #[test]
    fn convert_rounds_every_cell_and_recycles_the_source() {
        let arena = MatchArena::default();
        let mut m = arena.take_matrix(2, 2, Precision::F64);
        for (i, v) in [0.1, 0.25, 1.0 / 3.0, 0.9].into_iter().enumerate() {
            m.set(NodeId(i as u32 / 2), NodeId(i as u32 % 2), v);
        }
        // Leave a stale f32 buffer in the pool for the conversion to take.
        let mut stale = arena.take_matrix(2, 2, Precision::F32);
        stale.set(NodeId(1), NodeId(1), 0.75);
        arena.put_matrix(stale);
        let expected = m.clone().with_precision(Precision::F32);
        let f32m = arena.convert(m, Precision::F32);
        assert_eq!(f32m, expected);
        assert_eq!(arena.f64_pool.buffers.lock().unwrap().len(), 1);
        let back = arena.convert(f32m, Precision::F64);
        assert_eq!(back, expected.with_precision(Precision::F64));
        assert_eq!(arena.stats().matrix_reuses, 2);
    }

    #[test]
    fn scratch_round_trips_and_resizes() {
        let arena = MatchArena::default();
        let mut s = arena.take_scratch(4);
        assert_eq!(s.qsum.len(), 4);
        s.band[0] = -1.0;
        arena.put_scratch(s);
        let s2 = arena.take_scratch(2);
        assert_eq!(s2.mcnt.len(), 2);
    }
}
