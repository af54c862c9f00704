//! The session's cross-schema label cache: a paged dense table over
//! interner ids.
//!
//! Every distinct `(source Symbol, target Symbol)` comparison a session
//! makes is kept here for the session's lifetime. Symbols are dense ids
//! handed out in first-seen order, so the table is addressed directly —
//! `rows[s][t / PAGE][t % PAGE]` — with no hashing:
//!
//! - one row per source symbol (an empty directory until its first insert);
//! - each row is a directory of fixed-size pages over target-symbol ids;
//! - a page is allocated on the first insert into its id range.
//!
//! A target schema's new labels are interned consecutively at prepare
//! time, so a label-matrix build walks each row nearly sequentially. The
//! page size trades lookup locality against the slack of partly filled
//! pages when vocabularies interleave (DESIGN.md §10 has the numbers).

use crate::intern::Symbol;
use qmatch_lexicon::name_match::{LabelGrade, NameMatch};
use std::mem::size_of;

/// Target ids per page.
const PAGE: usize = 16;

/// The comparisons of one source symbol against `PAGE` consecutive target
/// ids. Scores and grades sit in parallel arrays, so an entry costs 9
/// bytes instead of a padded 16-byte `Option<NameMatch>`.
struct Page {
    scores: [f64; PAGE],
    /// `None` marks an entry not cached yet.
    grades: [Option<LabelGrade>; PAGE],
}

const EMPTY_PAGE: Page = Page {
    scores: [0.0; PAGE],
    grades: [None; PAGE],
};

/// A row's page directory: slot `p` covers target ids `p * PAGE ..
/// (p + 1) * PAGE`.
type Directory = Vec<Option<Box<Page>>>;

/// `(Symbol, Symbol) → NameMatch`, stored densely by symbol id.
#[derive(Default)]
pub(crate) struct LabelCache {
    rows: Vec<Directory>,
    /// Allocated pages across every row.
    pages: usize,
    /// Directory slots allocated (capacity) across every row.
    slots: usize,
}

/// One source symbol's row, borrowed for a run of lookups.
#[derive(Clone, Copy)]
pub(crate) struct Row<'a>(&'a [Option<Box<Page>>]);

impl Row<'_> {
    /// The cached comparison against target `t`, if any.
    #[inline]
    pub(crate) fn get(self, t: Symbol) -> Option<NameMatch> {
        let t = t.index();
        let page = self.0.get(t / PAGE)?.as_deref()?;
        let k = t % PAGE;
        page.grades[k].map(|grade| NameMatch {
            grade,
            score: page.scores[k],
        })
    }
}

impl LabelCache {
    /// The row of source symbol `s` (empty when nothing was cached for it).
    #[inline]
    pub(crate) fn row(&self, s: Symbol) -> Row<'_> {
        Row(self.rows.get(s.index()).map_or(&[], Vec::as_slice))
    }

    /// The cached comparison of `(s, t)`, if any.
    pub(crate) fn get(&self, s: Symbol, t: Symbol) -> Option<NameMatch> {
        self.row(s).get(t)
    }

    /// Caches the comparison of `(s, t)`, growing the row table, the row's
    /// directory and its pages as needed.
    pub(crate) fn insert(&mut self, s: Symbol, t: Symbol, value: NameMatch) {
        let (s, t) = (s.index(), t.index());
        if s >= self.rows.len() {
            self.rows.resize_with(s + 1, Vec::new);
        }
        let directory = &mut self.rows[s];
        let p = t / PAGE;
        if p >= directory.len() {
            // Exact growth: directories over a scattered vocabulary are
            // long and mostly empty, so amortized doubling would double
            // their footprint.
            let before = directory.capacity();
            directory.reserve_exact(p + 1 - directory.len());
            directory.resize_with(p + 1, || None);
            self.slots += directory.capacity() - before;
        }
        let page = directory[p].get_or_insert_with(|| {
            self.pages += 1;
            Box::new(EMPTY_PAGE)
        });
        page.scores[t % PAGE] = value.score;
        page.grades[t % PAGE] = Some(value.grade);
    }

    /// Heap bytes the table holds: the row table, every directory slot and
    /// every page.
    pub(crate) fn bytes(&self) -> usize {
        self.rows.capacity() * size_of::<Directory>()
            + self.slots * size_of::<Option<Box<Page>>>()
            + self.pages * size_of::<Page>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(score: f64) -> NameMatch {
        NameMatch {
            grade: LabelGrade::Relaxed,
            score,
        }
    }

    #[test]
    fn empty_cache_misses_everywhere_and_holds_nothing() {
        let cache = LabelCache::default();
        assert_eq!(cache.get(Symbol(0), Symbol(0)), None);
        assert_eq!(cache.get(Symbol(7), Symbol(1_000)), None);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn inserts_past_the_row_table_and_directory_grow_them() {
        let mut cache = LabelCache::default();
        cache.insert(Symbol(3), Symbol(5), value(0.5));
        // Past the row table, past row 3's directory, and into an existing
        // page of an existing row.
        cache.insert(Symbol(40), Symbol(2), value(0.25));
        cache.insert(Symbol(3), Symbol(PAGE as u32 * 9 + 1), value(0.75));
        cache.insert(Symbol(3), Symbol(6), value(1.0));
        assert_eq!(cache.get(Symbol(3), Symbol(5)), Some(value(0.5)));
        assert_eq!(cache.get(Symbol(40), Symbol(2)), Some(value(0.25)));
        assert_eq!(
            cache.get(Symbol(3), Symbol(PAGE as u32 * 9 + 1)),
            Some(value(0.75))
        );
        assert_eq!(cache.get(Symbol(3), Symbol(6)), Some(value(1.0)));
        // Neighbours in allocated pages, rows in between, and ids past a
        // directory all miss.
        assert_eq!(cache.get(Symbol(3), Symbol(4)), None);
        assert_eq!(cache.get(Symbol(3), Symbol(PAGE as u32 * 4)), None);
        assert_eq!(cache.get(Symbol(20), Symbol(5)), None);
        assert_eq!(cache.get(Symbol(40), Symbol(PAGE as u32 * 100)), None);
        assert_eq!(cache.pages, 3);
        assert_eq!(cache.slots, 10 + 1, "directories grow exactly");
    }

    #[test]
    fn reinserting_overwrites_in_place() {
        let mut cache = LabelCache::default();
        cache.insert(Symbol(0), Symbol(0), value(0.1));
        let bytes = cache.bytes();
        cache.insert(Symbol(0), Symbol(0), value(0.2));
        assert_eq!(cache.get(Symbol(0), Symbol(0)), Some(value(0.2)));
        assert_eq!(cache.bytes(), bytes, "no new allocation");
    }

    #[test]
    fn bytes_count_rows_slots_and_pages() {
        let mut cache = LabelCache::default();
        cache.insert(Symbol(1), Symbol(PAGE as u32), value(0.5));
        assert_eq!(
            cache.bytes(),
            cache.rows.capacity() * size_of::<Directory>()
                + 2 * size_of::<Option<Box<Page>>>()
                + size_of::<Page>()
        );
        assert_eq!(size_of::<Page>(), PAGE * (size_of::<f64>() + 1));
    }
}
