//! Label interning: every distinct raw label string is assigned a stable
//! [`Symbol`], and the case-folding and [`tokenize`] work for that label
//! happens exactly once, when the symbol is created.
//!
//! The interner is the substrate of the prepare-once/match-many session
//! architecture (see `session`): a [`crate::session::MatchSession`] holds one
//! [`Interner`] for its whole lifetime (sibling sessions share it), so a
//! schema corpus that reuses the same vocabulary — the dominant production
//! case — pays the linguistic preprocessing once per distinct label, not
//! once per node per match call.

use qmatch_lexicon::tokenize::{tokenize, Token};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// An interned label. Two symbols from the same [`Interner`] are equal iff
/// their raw label strings are byte-identical; the symbol also keys the
/// session's cross-schema label-comparison cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub(crate) u32);

impl Symbol {
    /// The symbol's dense index into its interner's tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One interned label's precomputed forms.
#[derive(Debug, Clone)]
struct Entry {
    raw: String,
    folded: String,
    tokens: Vec<Token>,
}

/// Interns label strings and owns their case-folded and tokenized forms.
#[derive(Debug)]
pub struct Interner {
    /// Process-unique identity: symbols are only comparable between
    /// holders of the same interner, and this is how they tell.
    id: u64,
    map: HashMap<String, u32>,
    entries: Vec<Entry>,
}

impl Default for Interner {
    fn default() -> Interner {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Interner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            map: HashMap::new(),
            entries: Vec::new(),
        }
    }
}

impl Interner {
    /// An empty interner with a fresh identity.
    pub fn new() -> Interner {
        Interner::default()
    }

    /// This interner's process-unique identity. Two symbols name the same
    /// label only if they came from interners with equal ids.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Interns `label`, folding and tokenizing it on first sight.
    pub fn intern(&mut self, label: &str) -> Symbol {
        if let Some(&id) = self.map.get(label) {
            return Symbol(id);
        }
        let id = self.entries.len() as u32;
        self.entries.push(Entry {
            raw: label.to_owned(),
            folded: label.to_lowercase(),
            tokens: tokenize(label),
        });
        self.map.insert(label.to_owned(), id);
        Symbol(id)
    }

    /// The raw label a symbol was interned from.
    pub fn raw(&self, symbol: Symbol) -> &str {
        &self.entries[symbol.index()].raw
    }

    /// The case-folded (lowercased) form, computed once at intern time.
    pub fn folded(&self, symbol: Symbol) -> &str {
        &self.entries[symbol.index()].folded
    }

    /// The [`tokenize`] output, computed once at intern time.
    pub fn tokens(&self, symbol: Symbol) -> &[Token] {
        &self.entries[symbol.index()].tokens
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_case_sensitive_on_raw() {
        let mut i = Interner::new();
        let a = i.intern("OrderNo");
        let b = i.intern("OrderNo");
        let c = i.intern("orderno");
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct raw spellings get distinct symbols");
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn folded_and_tokens_are_precomputed() {
        let mut i = Interner::new();
        let s = i.intern("PurchaseOrderNo");
        assert_eq!(i.raw(s), "PurchaseOrderNo");
        assert_eq!(i.folded(s), "purchaseorderno");
        let toks: Vec<&str> = i.tokens(s).iter().map(Token::as_str).collect();
        assert_eq!(toks, ["purchase", "order", "no"]);
    }

    #[test]
    fn symbols_index_densely() {
        let mut i = Interner::new();
        assert!(i.is_empty());
        let syms: Vec<Symbol> = ["a", "b", "c"].iter().map(|l| i.intern(l)).collect();
        for (k, s) in syms.iter().enumerate() {
            assert_eq!(s.index(), k);
        }
    }

    #[test]
    fn every_interner_has_its_own_identity() {
        let (a, b) = (Interner::new(), Interner::default());
        assert_ne!(a.id(), b.id());
    }
}
