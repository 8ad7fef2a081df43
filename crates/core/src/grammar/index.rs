//! Precomputed query layer over an immutable grammar.
//!
//! The predict-side hot path must never walk the grammar blindly: reseeding
//! after a mismatch needs every occurrence of an event *with its weight*,
//! and distance-`x` simulation needs to know how many terminals a symbol
//! expands to so whole subtrees can be skipped in O(1). A [`GrammarIndex`]
//! computes all of that once, at trace-load time, and is shared (`Arc`) by
//! every predictor and every analyzer pass over the same thread trace:
//!
//! * per-rule metadata: expanded terminal length (exponents included),
//!   first/last terminal, expansion count as `f64`;
//! * the **body arena**: every live rule body copied into one contiguous
//!   `Vec<SymbolUse>` slab (slot order), addressed by per-rule spans.
//!   [`GrammarIndex::body`] serves the same slices as
//!   `Grammar::rule(r).body` without chasing a per-rule heap `Vec`;
//! * *suffix lengths*, one flat array beside the arena: the expanded
//!   length of `body[pos..]`, so a forward simulation can skip the whole
//!   tail of a rule body in O(1);
//! * use sites of every rule (for upward extension of partial paths), one
//!   flat array grouped by rule and addressed by per-rule offsets;
//! * the **occurrence index**: `EventId -> [(Loc, weight)]` with
//!   `weight = expansions(rule) × count`, exactly the quantity
//!   `Predictor::seed` needs, in the same deterministic (rule, pos) order
//!   as [`Grammar::terminal_uses`] — one flat array grouped by event,
//!   addressed by per-event offsets.
//!
//! No list is a heap allocation of its own, so a build allocates a fixed
//! number of times, and the walkers and passes stream cache-linear memory.
//!
//! The index is valid only for the exact grammar it was built from; it is
//! attached to the immutable post-compaction grammar inside a
//! [`crate::trace::ThreadTrace`].

use crate::event::EventId;
use crate::grammar::{Grammar, Loc, RuleId, Symbol, SymbolUse};
use crate::util::FxHashMap;

/// Precomputed metadata for one rule (slot).
#[derive(Debug, Clone, Default)]
pub struct RuleMeta {
    /// Number of terminals one expansion of the rule body produces.
    pub expanded_len: u64,
    /// How many times the body is expanded when unfolding the whole trace
    /// (the root expands once), as `f64` for weight arithmetic.
    pub expansions: f64,
    /// First terminal emitted by one expansion (`None` for an empty body,
    /// which only the root of an empty grammar has).
    pub first_terminal: Option<EventId>,
    /// Last terminal emitted by one expansion.
    pub last_terminal: Option<EventId>,
}

/// Precomputed rule-metadata tables and occurrence index for one grammar.
#[derive(Debug, Clone, Default)]
pub struct GrammarIndex {
    /// Per-slot rule metadata (vacant slots hold zeroed entries).
    metas: Vec<RuleMeta>,
    /// All live rule bodies packed back to back, in rule-slot order.
    arena: Vec<SymbolUse>,
    /// Per-slot `(offset, len)` spans into [`GrammarIndex::arena`]
    /// (a vacant slot has length 0).
    spans: Vec<(u32, u32)>,
    /// Suffix lengths, `len + 1` entries per slot from `spans[r].0 + r`
    /// on: entry `pos` is the expanded length of `body[pos..]` (full
    /// exponents), the last one `0`.
    suffix: Vec<u64>,
    /// Use sites of every rule, grouped by the rule used, each group in
    /// (rule, pos) order: rule `r`'s are
    /// `uses[use_offsets[r]..use_offsets[r + 1]]`.
    uses: Vec<Loc>,
    /// Per-slot offsets into [`GrammarIndex::uses`], one extra at the end.
    use_offsets: Vec<u32>,
    /// Every terminal occurrence with its seed weight
    /// (`expansions(rule) × count`), grouped by event, each group in
    /// (rule, pos) order: the `k`-th event's are
    /// `occurrences[event_offsets[k]..event_offsets[k + 1]]`.
    occurrences: Vec<(Loc, f64)>,
    /// Per-event offsets into [`GrammarIndex::occurrences`], one extra at
    /// the end.
    event_offsets: Vec<u32>,
    /// The number `k` of every event the grammar uses (in order of first
    /// use).
    events: FxHashMap<EventId, u32>,
    /// Total trace length (expanded length of the root).
    trace_len: u64,
}

impl GrammarIndex {
    /// Builds the index: the bodies packed, one topological sort, one
    /// sweep along it each way (lengths children first, expansion counts
    /// parents first), then use sites and occurrences placed by a
    /// counting sort. O(grammar size), and a fixed number of allocations.
    pub fn build(g: &Grammar) -> Self {
        let n = g.rules_slots();
        let total_uses: usize = g.iter_rules().map(|(_, r)| r.body.len()).sum();
        // Pack the bodies; number the events in order of first use; count
        // each rule's use sites and each event's occurrences.
        let mut arena: Vec<SymbolUse> = Vec::with_capacity(total_uses);
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut events: FxHashMap<EventId, u32> =
            FxHashMap::with_capacity_and_hasher(total_uses, Default::default());
        let mut event_at = vec![0u32; total_uses];
        let mut use_offsets = vec![0u32; n + 1];
        let mut event_offsets = vec![0u32; total_uses + 1];
        for slot in &g.rules {
            let body = slot.as_ref().map_or(&[][..], |r| r.body.as_slice());
            spans.push((arena.len() as u32, body.len() as u32));
            for u in body {
                match u.symbol {
                    Symbol::Terminal(e) => {
                        let next = events.len() as u32;
                        let k = *events.entry(e).or_insert(next);
                        event_offsets[k as usize] += 1;
                        event_at[arena.len()] = k;
                    }
                    Symbol::Rule(r) => use_offsets[r.index()] += 1,
                }
                arena.push(*u);
            }
        }
        let body = |r: usize| &arena[spans[r].0 as usize..][..spans[r].1 as usize];

        let order = g.topological_order();
        // Children first: suffix lengths, hence expanded lengths, and the
        // edge terminals.
        let mut metas = vec![RuleMeta::default(); n];
        let mut suffix = vec![0u64; total_uses + n];
        for &id in order.iter().rev() {
            let body = body(id.index());
            let sfx = &mut suffix[spans[id.index()].0 as usize + id.index()..][..body.len() + 1];
            for (pos, u) in body.iter().enumerate().rev() {
                sfx[pos] = sfx[pos + 1] + u.count as u64 * symbol_len(&metas, u.symbol);
            }
            metas[id.index()] = RuleMeta {
                expanded_len: sfx[0],
                expansions: 0.0,
                first_terminal: body.first().map(|u| edge_terminal(&metas, u.symbol, true)),
                last_terminal: body.last().map(|u| edge_terminal(&metas, u.symbol, false)),
            };
        }
        // Parents first: expansion counts, exact in `u64` before the
        // conversion the weights use.
        let mut counts = vec![0u64; n];
        counts[g.root().index()] = 1;
        for &id in &order {
            let c = counts[id.index()];
            metas[id.index()].expansions = c as f64;
            for u in body(id.index()) {
                if let Symbol::Rule(r) = u.symbol {
                    counts[r.index()] += c * u.count as u64;
                }
            }
        }

        // Turn the counts into group ends, then place use sites and
        // weighted occurrences back to front, moving each group's end to
        // its start: every group keeps (rule, pos) order.
        event_offsets.truncate(events.len() + 1);
        for offsets in [&mut use_offsets, &mut event_offsets] {
            for k in 1..offsets.len() {
                offsets[k] += offsets[k - 1];
            }
        }
        let nowhere = Loc {
            rule: g.root(),
            pos: 0,
        };
        let mut uses = vec![nowhere; use_offsets[n] as usize];
        let mut occurrences = vec![(nowhere, 0.0); total_uses - uses.len()];
        for (slot, &(off, _)) in spans.iter().enumerate().rev() {
            let rule = RuleId(slot as u32);
            for (pos, u) in body(slot).iter().enumerate().rev() {
                if let Symbol::Rule(r) = u.symbol {
                    use_offsets[r.index()] -= 1;
                    uses[use_offsets[r.index()] as usize] = Loc { rule, pos };
                } else {
                    let end = &mut event_offsets[event_at[off as usize + pos] as usize];
                    *end -= 1;
                    let weight = metas[slot].expansions * u.count as f64;
                    occurrences[*end as usize] = (Loc { rule, pos }, weight);
                }
            }
        }
        let trace_len = metas[g.root().index()].expanded_len;
        GrammarIndex {
            metas,
            arena,
            spans,
            suffix,
            uses,
            use_offsets,
            occurrences,
            event_offsets,
            events,
            trace_len,
        }
    }

    /// The body of rule `r` as a slice of the contiguous arena — same
    /// content as `Grammar::rule(r).body`, cache-linear storage. Vacant
    /// slots yield an empty slice.
    #[inline]
    pub fn body(&self, r: RuleId) -> &[SymbolUse] {
        let (off, len) = self.spans[r.index()];
        &self.arena[off as usize..off as usize + len as usize]
    }

    /// The symbol use at `loc`, served from the arena. O(1).
    #[inline]
    pub fn use_at(&self, loc: Loc) -> SymbolUse {
        self.body(loc.rule)[loc.pos]
    }

    /// Metadata of one rule slot.
    #[inline]
    pub fn meta(&self, r: RuleId) -> &RuleMeta {
        &self.metas[r.index()]
    }

    /// Expansion count of a rule as `f64`.
    #[inline]
    pub fn expansion(&self, r: RuleId) -> f64 {
        self.metas[r.index()].expansions
    }

    /// Number of terminals one expansion of `symbol` produces (1 for a
    /// terminal).
    #[inline]
    pub fn sym_len(&self, symbol: Symbol) -> u64 {
        match symbol {
            Symbol::Terminal(_) => 1,
            Symbol::Rule(r) => self.metas[r.index()].expanded_len,
        }
    }

    /// Number of terminals a full use (all repetitions) produces.
    #[inline]
    pub fn use_len(&self, u: SymbolUse) -> u64 {
        u.count as u64 * self.sym_len(u.symbol)
    }

    /// Expanded length of `body[pos..]` of rule `r` (full exponents);
    /// `pos == body.len()` yields 0.
    #[inline]
    pub fn suffix_len(&self, r: RuleId, pos: usize) -> u64 {
        debug_assert!(pos <= self.spans[r.index()].1 as usize);
        self.suffix[self.spans[r.index()].0 as usize + r.index() + pos]
    }

    /// Expanded length of `body[..pos]` of rule `r` — the offset of
    /// position `pos` inside one expansion of the rule. O(1).
    #[inline]
    pub fn prefix_len(&self, r: RuleId, pos: usize) -> u64 {
        self.suffix_len(r, 0) - self.suffix_len(r, pos)
    }

    /// For every rule slot, the index (into the expanded trace) at which
    /// the rule's *first* expansion begins: the anchor the static analyzer
    /// uses to report an approximate event position for a grammar location
    /// (`first_starts[r] + prefix_len(r, pos)`). `None` for vacant or
    /// unreachable slots. One parents-first sweep, O(|grammar|).
    pub fn rule_first_starts(&self, g: &Grammar) -> Vec<Option<u64>> {
        let mut starts: Vec<Option<u64>> = vec![None; g.rules_slots()];
        starts[g.root().index()] = Some(0);
        for &id in &g.topological_order() {
            let Some(s) = starts[id.index()] else {
                continue;
            };
            let mut offset = 0u64;
            for u in self.body(id) {
                if let Symbol::Rule(child) = u.symbol {
                    let candidate = s + offset;
                    if starts[child.index()].is_none_or(|cur| candidate < cur) {
                        starts[child.index()] = Some(candidate);
                    }
                }
                offset += self.use_len(*u);
            }
        }
        starts
    }

    /// First terminal produced when expanding `symbol`, in O(1).
    #[inline]
    pub fn first_terminal(&self, symbol: Symbol) -> EventId {
        edge_terminal(&self.metas, symbol, true)
    }

    /// Last terminal produced when expanding `symbol`, in O(1).
    #[inline]
    pub fn last_terminal(&self, symbol: Symbol) -> EventId {
        edge_terminal(&self.metas, symbol, false)
    }

    /// Use sites of rule `r`.
    #[inline]
    pub fn rule_uses(&self, r: RuleId) -> &[Loc] {
        &self.uses[self.use_offsets[r.index()] as usize..self.use_offsets[r.index() + 1] as usize]
    }

    /// All occurrences of `event` with their seed weights, or `None` if the
    /// event never occurred in the reference execution.
    #[inline]
    pub fn occurrences(&self, event: EventId) -> Option<&[(Loc, f64)]> {
        let k = *self.events.get(&event)? as usize;
        let (start, end) = (self.event_offsets[k], self.event_offsets[k + 1]);
        Some(&self.occurrences[start as usize..end as usize])
    }

    /// Whether `event` occurred in the reference execution. O(1).
    #[inline]
    pub fn knows_event(&self, event: EventId) -> bool {
        self.events.contains_key(&event)
    }

    /// Number of distinct terminals in the grammar.
    pub fn distinct_events(&self) -> usize {
        self.events.len()
    }

    /// Total trace length (expanded length of the root).
    #[inline]
    pub fn trace_len(&self) -> u64 {
        self.trace_len
    }
}

fn symbol_len(metas: &[RuleMeta], symbol: Symbol) -> u64 {
    match symbol {
        Symbol::Terminal(_) => 1,
        Symbol::Rule(r) => metas[r.index()].expanded_len,
    }
}

fn edge_terminal(metas: &[RuleMeta], symbol: Symbol, first: bool) -> EventId {
    match symbol {
        Symbol::Terminal(e) => e,
        Symbol::Rule(r) => {
            let m = &metas[r.index()];
            if first {
                m.first_terminal
            } else {
                m.last_terminal
            }
            .expect("empty rule body")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::builder::GrammarBuilder;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    fn grammar_of(seq: &[u32]) -> Grammar {
        let mut b = GrammarBuilder::new();
        for &s in seq {
            b.push(e(s));
        }
        b.into_grammar().compact()
    }

    #[test]
    fn lengths_match_expanded_len() {
        let seq: Vec<u32> = (0..40).flat_map(|i| [0, 1, 1, 2, i % 3]).collect();
        let g = grammar_of(&seq);
        let idx = GrammarIndex::build(&g);
        assert_eq!(idx.trace_len(), g.trace_len());
        for (id, rule) in g.iter_rules() {
            assert_eq!(
                idx.meta(id).expanded_len,
                g.expanded_len(Symbol::Rule(id)),
                "rule {id}"
            );
            assert_eq!(idx.suffix_len(id, 0), idx.meta(id).expanded_len);
            assert_eq!(idx.suffix_len(id, rule.body.len()), 0);
            for (pos, u) in rule.body.iter().enumerate() {
                assert_eq!(
                    idx.suffix_len(id, pos),
                    idx.suffix_len(id, pos + 1) + idx.use_len(*u),
                );
            }
        }
    }

    #[test]
    fn first_last_terminals() {
        let seq: Vec<u32> = (0..30).flat_map(|_| [5, 6, 7]).collect();
        let g = grammar_of(&seq);
        let idx = GrammarIndex::build(&g);
        for (id, _) in g.iter_rules() {
            assert_eq!(
                idx.first_terminal(Symbol::Rule(id)),
                g.first_terminal(Symbol::Rule(id)),
                "rule {id}"
            );
        }
        assert_eq!(idx.meta(g.root()).last_terminal, Some(e(7)));
    }

    #[test]
    fn occurrence_index_matches_naive_scan() {
        let seq: Vec<u32> = (0..50).flat_map(|i| [0, 1, 2, 2, (i % 4) + 3]).collect();
        let g = grammar_of(&seq);
        let idx = GrammarIndex::build(&g);
        let expansions = g.expansion_counts();
        for ev in 0..8u32 {
            let naive = g.terminal_uses(e(ev));
            match idx.occurrences(e(ev)) {
                None => assert!(naive.is_empty()),
                Some(occs) => {
                    assert_eq!(occs.len(), naive.len());
                    for (&(loc, w), &nloc) in occs.iter().zip(naive.iter()) {
                        assert_eq!(loc, nloc);
                        let want = expansions[loc.rule.index()] as f64 * g.at(loc).count as f64;
                        assert_eq!(w, want);
                    }
                }
            }
        }
        assert!(!idx.knows_event(e(99)));
    }

    #[test]
    fn empty_grammar() {
        let g = Grammar::new();
        let idx = GrammarIndex::build(&g);
        assert_eq!(idx.trace_len(), 0);
        assert_eq!(idx.meta(g.root()).first_terminal, None);
        assert_eq!(idx.distinct_events(), 0);
        assert!(idx.body(g.root()).is_empty());
    }

    #[test]
    fn arena_bodies_match_grammar() {
        let seq: Vec<u32> = (0..60).flat_map(|i| [0, 1, 1, 2, (i % 5) + 3]).collect();
        let g = grammar_of(&seq);
        let idx = GrammarIndex::build(&g);
        for (id, rule) in g.iter_rules() {
            assert_eq!(idx.body(id), rule.body.as_slice(), "rule {id}");
            for (pos, &u) in rule.body.iter().enumerate() {
                assert_eq!(idx.use_at(Loc { rule: id, pos }), u);
            }
        }
        // The arena packs exactly the live bodies, nothing more.
        let total: usize = g.iter_rules().map(|(_, r)| r.body.len()).sum();
        assert_eq!(idx.arena.len(), total);
    }
}
