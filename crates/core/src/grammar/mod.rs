//! The trace grammar (paper §II-A).
//!
//! A trace — the sequence of terminal events raised by the runtime — is
//! reduced into a *grammar*: a set of rules, each mapping a non-terminal
//! symbol to a finite sequence of terminal and non-terminal symbols, where
//! every symbol use carries a *consecutive-repetition exponent*. One rule is
//! the *root* and represents the complete trace; the trace is the only
//! expression the grammar can produce.
//!
//! The grammar maintained by [`builder::GrammarBuilder`] respects the three
//! rules from the paper at all times:
//!
//! 1. every non-root non-terminal is used at least twice (counting
//!    exponents), so each rule represents a sequence that actually repeats;
//! 2. every ordered couple of distinct adjacent symbols appears at most once
//!    in the whole grammar (digram uniqueness);
//! 3. no symbol appears twice side by side — consecutive repetitions
//!    `aⁿ aᵐ` are merged into `aⁿ⁺ᵐ`.
//!
//! This module holds the passive data structures plus read-side algorithms
//! (unfolding, occurrence counting, the children-first [`Grammar::fold`]
//! every compressed-domain summary is built by, pretty-printing); the
//! on-line reduction lives in [`builder`], and the debug validator in
//! [`invariants`].

pub mod builder;
pub mod index;
pub mod invariants;

pub use index::{GrammarIndex, RuleMeta};

use crate::event::EventId;
use crate::util::FxHashMap;

/// Identifier of a grammar rule (non-terminal symbol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Index into rule-ordered arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A grammar symbol: either a terminal (an event) or a non-terminal (a rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Symbol {
    /// A terminal symbol: one event raised by the runtime.
    Terminal(EventId),
    /// A non-terminal symbol: a recurring sub-sequence.
    Rule(RuleId),
}

impl Symbol {
    /// Returns the event id if this is a terminal.
    #[inline]
    pub fn terminal(self) -> Option<EventId> {
        match self {
            Symbol::Terminal(e) => Some(e),
            Symbol::Rule(_) => None,
        }
    }

    /// Returns the rule id if this is a non-terminal.
    #[inline]
    pub fn rule(self) -> Option<RuleId> {
        match self {
            Symbol::Rule(r) => Some(r),
            Symbol::Terminal(_) => None,
        }
    }
}

/// One use of a symbol inside a rule body, together with its number of
/// consecutive repetitions (`count >= 1`). `aⁿ` is `SymbolUse { symbol: a,
/// count: n }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymbolUse {
    /// The symbol being used.
    pub symbol: Symbol,
    /// Number of consecutive repetitions (≥ 1).
    pub count: u32,
}

impl SymbolUse {
    /// Convenience constructor.
    #[inline]
    pub fn new(symbol: Symbol, count: u32) -> Self {
        debug_assert!(count >= 1);
        SymbolUse { symbol, count }
    }
}

/// A rule body plus the bookkeeping used by the builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The sequence the non-terminal expands to.
    pub body: Vec<SymbolUse>,
    /// Weighted reference count: the sum of `count` over every use of this
    /// rule in other rule bodies. The root's refcount is 0.
    pub refcount: u32,
}

impl Rule {
    fn empty() -> Self {
        Rule {
            body: Vec::new(),
            refcount: 0,
        }
    }
}

/// An immutable position inside the grammar: `pos`-th symbol use of `rule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Loc {
    /// Rule whose body contains the symbol use.
    pub rule: RuleId,
    /// Index of the symbol use within the rule body.
    pub pos: usize,
}

/// A per-rule summary that [`Grammar::fold`] composes bottom-up: the
/// summary of a rule body is the concatenation of its uses, and a use
/// `sᵏ` of a rule contributes that rule's summary repeated `k` times.
pub trait Summary: Default {
    /// What leaves are classified against (e.g. an event-class table).
    type Context: ?Sized;

    /// Appends `count` consecutive occurrences of `event`, used at `at`.
    fn leaf(&mut self, cx: &Self::Context, event: EventId, count: u32, at: Loc);

    /// Appends `child` repeated `k` times.
    fn append_scaled(&mut self, child: &Self, k: u64);

    /// Called once the whole body is appended, before any parent reads
    /// the summary.
    fn close(&mut self) {}
}

/// The trace grammar: a set of rules with a designated root.
///
/// Rule slots may be vacant (`None`) while a [`builder::GrammarBuilder`] is
/// mutating the grammar; [`Grammar::compact`] renumbers rules densely for
/// serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grammar {
    pub(crate) rules: Vec<Option<Rule>>,
    pub(crate) root: RuleId,
}

impl Default for Grammar {
    fn default() -> Self {
        Self::new()
    }
}

impl Grammar {
    /// Creates a grammar containing only an empty root rule.
    pub fn new() -> Self {
        Grammar {
            rules: vec![Some(Rule::empty())],
            root: RuleId(0),
        }
    }

    /// The root rule id.
    #[inline]
    pub fn root(&self) -> RuleId {
        self.root
    }

    /// Returns the rule for `id`, panicking if the slot is vacant.
    #[inline]
    pub fn rule(&self, id: RuleId) -> &Rule {
        self.rules[id.index()]
            .as_ref()
            .expect("rule slot is vacant")
    }

    /// Returns the rule for `id` if the slot is live.
    #[inline]
    pub fn try_rule(&self, id: RuleId) -> Option<&Rule> {
        self.rules.get(id.index()).and_then(|r| r.as_ref())
    }

    #[inline]
    pub(crate) fn rule_mut(&mut self, id: RuleId) -> &mut Rule {
        self.rules[id.index()]
            .as_mut()
            .expect("rule slot is vacant")
    }

    /// Whether `id` refers to a live rule.
    #[inline]
    pub fn is_live(&self, id: RuleId) -> bool {
        self.try_rule(id).is_some()
    }

    /// Number of live rules, including the root.
    ///
    /// This is the "# rules" metric of the paper's Table I.
    pub fn rule_count(&self) -> usize {
        self.rules.iter().filter(|r| r.is_some()).count()
    }

    /// Total number of rule slots (live + vacant); rule ids index into this
    /// range.
    pub fn rules_slots(&self) -> usize {
        self.rules.len()
    }

    /// Iterates over `(id, rule)` for all live rules.
    pub fn iter_rules(&self) -> impl Iterator<Item = (RuleId, &Rule)> {
        self.rules
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|r| (RuleId(i as u32), r)))
    }

    /// The symbol use at `loc`.
    #[inline]
    pub fn at(&self, loc: Loc) -> SymbolUse {
        self.rule(loc.rule).body[loc.pos]
    }

    /// Total number of terminal occurrences the grammar unfolds to, i.e. the
    /// length of the original trace.
    pub fn trace_len(&self) -> u64 {
        self.expanded_len(Symbol::Rule(self.root))
    }

    /// Number of terminals `symbol` expands to (1 for terminals).
    pub fn expanded_len(&self, symbol: Symbol) -> u64 {
        let mut memo: FxHashMap<RuleId, u64> = FxHashMap::default();
        self.expanded_len_memo(symbol, &mut memo)
    }

    fn expanded_len_memo(&self, symbol: Symbol, memo: &mut FxHashMap<RuleId, u64>) -> u64 {
        match symbol {
            Symbol::Terminal(_) => 1,
            Symbol::Rule(r) => {
                if let Some(&n) = memo.get(&r) {
                    return n;
                }
                let n = self
                    .rule(r)
                    .body
                    .iter()
                    .map(|u| u.count as u64 * self.expanded_len_memo(u.symbol, memo))
                    .sum();
                memo.insert(r, n);
                n
            }
        }
    }

    /// Unfolds the grammar back into the full terminal sequence.
    ///
    /// This is the inverse of the reduction: recursively replacing every
    /// non-terminal with its body and expanding repetition exponents (paper
    /// Fig. 1). Use [`Grammar::unfold_iter`] to avoid materializing the
    /// whole trace.
    pub fn unfold(&self) -> Vec<EventId> {
        self.unfold_iter().collect()
    }

    /// Lazily unfolds the grammar into the terminal sequence.
    pub fn unfold_iter(&self) -> Unfold<'_> {
        Unfold::new(self)
    }

    /// How many times each live rule's body is expanded when unfolding the
    /// whole trace (the root expands exactly once). Indexed by rule slot.
    ///
    /// These counts drive the probability estimates of PYTHIA-PREDICT
    /// (paper §II-C): the likelihood of a progress sequence is proportional
    /// to the number of times it occurs in the reference execution.
    pub fn expansion_counts(&self) -> Vec<u64> {
        // The rule graph is a DAG; process rules in topological order from
        // the root by repeated relaxation (the grammar is small, and a
        // simple two-phase DFS avoids recursion limits).
        let mut counts = vec![0u64; self.rules.len()];
        counts[self.root.index()] = 1;
        for &id in self.topological_order().iter() {
            let c = counts[id.index()];
            if c == 0 {
                continue;
            }
            for u in &self.rule(id).body {
                if let Symbol::Rule(r) = u.symbol {
                    counts[r.index()] += c * u.count as u64;
                }
            }
        }
        counts
    }

    /// Live rules sorted so that every rule precedes the rules it references
    /// (root first). Panics if the rule graph has a cycle, which the builder
    /// never produces.
    pub fn topological_order(&self) -> Vec<RuleId> {
        self.try_topological_order()
            .unwrap_or_else(|r| panic!("grammar rule graph has a cycle at {r}"))
    }

    /// [`Grammar::topological_order`] for grammars nobody vouches for: a
    /// cycle is returned as `Err` with a rule on it, and references to
    /// vacant or out-of-range slots are skipped (the structural checks of
    /// the linter and the loader report those).
    pub fn try_topological_order(&self) -> Result<Vec<RuleId>, RuleId> {
        let live = |u: &SymbolUse| u.symbol.rule().filter(|&r| self.is_live(r));
        let mut order = post_order(
            self.rules.len(),
            RuleId::index,
            self.iter_rules().map(|(id, _)| id),
            |r| self.rule(r).body.iter().filter_map(live),
        )
        .map_err(|cycle| cycle[cycle.len() - 1])?;
        // Post-order gives children first; reverse for parents-first.
        order.reverse();
        Ok(order)
    }

    /// Folds every live rule into a [`Summary`], children first: a rule's
    /// summary is its body's terminals ([`Summary::leaf`]) and child
    /// summaries ([`Summary::append_scaled`], borrowed, scaled by the
    /// use's exponent) appended in body order. Returns the summaries
    /// indexed by rule slot (vacant slots hold `S::default()`); the root's
    /// is the whole trace's. O(|grammar|) calls, never O(|trace|). The
    /// rule graph must be acyclic.
    pub fn fold<S: Summary>(&self, cx: &S::Context) -> Vec<S> {
        let mut sums: Vec<S> = (0..self.rules.len()).map(|_| S::default()).collect();
        for &id in self.topological_order().iter().rev() {
            let mut s = S::default();
            for (pos, u) in self.rule(id).body.iter().enumerate() {
                match u.symbol {
                    Symbol::Terminal(e) => s.leaf(cx, e, u.count, Loc { rule: id, pos }),
                    Symbol::Rule(r) => s.append_scaled(&sums[r.index()], u.count as u64),
                }
            }
            s.close();
            sums[id.index()] = s;
        }
        sums
    }

    /// First terminal produced when expanding `symbol`.
    pub fn first_terminal(&self, symbol: Symbol) -> EventId {
        let mut s = symbol;
        loop {
            match s {
                Symbol::Terminal(e) => return e,
                Symbol::Rule(r) => {
                    s = self.rule(r).body.first().expect("empty rule body").symbol;
                }
            }
        }
    }

    /// Every location where the terminal `event` is used, across all live
    /// rules, in deterministic (rule, position) order.
    pub fn terminal_uses(&self, event: EventId) -> Vec<Loc> {
        let mut out = Vec::new();
        for (id, rule) in self.iter_rules() {
            for (pos, u) in rule.body.iter().enumerate() {
                if u.symbol == Symbol::Terminal(event) {
                    out.push(Loc { rule: id, pos });
                }
            }
        }
        out
    }

    /// Every location where rule `target` is used.
    pub fn rule_uses(&self, target: RuleId) -> Vec<Loc> {
        let mut out = Vec::new();
        self.collect_rule_uses(target, &mut out);
        out
    }

    /// [`Grammar::rule_uses`] into a caller-provided buffer (cleared
    /// first), so hot callers can recycle the allocation.
    pub fn collect_rule_uses(&self, target: RuleId, out: &mut Vec<Loc>) {
        out.clear();
        for (id, rule) in self.iter_rules() {
            for (pos, u) in rule.body.iter().enumerate() {
                if u.symbol == Symbol::Rule(target) {
                    out.push(Loc { rule: id, pos });
                }
            }
        }
    }

    /// Renumbers live rules densely (root becomes rule 0) and drops vacant
    /// slots. Used before serialization.
    pub fn compact(&self) -> Grammar {
        let mut remap: FxHashMap<RuleId, RuleId> = FxHashMap::default();
        remap.insert(self.root, RuleId(0));
        let mut next = 1u32;
        for (id, _) in self.iter_rules() {
            if id != self.root {
                remap.insert(id, RuleId(next));
                next += 1;
            }
        }
        let mut rules: Vec<Option<Rule>> = vec![None; next as usize];
        for (id, rule) in self.iter_rules() {
            let mut new_rule = rule.clone();
            for u in &mut new_rule.body {
                if let Symbol::Rule(r) = u.symbol {
                    u.symbol = Symbol::Rule(remap[&r]);
                }
            }
            rules[remap[&id].index()] = Some(new_rule);
        }
        Grammar {
            rules,
            root: RuleId(0),
        }
    }

    /// Renders the grammar in the paper's notation, resolving terminal names
    /// through `name_of`:
    ///
    /// ```text
    /// R0 -> Bcast^6 R1 Barrier R2^200 ...
    /// R1 -> Irecv Irecv Waitall
    /// ```
    pub fn render(&self, name_of: &dyn Fn(EventId) -> String) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut ids: Vec<RuleId> = self.iter_rules().map(|(id, _)| id).collect();
        ids.sort();
        // Root first.
        ids.retain(|&id| id != self.root);
        ids.insert(0, self.root);
        for id in ids {
            let _ = write!(out, "{id} ->");
            for u in &self.rule(id).body {
                match u.symbol {
                    Symbol::Terminal(e) => {
                        let _ = write!(out, " {}", name_of(e));
                    }
                    Symbol::Rule(r) => {
                        let _ = write!(out, " {r}");
                    }
                }
                if u.count > 1 {
                    let _ = write!(out, "^{}", u.count);
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Iterative three-colour depth-first search from each of `starts` in
/// turn, over nodes numbered `index(node) < n` whose successors
/// `children` lists. Returns every node reached in post-order (successors
/// first), or, at the first edge that closes a cycle, the path from the
/// search's root to that edge's target, the target repeated at the end.
pub(crate) fn post_order<N: Copy, I: Iterator<Item = N>>(
    n: usize,
    index: impl Fn(N) -> usize,
    starts: impl Iterator<Item = N>,
    mut children: impl FnMut(N) -> I,
) -> Result<Vec<N>, Vec<N>> {
    let mut marks = vec![0u8; n]; // 0 white, 1 grey (on the path), 2 black
    let mut order = Vec::with_capacity(n);
    // One explicit stack for the whole search: a path never holds a node
    // twice, so `n` frames always suffice.
    let mut stack: Vec<(N, I)> = Vec::with_capacity(n);
    for start in starts {
        if marks[index(start)] != 0 {
            continue;
        }
        marks[index(start)] = 1;
        stack.push((start, children(start)));
        while let Some((node, successors)) = stack.last_mut() {
            let node = *node;
            let Some(child) = successors.next() else {
                marks[index(node)] = 2;
                order.push(node);
                stack.pop();
                continue;
            };
            match marks[index(child)] {
                0 => {
                    marks[index(child)] = 1;
                    stack.push((child, children(child)));
                }
                1 => {
                    let from = stack.iter().position(|(x, _)| index(*x) == index(child));
                    let path = stack[from.expect("a grey node is on the path")..].iter();
                    return Err(path.map(|(x, _)| *x).chain([child]).collect());
                }
                _ => {}
            }
        }
    }
    Ok(order)
}

/// Lazy depth-first unfolding of a [`Grammar`] into its terminal sequence.
pub struct Unfold<'g> {
    grammar: &'g Grammar,
    // Stack of (rule, position, repetitions already emitted for that use).
    stack: Vec<(RuleId, usize, u32)>,
}

impl<'g> Unfold<'g> {
    fn new(grammar: &'g Grammar) -> Self {
        let mut u = Unfold {
            grammar,
            stack: Vec::new(),
        };
        if !grammar.rule(grammar.root).body.is_empty() {
            u.stack.push((grammar.root, 0, 0));
            u.descend();
        }
        u
    }

    /// Descends from the current top-of-stack use until it points at a
    /// terminal use.
    fn descend(&mut self) {
        loop {
            let &(rule, pos, _) = self.stack.last().unwrap();
            match self.grammar.rule(rule).body[pos].symbol {
                Symbol::Terminal(_) => return,
                Symbol::Rule(r) => self.stack.push((r, 0, 0)),
            }
        }
    }

    /// Writes the progress-sequence context of the occurrence `next()` is
    /// *about to* return into `out` (cleared first): its `(rule, position)`
    /// frames, innermost first. Leaves `out` empty at the end of the trace.
    pub fn context_frames(&self, out: &mut Vec<(RuleId, usize)>) {
        out.clear();
        out.extend(self.stack.iter().rev().map(|&(r, p, _)| (r, p)));
    }
}

impl Iterator for Unfold<'_> {
    type Item = EventId;

    fn next(&mut self) -> Option<EventId> {
        let &(rule, pos, _) = self.stack.last()?;
        let u = self.grammar.rule(rule).body[pos];
        let event = u.symbol.terminal().expect("descend stopped at terminal");
        // Advance to the next terminal position.
        while let Some(&(r, p, rep)) = self.stack.last() {
            let use_ = self.grammar.rule(r).body[p];
            let body_len = self.grammar.rule(r).body.len();
            if rep + 1 < use_.count {
                // Another repetition of the same use.
                self.stack.last_mut().unwrap().2 = rep + 1;
                if let Symbol::Rule(_) = use_.symbol {
                    // Re-enter the sub-rule from its start.
                    self.descend();
                }
                return Some(event);
            }
            if p + 1 < body_len {
                let top = self.stack.last_mut().unwrap();
                top.1 = p + 1;
                top.2 = 0;
                self.descend();
                return Some(event);
            }
            // Finished this rule body; pop and continue in the parent.
            self.stack.pop();
        }
        Some(event)
    }
}

#[cfg(test)]
mod tests {
    use super::builder::GrammarBuilder;
    use super::*;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    /// Builds a grammar for the paper's Fig. 1 trace "abbcbcab" by hand.
    fn fig1_grammar() -> Grammar {
        // R  -> A B^2 A        (paper: R -> A b B A ... we use the variant
        // A  -> a b            that our exponent scheme produces; what the
        // B  -> b c            test checks is unfold == "abbcbcab")
        let mut g = Grammar::new();
        // rule 1: A -> a b
        g.rules.push(Some(Rule {
            body: vec![
                SymbolUse::new(Symbol::Terminal(e(0)), 1),
                SymbolUse::new(Symbol::Terminal(e(1)), 1),
            ],
            refcount: 2,
        }));
        // rule 2: B -> b c
        g.rules.push(Some(Rule {
            body: vec![
                SymbolUse::new(Symbol::Terminal(e(1)), 1),
                SymbolUse::new(Symbol::Terminal(e(2)), 1),
            ],
            refcount: 2,
        }));
        let root = g.root;
        g.rules[root.index()] = Some(Rule {
            body: vec![
                SymbolUse::new(Symbol::Rule(RuleId(1)), 1),
                SymbolUse::new(Symbol::Rule(RuleId(2)), 2),
                SymbolUse::new(Symbol::Rule(RuleId(1)), 1),
            ],
            refcount: 0,
        });
        g
    }

    #[test]
    fn unfold_hand_built_grammar() {
        let g = fig1_grammar();
        let trace: Vec<u32> = g.unfold().into_iter().map(|x| x.0).collect();
        // a b | b c | b c | a b
        assert_eq!(trace, vec![0, 1, 1, 2, 1, 2, 0, 1]);
        assert_eq!(g.trace_len(), 8);
    }

    #[test]
    fn unfold_empty_grammar() {
        let g = Grammar::new();
        assert_eq!(g.unfold(), Vec::<EventId>::new());
        assert_eq!(g.trace_len(), 0);
    }

    #[test]
    fn expansion_counts_weighted_by_exponents() {
        let g = fig1_grammar();
        let counts = g.expansion_counts();
        assert_eq!(counts[g.root.index()], 1);
        assert_eq!(counts[1], 2); // A used twice
        assert_eq!(counts[2], 2); // B used once with exponent 2
    }

    #[test]
    fn first_terminal_descends() {
        let g = fig1_grammar();
        assert_eq!(g.first_terminal(Symbol::Rule(g.root)), e(0));
        assert_eq!(g.first_terminal(Symbol::Rule(RuleId(2))), e(1));
        assert_eq!(g.first_terminal(Symbol::Terminal(e(7))), e(7));
    }

    #[test]
    fn terminal_and_rule_uses() {
        let g = fig1_grammar();
        // b appears in A (pos 1) and B (pos 0).
        let uses = g.terminal_uses(e(1));
        assert_eq!(uses.len(), 2);
        let a_uses = g.rule_uses(RuleId(1));
        assert_eq!(a_uses.len(), 2); // two sites in root
        let b_uses = g.rule_uses(RuleId(2));
        assert_eq!(b_uses.len(), 1); // one site, exponent 2
    }

    #[test]
    fn compact_renumbers_and_preserves_trace() {
        let mut b = GrammarBuilder::new();
        let seq = [0u32, 1, 1, 2, 1, 2, 0, 1, 0, 1, 1, 2];
        for &s in &seq {
            b.push(e(s));
        }
        let g = b.into_grammar();
        let c = g.compact();
        assert_eq!(c.root(), RuleId(0));
        assert_eq!(c.rules.iter().filter(|r| r.is_none()).count(), 0);
        assert_eq!(g.unfold(), c.unfold());
    }

    #[test]
    fn render_uses_exponents() {
        let g = fig1_grammar();
        let s = g.render(&|id| ["a", "b", "c"][id.index()].to_owned());
        assert!(s.contains("R0 ->"), "{s}");
        assert!(s.contains("^2"), "{s}");
    }

    #[test]
    fn topological_order_root_first() {
        let g = fig1_grammar();
        let order = g.topological_order();
        assert_eq!(order[0], g.root);
        assert_eq!(order.len(), 3);
    }
}
