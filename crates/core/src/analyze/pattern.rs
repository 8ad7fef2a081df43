//! Pattern-query matching on compressed traces.
//!
//! A small regular pattern language over event names is compiled to a
//! scanning DFA and evaluated **on the grammar**, never on the expanded
//! stream, at a cost that follows the grammar:
//!
//! * **Symbol classes.** The classes come from the pattern's own name
//!   tests, so the subset construction, on bit-set NFA state sets, runs
//!   once per [`PatternQuery`]; a trace only maps its registry onto them.
//! * **Reached pairs only.** [`match_grammar`] evaluates a rule from the
//!   DFA states the stream actually enters it in and from no other:
//!   demand-driven from `(root, start)`, with a memo `(rule, entry state)
//!   → (end state, match count, earliest hit offset)`. Recordings enter a
//!   rule in one to three of the automaton's states, not in all of them.
//! * **Repetition by orbit.** A body unit with exponent `k` follows the
//!   orbit of its entry state under the child's summary until `k` is used
//!   up or a state repeats, then accounts for the remaining repetitions
//!   arithmetically: whole cycles plus a tail. The language has no Kleene
//!   star, so once a word is as long as the longest match, `M` events,
//!   the state depends on its last `M` events alone, and the orbit of a
//!   segment of `L` events settles within ⌈M / L⌉ + 1 steps.
//!
//! That is O(|Q| · classes) set operations per query, O(|registry| ·
//! tests) to bind a vocabulary, and O(reached pairs · body length) to
//! sweep; the worst case, a stream that enters every rule in every state,
//! is the `rules × |Q|` of a full transfer table. The same DFA runs the
//! query over an expanded stream ([`Dfa::match_events`]);
//! `tests/analyze_consistency.rs` proves both agree (count, first-hit
//! index, end state) on random sessions, and this module's tests hold the
//! compiler to a direct evaluation of the pattern on the AST.
//!
//! ## Pattern grammar
//!
//! ```text
//! pattern  := seq ('|' seq)*               alternation
//! seq      := term+                        concatenation
//! term     := factor ('{' N (',' M)? '}')* bounded repetition
//! factor   := atom | atom '~' N atom       "right within N events of left"
//! atom     := NAME                         event name (case-insensitive,
//!                                          the MPI_ prefix may be omitted)
//!           | NAME '(' INT ')'             name with an exact payload
//!           | '.'                          any single event
//!           | '!' atom                     any single event NOT matching
//!           | '(' pattern ')'              grouping
//! ```
//!
//! `a ~N b` desugars to `a (!b){0,N-1} b` (`b` must be a single-event
//! atom); `MPI_Isend (!MPI_Wait){8}` flags an `Isend` followed by 8
//! events none of which is a `Wait` — the "Isend not matched by Wait
//! within k events" query. Matching is unanchored (the scan restarts at
//! every position) and counts every position at which a match ends.
//! Counting windows are exponential under determinization (overlapping
//! match threads), so window widths much past ~10 hit the DFA state cap.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use crate::event::{EventId, EventRegistry};
use crate::grammar::{Grammar, RuleId, Symbol};
use crate::util::FxHashMap;

use super::{Diagnostic, Pass, Severity};

/// Hard ceiling on bounded-repetition exponents (`{n,m}`), NFA states and
/// DFA states: queries are small by construction, and the cap turns an
/// adversarial pattern into a parse/compile error instead of a blowup.
const MAX_REPEAT: u32 = 4096;
const MAX_NFA_STATES: usize = 1 << 16;
const MAX_DFA_STATES: usize = 4096;

/// Single-event predicate: what one atom accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Pred {
    /// `.` — any event.
    Any,
    /// `NAME` / `NAME(P)`; `name` is stored normalised ([`normalize`]).
    Name { name: String, payload: Option<i64> },
    /// `!atom`.
    Not(Box<Pred>),
}

impl Pred {
    /// The name test under the `!` chain (`None` for `.`) and whether an
    /// odd number of `!`s negates it.
    fn leaf(&self) -> (Option<(&str, Option<i64>)>, bool) {
        match self {
            Pred::Any => (None, false),
            Pred::Name { name, payload } => (Some((name, *payload)), false),
            Pred::Not(inner) => {
                let (leaf, negated) = inner.leaf();
                (leaf, !negated)
            }
        }
    }
}

/// Drops a leading `MPI_` (any case). A bare `MPI_` becomes the empty
/// name, which only another bare prefix or an empty event name equals.
fn strip_mpi(name: &str) -> &str {
    match name.get(..4) {
        Some(prefix) if prefix.eq_ignore_ascii_case("mpi_") => &name[4..],
        _ => name,
    }
}

/// The form query names are stored in: lower-case, `MPI_` prefix dropped.
fn normalize(name: &str) -> String {
    strip_mpi(name).to_ascii_lowercase()
}

/// Case-insensitive, `MPI_`-prefix-eliding comparison of a [`normalize`]d
/// query name with an event name: `wait` == `MPI_Wait` == `mpi_wait`.
fn name_matches(query: &str, event: &str) -> bool {
    query.eq_ignore_ascii_case(strip_mpi(event))
}

/// Parsed pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum Ast {
    /// A single-event predicate leaf.
    One(#[doc(hidden)] PredNode),
    /// Concatenation.
    Seq(Vec<Ast>),
    /// Alternation.
    Alt(Vec<Ast>),
    /// `{min, max}` bounded repetition.
    Repeat {
        /// Repeated pattern.
        node: Box<Ast>,
        /// Minimum repetitions.
        min: u32,
        /// Maximum repetitions.
        max: u32,
    },
}

/// Opaque leaf payload (keeps [`Pred`] out of the public API).
#[derive(Debug, Clone, PartialEq)]
pub struct PredNode(Pred);

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'s> {
    src: &'s str,
    bytes: &'s [u8],
    pos: usize,
}

impl<'s> Parser<'s> {
    fn new(src: &'s str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.bump() {
            Some(got) if got == c => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {} of pattern, got {:?}",
                c as char,
                self.pos,
                got.map(|b| b as char)
            )),
        }
    }

    fn number(&mut self) -> Result<i64, String> {
        self.skip_ws();
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| format!("expected a number at byte {start} of pattern"))
    }

    fn ident(&mut self) -> Result<&'s str, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected an event name at byte {start} of pattern"));
        }
        Ok(&self.src[start..self.pos])
    }

    fn alt(&mut self) -> Result<Ast, String> {
        let mut arms = vec![self.seq()?];
        while self.peek() == Some(b'|') {
            self.bump();
            arms.push(self.seq()?);
        }
        Ok(if arms.len() == 1 {
            arms.pop().unwrap()
        } else {
            Ast::Alt(arms)
        })
    }

    fn seq(&mut self) -> Result<Ast, String> {
        let mut items = Vec::new();
        loop {
            match self.peek() {
                None | Some(b'|') | Some(b')') => break,
                _ => items.push(self.term()?),
            }
        }
        match items.len() {
            0 => Err("empty pattern".into()),
            1 => Ok(items.pop().unwrap()),
            _ => Ok(Ast::Seq(items)),
        }
    }

    fn term(&mut self) -> Result<Ast, String> {
        let mut node = self.factor()?;
        while self.peek() == Some(b'{') {
            self.bump();
            let min = self.repeat_bound()?;
            let max = if self.peek() == Some(b',') {
                self.bump();
                self.repeat_bound()?
            } else {
                min
            };
            self.expect(b'}')?;
            if max < min {
                return Err(format!("repetition {{{min},{max}}} has max < min"));
            }
            node = Ast::Repeat {
                node: Box::new(node),
                min,
                max,
            };
        }
        Ok(node)
    }

    fn repeat_bound(&mut self) -> Result<u32, String> {
        let n = self.number()?;
        if !(0..=MAX_REPEAT as i64).contains(&n) {
            return Err(format!("repetition bound {n} outside 0..={MAX_REPEAT}"));
        }
        Ok(n as u32)
    }

    fn factor(&mut self) -> Result<Ast, String> {
        let left = self.atom()?;
        if self.peek() == Some(b'~') {
            self.bump();
            let n = self.repeat_bound()?;
            if n == 0 {
                return Err("'~0' window is empty; use '~1' or more".into());
            }
            let right = self.atom()?;
            let Ast::One(pred) = &right else {
                return Err("the right side of '~N' must be a single-event atom".into());
            };
            // a ~N b  ==  a (!b){0,N-1} b
            return Ok(Ast::Seq(vec![
                left,
                Ast::Repeat {
                    node: Box::new(Ast::One(PredNode(Pred::Not(Box::new(pred.0.clone()))))),
                    min: 0,
                    max: n - 1,
                },
                right,
            ]));
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Ast, String> {
        match self.peek() {
            Some(b'(') => {
                self.bump();
                let inner = self.alt()?;
                self.expect(b')')?;
                Ok(inner)
            }
            Some(b'!') => {
                self.bump();
                match self.atom()? {
                    Ast::One(p) => Ok(Ast::One(PredNode(Pred::Not(Box::new(p.0))))),
                    _ => Err("'!' applies to a single-event atom, not a group".into()),
                }
            }
            Some(b'.') => {
                self.bump();
                Ok(Ast::One(PredNode(Pred::Any)))
            }
            _ => {
                let name = normalize(self.ident()?);
                // Payload parens bind tightly: `send(2)` is a payload,
                // `send (x | y)` is a group.
                let payload = if self.bytes.get(self.pos) == Some(&b'(') {
                    self.bump();
                    let p = self.number()?;
                    self.expect(b')')?;
                    Some(p)
                } else {
                    None
                };
                Ok(Ast::One(PredNode(Pred::Name { name, payload })))
            }
        }
    }
}

/// Parses a pattern. Registry-independent: compilation against a concrete
/// event vocabulary happens in [`Dfa::compile`].
pub fn parse(src: &str) -> Result<Ast, String> {
    let mut p = Parser::new(src);
    let ast = p.alt()?;
    if p.peek().is_some() {
        return Err(format!(
            "unexpected '{}' at byte {} of pattern",
            p.bytes[p.pos] as char, p.pos
        ));
    }
    Ok(ast)
}

// ---------------------------------------------------------------------------
// NFA (Thompson construction)
// ---------------------------------------------------------------------------

/// One NFA edge label: leaf `leaf` of [`Nfa::leaves`] (`None` for `.`)
/// must hold of the symbol, or must not when `negated`.
#[derive(Clone, Copy)]
struct Test {
    leaf: Option<usize>,
    negated: bool,
}

impl Test {
    /// Evaluates the label on a symbol's leaf signature (bit `i` set when
    /// leaf `i` holds of the symbol).
    fn holds(self, signature: &[u64]) -> bool {
        self.leaf.is_none_or(|i| bit(signature, i)) != self.negated
    }
}

fn bit(set: &[u64], i: usize) -> bool {
    set[i / 64] >> (i % 64) & 1 == 1
}

/// Sets bit `i`; returns whether it was clear.
fn set_bit(set: &mut [u64], i: usize) -> bool {
    let fresh = !bit(set, i);
    set[i / 64] |= 1 << (i % 64);
    fresh
}

#[derive(Default)]
struct Nfa<'a> {
    /// Per state: its labelled edge (the construction gives a state at
    /// most one) and its epsilon edges.
    step: Vec<Option<(Test, usize)>>,
    eps: Vec<Vec<usize>>,
    /// The distinct `(name, payload)` tests of the pattern; edges name
    /// them by index.
    leaves: Vec<(&'a str, Option<i64>)>,
    leaf_ids: HashMap<(&'a str, Option<i64>), usize>,
}

impl<'a> Nfa<'a> {
    fn state(&mut self) -> Result<usize, String> {
        if self.step.len() >= MAX_NFA_STATES {
            return Err(format!("pattern too large (> {MAX_NFA_STATES} NFA states)"));
        }
        self.step.push(None);
        self.eps.push(Vec::new());
        Ok(self.step.len() - 1)
    }

    /// Builds the fragment for `ast`; returns `(start, accept)`.
    fn build(&mut self, ast: &'a Ast) -> Result<(usize, usize), String> {
        match ast {
            Ast::One(p) => {
                let s = self.state()?;
                let a = self.state()?;
                let (leaf, negated) = p.0.leaf();
                let leaf = leaf.map(|key| {
                    *self.leaf_ids.entry(key).or_insert_with(|| {
                        self.leaves.push(key);
                        self.leaves.len() - 1
                    })
                });
                self.step[s] = Some((Test { leaf, negated }, a));
                Ok((s, a))
            }
            Ast::Seq(items) => {
                let mut frag: Option<(usize, usize)> = None;
                for item in items {
                    let (s, a) = self.build(item)?;
                    frag = Some(match frag {
                        None => (s, a),
                        Some((fs, fa)) => {
                            self.eps[fa].push(s);
                            (fs, a)
                        }
                    });
                }
                frag.ok_or_else(|| "empty sequence".into())
            }
            Ast::Alt(arms) => {
                let s = self.state()?;
                let a = self.state()?;
                for arm in arms {
                    let (as_, aa) = self.build(arm)?;
                    self.eps[s].push(as_);
                    self.eps[aa].push(a);
                }
                Ok((s, a))
            }
            Ast::Repeat { node, min, max } => {
                let s = self.state()?;
                let mut tail = s;
                let a = self.state()?;
                for i in 0..*max {
                    let (ns, na) = self.build(node)?;
                    self.eps[tail].push(ns);
                    if i >= *min {
                        self.eps[tail].push(a);
                    }
                    tail = na;
                }
                self.eps[tail].push(a);
                Ok((s, a))
            }
        }
    }

    /// Closes the bit set `set` under epsilon edges; `work` holds the
    /// states whose edges are still to be followed.
    fn closure(&self, set: &mut [u64], work: &mut Vec<usize>) {
        while let Some(s) = work.pop() {
            for &t in &self.eps[s] {
                if set_bit(set, t) {
                    work.push(t);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scanning DFA: one automaton per pattern, bound to each trace's registry
// ---------------------------------------------------------------------------

/// The part of a compiled pattern that no trace changes: a dense scanning
/// DFA over the symbol classes of [`Dfa::bind`]. Entering a state whose
/// NFA state set holds the NFA accept counts a match.
#[derive(Debug)]
struct Automaton {
    /// `delta[state * classes + class] -> state`; state 0 is the start.
    delta: Vec<u32>,
    /// Per-state accepting flag.
    accept: Vec<bool>,
    /// The distinct `(name, payload)` tests; leaf `i` is class `i + 1`.
    leaves: Vec<(String, Option<i64>)>,
}

impl Automaton {
    fn build(ast: &Ast) -> Result<Automaton, String> {
        let mut nfa = Nfa::default();
        let (nstart, naccept) = nfa.build(ast)?;

        // Each class's signature: which leaves hold of its events.
        let classes = nfa.leaves.len() + 1;
        let sig_words = nfa.leaves.len().div_ceil(64).max(1);
        let mut signatures = vec![0u64; classes * sig_words];
        for (leaf, &(name, payload)) in nfa.leaves.iter().enumerate() {
            let signature = &mut signatures[(leaf + 1) * sig_words..][..sig_words];
            set_bit(signature, leaf);
            if let (Some(_), Some(&plain)) = (payload, nfa.leaf_ids.get(&(name, None))) {
                set_bit(signature, plain);
            }
        }

        // Subset construction over classes. NFA state sets are bit sets,
        // `sets` holds one per DFA state back to back; every set contains
        // the closure of the NFA start (unanchored scan).
        let words = nfa.step.len().div_ceil(64);
        let mut work = vec![nstart];
        let mut start_set = vec![0u64; words];
        set_bit(&mut start_set, nstart);
        nfa.closure(&mut start_set, &mut work);
        let mut sets = start_set.clone();
        let mut ids: FxHashMap<Box<[u64]>, u32> = FxHashMap::default();
        ids.insert(start_set.clone().into_boxed_slice(), 0);
        let mut delta: Vec<u32> = Vec::new();
        let mut accept: Vec<bool> = Vec::new();
        let mut next = vec![0u64; words];

        while accept.len() * words < sets.len() {
            let cur = accept.len() * words..(accept.len() + 1) * words;
            accept.push(bit(&sets[cur.clone()], naccept));
            for signature in signatures.chunks(sig_words) {
                next.copy_from_slice(&start_set);
                for (w, &word) in sets[cur.clone()].iter().enumerate() {
                    let mut live = word;
                    while live != 0 {
                        let s = w * 64 + live.trailing_zeros() as usize;
                        live &= live - 1;
                        if let Some((test, t)) = nfa.step[s] {
                            if test.holds(signature) && set_bit(&mut next, t) {
                                work.push(t);
                            }
                        }
                    }
                }
                nfa.closure(&mut next, &mut work);
                let id = match ids.get(&next[..]) {
                    Some(&id) => id,
                    None => {
                        if ids.len() >= MAX_DFA_STATES {
                            return Err(format!(
                                "pattern too large (> {MAX_DFA_STATES} DFA states)"
                            ));
                        }
                        let id = ids.len() as u32;
                        ids.insert(next.clone().into_boxed_slice(), id);
                        sets.extend_from_slice(&next);
                        id
                    }
                };
                delta.push(id);
            }
        }
        let leaves = nfa.leaves.iter().map(|&(n, p)| (n.to_owned(), p)).collect();
        Ok(Automaton {
            delta,
            accept,
            leaves,
        })
    }
}

/// A pattern's automaton bound to one trace's event vocabulary: the
/// class of each of the `registry.len() + 1` symbols (the extra one
/// absorbs ids outside the registry), and the states those classes reach.
#[derive(Debug, Clone)]
pub struct Dfa {
    automaton: Arc<Automaton>,
    /// `class_of[symbol]`; the last entry is the "unknown id" symbol.
    class_of: Vec<u32>,
    /// Per state: whether the classes in `class_of` reach it from the start.
    reachable: Vec<bool>,
}

impl Dfa {
    /// Number of DFA states (`|Q|`), a function of the pattern alone.
    pub fn states(&self) -> usize {
        self.automaton.accept.len()
    }

    /// Number of symbol classes: what a state row costs, whatever the
    /// size of the vocabulary.
    pub fn classes(&self) -> usize {
        self.automaton.leaves.len() + 1
    }

    /// Start state.
    pub fn start(&self) -> u32 {
        0
    }

    /// Whether `state` is accepting and reachable through this vocabulary.
    pub fn accepting(&self, state: u32) -> bool {
        self.reachable[state as usize] && self.automaton.accept[state as usize]
    }

    /// Whether an accepting state is reachable through this vocabulary.
    pub fn can_match(&self) -> bool {
        (0..self.states() as u32).any(|s| self.accepting(s))
    }

    /// Builds `ast`'s automaton and binds it to `registry`'s vocabulary.
    pub fn compile(ast: &Ast, registry: &EventRegistry) -> Result<Dfa, String> {
        Ok(Dfa::bind(Arc::new(Automaton::build(ast)?), registry))
    }

    /// Two normalised names never both hold of one event, so an event
    /// satisfies no leaf (class 0), or the name-only leaf of one name, or
    /// one payload leaf of it (and its name-only leaf): class `i + 1` for
    /// the most specific leaf `i` that holds. Also marks reachable states.
    fn bind(automaton: Arc<Automaton>, registry: &EventRegistry) -> Dfa {
        let classes = automaton.leaves.len() + 1;
        let mut used = vec![false; classes];
        used[0] = true; // the unknown-id symbol
        let mut class_of = vec![0; registry.len() + 1];
        for (class, (_, desc)) in class_of.iter_mut().zip(registry.iter()) {
            for (leaf, (name, payload)) in automaton.leaves.iter().enumerate() {
                if (*class == 0 || payload.is_some())
                    && name_matches(name, &desc.name)
                    && payload.is_none_or(|p| desc.payload == Some(p))
                {
                    *class = leaf as u32 + 1;
                }
            }
            used[*class as usize] = true;
        }
        let mut reachable = vec![false; automaton.accept.len()];
        reachable[0] = true;
        let mut work = vec![0];
        while let Some(s) = work.pop() {
            let row = &automaton.delta[s * classes..][..classes];
            for (&t, _) in row.iter().zip(&used).filter(|(_, &u)| u) {
                if !std::mem::replace(&mut reachable[t as usize], true) {
                    work.push(t as usize);
                }
            }
        }
        Dfa {
            automaton,
            class_of,
            reachable,
        }
    }

    #[inline]
    fn step(&self, state: u32, event: EventId) -> u32 {
        let class = self.class_of[event.index().min(self.class_of.len() - 1)];
        self.automaton.delta[state as usize * self.classes() + class as usize]
    }

    /// The one-event segment from `state`.
    #[inline]
    fn single(&self, state: u32, event: EventId) -> MatchResult {
        let end_state = self.step(state, event);
        let hit = self.automaton.accept[end_state as usize];
        MatchResult {
            count: hit as u64,
            first: hit.then_some(0),
            end_state,
        }
    }

    /// Runs the query over an expanded stream — the ground truth the
    /// compressed sweep must agree with (consistency tests and the bench
    /// baseline).
    pub fn match_events(&self, events: impl IntoIterator<Item = EventId>) -> MatchResult {
        let mut state = self.start();
        let mut count: u64 = 0;
        let mut first: Option<u64> = None;
        for (i, e) in (0u64..).zip(events) {
            state = self.step(state, e);
            if self.automaton.accept[state as usize] {
                count += 1;
                first.get_or_insert(i);
            }
        }
        MatchResult {
            count,
            first,
            end_state: state,
        }
    }
}

/// Outcome of running one query over one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchResult {
    /// Number of positions at which a match ends.
    pub count: u64,
    /// Index of the event at which the first match ends.
    pub first: Option<u64>,
    /// DFA state after the last event.
    pub end_state: u32,
}

/// One rule being evaluated from one entry state: the body units before
/// `pos`, and `rep` repetitions of unit `pos`, are folded into `at`.
struct Frame {
    rule: RuleId,
    entry: u32,
    pos: usize,
    rep: u64,
    /// Events covered by the units before `pos`.
    offset: u64,
    /// Matches, earliest hit and state so far.
    at: MatchResult,
}

/// Runs the query over a grammar without expanding the trace: only the
/// `(rule, entry state)` pairs the stream reaches are evaluated, each once.
/// The grammar must be a structurally sound DAG (run the linter first).
pub fn match_grammar(g: &Grammar, dfa: &Dfa) -> MatchResult {
    sweep(g, dfa).0
}

/// How many `(rule, entry state)` pairs [`match_grammar`] evaluates for
/// this grammar and query: its cost in a unit no machine changes.
pub fn reached_pairs(g: &Grammar, dfa: &Dfa) -> usize {
    sweep(g, dfa).1
}

fn sweep(g: &Grammar, dfa: &Dfa) -> (MatchResult, usize) {
    let frame = |rule, entry| Frame {
        rule,
        entry,
        pos: 0,
        rep: 0,
        offset: 0,
        at: MatchResult {
            count: 0,
            first: None,
            end_state: entry,
        },
    };
    // One expansion of a rule entered in a state: its summary (`first`
    // relative to the expansion's start) and its length in events.
    let mut memo: FxHashMap<(RuleId, u32), (MatchResult, u64)> =
        FxHashMap::with_capacity_and_hasher(g.rules_slots(), Default::default());
    // An explicit stack: nesting depth is bounded only by the rule count.
    let mut stack = vec![frame(g.root(), dfa.start())];
    'frames: loop {
        let f = stack.last_mut().expect("the root frame is popped last");
        let body = &g.rule(f.rule).body;
        while let Some(u) = body.get(f.pos) {
            let reps = u.count as u64;
            // Events per repetition.
            let mut seg = 1;
            while f.rep < reps {
                let state = f.at.end_state;
                let step = match u.symbol {
                    Symbol::Terminal(e) => dfa.single(state, e),
                    Symbol::Rule(r) => match memo.get(&(r, state)) {
                        Some(&(m, len)) => {
                            seg = len;
                            m
                        }
                        None => {
                            stack.push(frame(r, state));
                            assert!(
                                stack.len() <= g.rules_slots(),
                                "grammar rule graph has a cycle at {r}"
                            );
                            continue 'frames;
                        }
                    },
                };
                if f.at.first.is_none() {
                    f.at.first = step.first.map(|i| {
                        f.offset
                            .saturating_add(f.rep.saturating_mul(seg))
                            .saturating_add(i)
                    });
                }
                // A repetition that ends in the state it started in is how
                // all the remaining ones go. The scanning DFA is definite
                // (see the module header), so the orbit of the entry state
                // reaches that fixed point within ⌈M / seg⌉ + 1 steps; a
                // DFA that cycled instead would be walked to the end.
                let same = if step.end_state == state {
                    reps - f.rep
                } else {
                    1
                };
                f.at.count = f.at.count.saturating_add(same.saturating_mul(step.count));
                f.at.end_state = step.end_state;
                f.rep += same;
            }
            f.offset = f.offset.saturating_add(reps.saturating_mul(seg));
            f.rep = 0;
            f.pos += 1;
        }
        let done = stack.pop().expect("the frame just evaluated");
        memo.insert((done.rule, done.entry), (done.at, done.offset));
        if stack.is_empty() {
            return (done.at, memo.len());
        }
    }
}

/// One user query as carried by [`super::AnalyzeConfig`]: the parsed
/// pattern, its automaton once first evaluated, and reporting policy.
#[derive(Debug, Clone)]
pub struct PatternQuery {
    /// Original pattern text (for messages).
    pub source: String,
    ast: Ast,
    automaton: OnceLock<Result<Arc<Automaton>, String>>,
    /// Severity of a hit (or of absence, with `absent`).
    pub severity: Severity,
    /// Invert the verdict: report ranks where the pattern never matches.
    pub absent: bool,
}

impl PatternQuery {
    /// Parses `src` into a query with the given reporting policy.
    pub fn new(src: &str, severity: Severity, absent: bool) -> Result<Self, String> {
        Ok(PatternQuery {
            source: src.to_owned(),
            ast: parse(src)?,
            automaton: OnceLock::new(),
            severity,
            absent,
        })
    }
}

/// Evaluates one query over every sound thread of a trace, returning
/// diagnostics. `sound[i]` gates thread `i` (the summary algebra assumes a
/// DAG, proven by the linter).
pub fn run_query(
    query: &PatternQuery,
    trace: &crate::trace::TraceData,
    sound: &[bool],
) -> Vec<Diagnostic> {
    let automaton = query
        .automaton
        .get_or_init(|| Automaton::build(&query.ast).map(Arc::new));
    let dfa = match automaton {
        Ok(automaton) => Dfa::bind(Arc::clone(automaton), trace.registry()),
        Err(e) => {
            return vec![Diagnostic::new(
                Severity::Error,
                Pass::Pattern,
                "pattern-invalid",
                format!("pattern '{}' does not compile: {e}", query.source),
            )];
        }
    };
    // When the vocabulary lacks a queried name, nothing can match, and no
    // grammar needs sweeping.
    let live = dfa.can_match();
    let mut diags = Vec::new();
    for (i, t) in trace.threads().iter().enumerate() {
        if !sound.get(i).copied().unwrap_or(false) {
            continue;
        }
        let m = live.then(|| match_grammar(&t.grammar, &dfa));
        let count = m.map_or(0, |m| m.count);
        if query.absent {
            if count == 0 {
                diags.push(
                    Diagnostic::new(
                        query.severity,
                        Pass::Pattern,
                        "pattern-absent",
                        format!(
                            "pattern '{}' never matches on rank {i} ({} events)",
                            query.source, t.event_count
                        ),
                    )
                    .on_thread(i),
                );
            }
        } else if count > 0 {
            let first = m.and_then(|m| m.first).unwrap_or(0);
            diags.push(
                Diagnostic::new(
                    query.severity,
                    Pass::Pattern,
                    "pattern-match",
                    format!(
                        "pattern '{}' matches {} time(s) on rank {i}, first ending at \
                         event {first}",
                        query.source, count
                    ),
                )
                .on_thread(i)
                .near_event(first),
            );
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::builder::GrammarBuilder;
    use crate::grammar::{Rule, SymbolUse};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn grammar_of(events: &[EventId]) -> Grammar {
        let mut b = GrammarBuilder::new();
        for &e in events {
            b.push(e);
        }
        b.into_grammar().compact()
    }

    fn reg3() -> (EventRegistry, EventId, EventId, EventId) {
        let mut reg = EventRegistry::new();
        let isend = reg.intern("MPI_Isend", Some(1));
        let wait = reg.intern("MPI_Wait", None);
        let pad = reg.intern("pad", None);
        (reg, isend, wait, pad)
    }

    /// A one-rank trace of `events` repeated `repeat` times.
    fn trace_of(reg: &EventRegistry, events: &[EventId], repeat: usize) -> crate::trace::TraceData {
        let mut rec = crate::record::Recorder::new(crate::record::RecordConfig::default());
        for _ in 0..repeat {
            for &e in events {
                rec.record(e);
            }
        }
        rec.finish(reg).unwrap()
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("a {2,1}").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("a ~0 b").is_err());
        assert!(parse("a ~3 (b c)").is_err());
        assert!(parse("!(a b)").is_err());
        assert!(parse("a )").is_err());
        assert!(parse("a {999999}").is_err());
    }

    #[test]
    fn name_matching_elides_prefix_and_case() {
        let matches = |query: &str, event: &str| name_matches(&normalize(query), event);
        assert!(matches("wait", "MPI_Wait"));
        assert!(matches("MPI_WAIT", "mpi_wait"));
        assert!(matches("Isend", "MPI_Isend"));
        assert!(!matches("wait", "MPI_Waitall"));
        // A bare prefix normalises to the empty name: another bare prefix
        // or an empty event name equals it, nothing else does.
        assert_eq!(normalize("MPI_"), "");
        assert!(matches("MPI_", "mpi_"));
        assert!(matches("mpi_", ""));
        assert!(!matches("MPI_", "MPI_Wait"));
        assert!(!matches("wait", "MPI_"));
        // The prefix test never slices a multi-byte name mid-character.
        assert!(!matches("wait", "mpé_wait"));
    }

    #[test]
    fn sequence_and_counting() {
        let (reg, isend, wait, pad) = reg3();
        let dfa = Dfa::compile(&parse("isend wait").unwrap(), &reg).unwrap();
        let m = dfa.match_events([isend, wait, pad, isend, wait]);
        assert_eq!(m.count, 2);
        assert_eq!(m.first, Some(1));
    }

    #[test]
    fn alternation_and_payload() {
        let mut reg = EventRegistry::new();
        let s1 = reg.intern("MPI_Send", Some(1));
        let s2 = reg.intern("MPI_Send", Some(2));
        let dfa = Dfa::compile(&parse("send(2) | recv").unwrap(), &reg).unwrap();
        let m = dfa.match_events([s1, s2, s1, s2]);
        assert_eq!(m.count, 2);
        assert_eq!(m.first, Some(1));
    }

    #[test]
    fn payload_leaf_outranks_the_name_only_leaf_before_it() {
        // `isend` is leaf 0 and `isend(1)` leaf 2: an `MPI_Isend(1)` event
        // satisfies both and must take the class in which both hold.
        let (reg, isend, wait, _) = reg3();
        let dfa = Dfa::compile(&parse("isend wait | isend(1) isend(1)").unwrap(), &reg).unwrap();
        let m = dfa.match_events([isend, isend, wait]);
        assert_eq!((m.count, m.first), (2, Some(1)));
    }

    #[test]
    fn unmatched_isend_window() {
        let (reg, isend, wait, pad) = reg3();
        let dfa = Dfa::compile(&parse("isend (!wait){3}").unwrap(), &reg).unwrap();
        // Wait arrives inside the window: no match.
        assert_eq!(dfa.match_events([isend, pad, wait, pad, pad]).count, 0);
        // No wait within 3: match ends after the 3rd non-wait.
        let m = dfa.match_events([isend, pad, pad, pad, wait]);
        assert_eq!(m.count, 1);
        assert_eq!(m.first, Some(3));
    }

    #[test]
    fn within_sugar_matches_wait_in_window() {
        let (reg, isend, wait, pad) = reg3();
        let dfa = Dfa::compile(&parse("isend ~3 wait").unwrap(), &reg).unwrap();
        assert_eq!(dfa.match_events([isend, pad, pad, wait]).count, 1);
        assert_eq!(dfa.match_events([isend, pad, pad, pad, wait]).count, 0);
    }

    #[test]
    fn grammar_match_equals_event_match() {
        let (reg, isend, wait, pad) = reg3();
        let mut events = Vec::new();
        for _ in 0..41 {
            events.extend([isend, pad, pad, wait]);
        }
        events.extend([isend, pad, pad, pad]);
        let g = grammar_of(&events);
        assert!(g.rule_count() > 1);
        for src in ["isend (!wait){3}", "isend ~4 wait", "pad{2}", ". wait"] {
            let dfa = Dfa::compile(&parse(src).unwrap(), &reg).unwrap();
            let cm = match_grammar(&g, &dfa);
            let em = dfa.match_events(events.iter().copied());
            assert_eq!(cm, em, "pattern {src}");
        }
    }

    #[test]
    fn first_hit_spans_exponent_boundary() {
        // Body [isend pad pad pad] repeated: 'isend (!wait){5}' needs five
        // non-waits after an isend, which only completes inside iteration
        // 1 — the summary must report index 5, not an iteration-0 offset.
        let (reg, isend, _wait, pad) = reg3();
        let mut events = Vec::new();
        for _ in 0..32 {
            events.extend([isend, pad, pad, pad]);
        }
        let g = grammar_of(&events);
        let dfa = Dfa::compile(&parse("isend (!wait){5}").unwrap(), &reg).unwrap();
        let cm = match_grammar(&g, &dfa);
        let em = dfa.match_events(events.iter().copied());
        assert_eq!(cm, em);
        assert_eq!(cm.first, Some(5));
    }

    /// `R0 -> lead R1^k`, `R1 -> body`: a hand-built grammar, for exponents
    /// and shapes the builder would not choose.
    fn repeated(lead: EventId, body: &[EventId], k: u32) -> Grammar {
        let terminal = |e| SymbolUse::new(Symbol::Terminal(e), 1);
        let root = Rule {
            body: vec![terminal(lead), SymbolUse::new(Symbol::Rule(RuleId(1)), k)],
            refcount: 0,
        };
        let child = Rule {
            body: body.iter().map(|&e| terminal(e)).collect(),
            refcount: k,
        };
        Grammar {
            rules: vec![Some(root), Some(child)],
            root: RuleId(0),
        }
    }

    #[test]
    fn power_matches_naive_composition() {
        // A repeated unit against the unfolded stream, for every exponent
        // from below the point where the entry state's orbit closes to
        // well past it.
        let (reg, isend, wait, pad) = reg3();
        for src in ["isend ~3 wait", "isend (!wait){5}", "pad{7}", ". . wait"] {
            let dfa = Dfa::compile(&parse(src).unwrap(), &reg).unwrap();
            for body in [&[isend, pad, wait][..], &[pad], &[isend, pad]] {
                for k in 1..40 {
                    let g = repeated(isend, body, k);
                    let naive = dfa.match_events(g.unfold());
                    assert_eq!(match_grammar(&g, &dfa), naive, "{src}, k={k}");
                }
            }
        }
        // A terminal raised to a power far past what could be unfolded.
        let dfa = Dfa::compile(&parse("pad{7}").unwrap(), &reg).unwrap();
        let mut g = repeated(isend, &[pad], 1);
        g.rules[1].as_mut().unwrap().body[0].count = u32::MAX;
        let m = match_grammar(&g, &dfa);
        assert_eq!((m.count, m.first), (u32::MAX as u64 - 6, Some(7)));
    }

    #[test]
    fn deep_chain_grammar_does_not_overflow_the_stack() {
        // R_i -> isend R_{i+1} pad, 50 000 deep: the nesting a lenient
        // load can hand the analyzer, and far beyond what recursion on a
        // test thread's stack survives.
        const DEPTH: u32 = 50_000;
        let (reg, isend, wait, pad) = reg3();
        let terminal = |e| SymbolUse::new(Symbol::Terminal(e), 1);
        let mut rules: Vec<Option<Rule>> = (1..DEPTH)
            .map(|next| {
                Some(Rule {
                    body: vec![
                        terminal(isend),
                        SymbolUse::new(Symbol::Rule(RuleId(next)), 1),
                        terminal(pad),
                    ],
                    refcount: 1,
                })
            })
            .collect();
        rules.push(Some(Rule {
            body: vec![terminal(isend), terminal(wait)],
            refcount: 1,
        }));
        let g = Grammar {
            rules,
            root: RuleId(0),
        };
        let dfa = Dfa::compile(&parse("isend ~2 wait | wait pad{3}").unwrap(), &reg).unwrap();
        assert_eq!(match_grammar(&g, &dfa), dfa.match_events(g.unfold()));
        assert_eq!(reached_pairs(&g, &dfa), DEPTH as usize);
    }

    /// A registry holding `names` plus `padding` events no query names.
    fn padded_registry(names: &[&str], padding: usize) -> EventRegistry {
        let mut reg = EventRegistry::new();
        for i in 0..padding {
            reg.intern(&format!("compute_phase_{i}"), Some(i as i64));
        }
        for name in names {
            reg.intern(name, None);
        }
        reg
    }

    #[test]
    fn compile_cost_follows_classes_not_vocabulary() {
        // The benchmark's two queries: a vocabulary 2 000 events larger
        // changes neither the automaton nor the width of its rows.
        let names = ["MPI_Isend", "MPI_Irecv", "MPI_Wait", "MPI_Waitall"];
        for src in ["MPI_Isend ~6 MPI_Waitall", "MPI_Irecv (!MPI_Wait){6}"] {
            let ast = parse(src).unwrap();
            let minimal = Dfa::compile(&ast, &padded_registry(&names, 0)).unwrap();
            let padded = Dfa::compile(&ast, &padded_registry(&names, 2_000)).unwrap();
            assert_eq!(padded.states(), minimal.states(), "{src}");
            assert_eq!(padded.classes(), minimal.classes(), "{src}");
            assert!(minimal.classes() <= 4, "{src}: {}", minimal.classes());
        }
    }

    #[test]
    fn over_cap_window_is_invalid_not_a_stall() {
        // 2^13 overlapping windows exceed the DFA state cap; with rows
        // over classes the cap is hit after 4 096 cheap rows even on a
        // large vocabulary.
        let reg = padded_registry(&["a", "b"], 2_000);
        let trace = trace_of(&reg, &[EventId(2_000), EventId(2_001)], 8);
        let q = PatternQuery::new("a (!b){13}", Severity::Warning, false).unwrap();
        let diags = run_query(&q, &trace, &[true]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "pattern-invalid");
    }

    #[test]
    fn absent_query_flags_missing_pattern() {
        let (reg, isend, wait, pad) = reg3();
        let trace = trace_of(&reg, &[isend, pad, wait], 8);
        let q = PatternQuery::new("barrier", Severity::Warning, true).unwrap();
        let diags = run_query(&q, &trace, &[true]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "pattern-absent");
        let q = PatternQuery::new("isend ~2 wait", Severity::Warning, true).unwrap();
        assert!(run_query(&q, &trace, &[true]).is_empty());
    }

    #[test]
    fn query_on_absent_names_cannot_match() {
        // The short-circuit's premise and its verdict: no accepting state
        // reachable through this vocabulary when it lacks a queried name,
        // and no finding.
        let (reg, isend, wait, pad) = reg3();
        let dfa = Dfa::compile(&parse("isend ~6 waitall").unwrap(), &reg).unwrap();
        assert!(!dfa.can_match());
        let trace = trace_of(&reg, &[isend, pad, wait], 8);
        let q = PatternQuery::new("isend ~6 waitall", Severity::Warning, false).unwrap();
        assert!(run_query(&q, &trace, &[true]).is_empty());
    }

    #[test]
    fn one_query_serves_traces_of_different_vocabularies() {
        // The automaton built on the first trace is bound afresh to the
        // second, whose registry lacks `waitall`, and back again.
        let (reg, isend, wait, pad) = reg3();
        let mut wide = reg.clone();
        let waitall = wide.intern("MPI_Waitall", None);
        let traces = [
            trace_of(&wide, &[isend, pad, waitall, wait], 8),
            trace_of(&reg, &[isend, pad, wait], 8),
            trace_of(&wide, &[isend, waitall, pad, pad, pad], 8),
        ];
        for src in ["isend ~2 waitall", "isend (!waitall){3}", "wait | waitall"] {
            for absent in [false, true] {
                let shared = PatternQuery::new(src, Severity::Warning, absent).unwrap();
                for trace in &traces {
                    let fresh = PatternQuery::new(src, Severity::Warning, absent).unwrap();
                    assert_eq!(
                        run_query(&shared, trace, &[true]),
                        run_query(&fresh, trace, &[true]),
                        "{src}"
                    );
                }
            }
        }
        let q = PatternQuery::new("isend ~2 waitall", Severity::Warning, false).unwrap();
        assert_eq!(run_query(&q, &traces[0], &[true])[0].code, "pattern-match");
        assert!(run_query(&q, &traces[1], &[true]).is_empty());
    }

    // -- Reference semantics -------------------------------------------
    //
    // The pattern language evaluated directly on the AST and the event
    // descriptors, sharing nothing with the compiler: no NFA, no classes,
    // and the name comparison spelled out on freshly lower-cased strings.

    fn reference_holds(pred: &Pred, desc: Option<&crate::event::EventDesc>) -> bool {
        let plain = |s: &str| {
            let lower = s.to_ascii_lowercase();
            lower
                .strip_prefix("mpi_")
                .map(str::to_owned)
                .unwrap_or(lower)
        };
        match pred {
            Pred::Any => true,
            Pred::Name { name, payload } => desc.is_some_and(|d| {
                plain(name) == plain(&d.name) && payload.is_none_or(|p| d.payload == Some(p))
            }),
            Pred::Not(inner) => !reference_holds(inner, desc),
        }
    }

    /// The positions at which a match of `ast` can end when it starts at
    /// one of `starts`.
    fn reference_ends(
        ast: &Ast,
        starts: &BTreeSet<usize>,
        descs: &[Option<&crate::event::EventDesc>],
    ) -> BTreeSet<usize> {
        match ast {
            Ast::One(p) => starts
                .iter()
                .filter(|&&s| s < descs.len() && reference_holds(&p.0, descs[s]))
                .map(|s| s + 1)
                .collect(),
            Ast::Seq(items) => items
                .iter()
                .fold(starts.clone(), |at, item| reference_ends(item, &at, descs)),
            Ast::Alt(arms) => arms
                .iter()
                .flat_map(|arm| reference_ends(arm, starts, descs))
                .collect(),
            Ast::Repeat { node, min, max } => {
                let mut at = starts.clone();
                let mut ends = if *min == 0 {
                    starts.clone()
                } else {
                    BTreeSet::new()
                };
                for i in 1..=*max {
                    at = reference_ends(node, &at, descs);
                    if i >= *min {
                        ends.extend(&at);
                    }
                }
                ends
            }
        }
    }

    /// `(count, first)` of the unanchored scan: every event after which
    /// some match (an empty one included) ends.
    fn reference_match(ast: &Ast, reg: &EventRegistry, events: &[EventId]) -> (u64, Option<u64>) {
        let descs: Vec<_> = events.iter().map(|&e| reg.describe(e)).collect();
        let ends = reference_ends(ast, &(0..=events.len()).collect(), &descs);
        let hits: Vec<u64> = ends
            .iter()
            .filter(|&&e| e > 0)
            .map(|&e| e as u64 - 1)
            .collect();
        (hits.len() as u64, hits.first().copied())
    }

    /// Spells a pattern of the module header's grammar from a tape of
    /// random choices; repetition bounds and nesting stay small so that
    /// most patterns compile under the state cap.
    struct Speller<'t> {
        tape: std::slice::Iter<'t, u32>,
        /// Names spelled so far: a payload test takes one of them about
        /// half the time, so a name-only test and a payload test of one
        /// name often meet.
        spelled: Vec<&'static str>,
    }

    impl Speller<'_> {
        fn pick(&mut self, n: u32) -> u32 {
            self.tape.next().map_or(0, |&t| t % n)
        }

        fn name(&mut self, payload: bool) -> &'static str {
            const NAMES: [&str; 5] = ["isend", "MPI_Wait", "mpi_waitall", "PAD", "MPI_"];
            let n = self.spelled.len() as u32;
            let name = if payload && n > 0 && self.pick(2) == 0 {
                let i = self.pick(n) as usize;
                self.spelled[i]
            } else {
                NAMES[self.pick(5) as usize]
            };
            self.spelled.push(name);
            name
        }

        fn atom(&mut self) -> String {
            match self.pick(8) {
                0 => ".".into(),
                1 => format!("!{}", self.atom()),
                2 => format!("{}({})", self.name(true), self.pick(3)),
                _ => self.name(false).into(),
            }
        }

        fn term(&mut self, depth: u32) -> String {
            let mut s = match self.pick(6) {
                0 if depth > 0 => format!("({})", self.alt(depth - 1)),
                1 => format!("{} ~{} {}", self.atom(), 1 + self.pick(4), self.atom()),
                _ => self.atom(),
            };
            if self.pick(3) == 0 {
                let min = self.pick(3);
                s += &format!("{{{min},{}}}", min + self.pick(3));
            }
            s
        }

        fn alt(&mut self, depth: u32) -> String {
            let arms: Vec<String> = (0..1 + self.pick(2))
                .map(|_| {
                    let terms: Vec<String> =
                        (0..1 + self.pick(3)).map(|_| self.term(depth)).collect();
                    terms.join(" ")
                })
                .collect();
            arms.join(" | ")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Compile correctness: the class-compiled DFA reports what the
        // reference semantics report, on random patterns, vocabularies
        // and streams — ids beyond the registry (the unknown symbol)
        // included.
        #[test]
        fn compiled_dfa_equals_reference_semantics(
            tape in vec(0u32..1 << 16, 4..40),
            vocabulary in vec((0usize..6, 0i64..4), 0..10),
            stream in vec(0u32..13, 0..60),
        ) {
            const NAMES: [&str; 6] = ["MPI_Isend", "wait", "MPI_WAITALL", "pad", "mpi_", ""];
            let src = Speller {
                tape: tape.iter(),
                spelled: Vec::new(),
            }
            .alt(2);
            let ast = parse(&src).unwrap();
            let mut reg = EventRegistry::new();
            for &(name, payload) in &vocabulary {
                reg.intern(NAMES[name], (payload > 0).then_some(payload - 1));
            }
            let events: Vec<EventId> = stream.iter().map(|&i| EventId(i)).collect();
            // A pattern over the state cap is a compile error, not a case.
            if let Ok(dfa) = Dfa::compile(&ast, &reg) {
                let bare = Dfa::compile(&ast, &EventRegistry::new()).unwrap();
                prop_assert_eq!((bare.states(), bare.classes()), (dfa.states(), dfa.classes()));
                let m = dfa.match_events(events.iter().copied());
                prop_assert_eq!(
                    (m.count, m.first),
                    reference_match(&ast, &reg, &events),
                    "pattern {:?}", src
                );
            }
        }
    }
}
