//! Single-step expansion of progress sequences — and its distance-striding
//! generalization. Every walk here only *reads* the candidate's frames:
//! the repetition state bumped by an ascent is carried as an argument, so
//! nothing is cloned or truncated along the way.
//!
//! [`Walker::expand`] enumerates, for a candidate path, every possible next
//! terminal together with the successor path and its relative weight (paper
//! §II-B1's depth-first traversal, extended with the branching needed for
//! partial paths and unknown repetition offsets).
//!
//! [`Walker::advance_in_place`] is the observe-side fast path: when exactly
//! one continuation emits the observed event it rewrites the candidate's
//! frames in place and reports that continuation's weight factor.
//!
//! [`Walker::simulate_distance`] answers "which event happens `d` steps
//! from here" without stepping once per event: repetition runs and whole
//! rule subtrees whose expanded length falls short of the remaining
//! distance are skipped in O(1) using the index's precomputed lengths, so
//! one candidate costs O(distance / subtree-size + path depth + rule-body
//! scans) instead of O(distance × branching).

use std::time::Instant;

use crate::event::EventId;
use crate::grammar::{Grammar, GrammarIndex, RuleId, Symbol};
use crate::predict::path::{Frame, Path, Rep};

/// What a branch leads to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Outcome {
    /// The next event is `0` and the successor path is valid.
    Event(EventId),
    /// The reference trace ends here (the path ran past the root).
    End,
}

/// One possible continuation of a path.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Next event or end of trace.
    pub outcome: Outcome,
    /// Successor path (empty for [`Outcome::End`]).
    pub path: Path,
    /// Weight of this branch relative to the input path's weight
    /// (occurrence-count fraction; branches of one expansion sum to 1).
    pub factor: f64,
}

/// A [`Branch`] before its successor path is built: the successor keeps
/// `frames[..keep]` of the path it continues, then `frame`, then the
/// descent to the first terminal under `frame` (see [`Walker::successor`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub(crate) outcome: Outcome,
    pub(crate) factor: f64,
    keep: usize,
    frame: Frame,
}

/// Advances a repetition state by one completed repetition.
fn bump(rep: Rep) -> Rep {
    match rep {
        Rep::Known(r) => Rep::Known(r + 1),
        Rep::Unknown(k) => Rep::Unknown(k + 1),
    }
}

/// A repetition of a use repeated `count` times just completed and `rep`
/// already counts it: splits `weight` into (begin another repetition, move
/// past the use).
fn split(rep: Rep, count: u32, weight: f64) -> (f64, f64) {
    match rep {
        Rep::Known(r) => {
            debug_assert!(r >= 1 && r <= count);
            // Offset known: deterministically stay or exit.
            if r < count {
                (weight, 0.0)
            } else {
                (0.0, weight)
            }
        }
        Rep::Unknown(k) => {
            debug_assert!(k >= 1 && k <= count);
            // k repetitions completed at an unknown start offset: the
            // first one could have been any of offsets 0..=c-k, so of
            // the (c-k+1) possibilities, (c-k) continue and 1 exits.
            let possibilities = (count - k + 1) as f64;
            (
                weight * (count - k) as f64 / possibilities,
                weight / possibilities,
            )
        }
    }
}

/// Weighted event distribution accumulated by
/// [`Walker::simulate_distance`] across all candidates of a prediction.
#[derive(Debug, Default)]
pub struct DistanceAccumulator {
    /// Total weight per predicted event (unnormalized), in the order the
    /// walk first reached each event. Distributions hold a handful of
    /// events, so a linear find-or-push beats any map — and the vector is
    /// handed out as the answer's distribution, the query's one allocation.
    pub per_event: Vec<(EventId, f64)>,
    /// Weight on "the reference trace ends before that distance".
    pub end_mass: f64,
    /// Remaining exploration budget (see [`DistanceAccumulator::new`]).
    nodes_left: usize,
    /// Wall-clock deadline; past it the walk is abandoned (see
    /// [`DistanceAccumulator::with_deadline`]).
    deadline: Option<Instant>,
    /// Nodes until the next clock read (the clock is sampled every
    /// [`DEADLINE_STRIDE`] nodes, not on each one).
    deadline_countdown: u32,
    /// Whether the walk was cut short by the deadline.
    deadline_hit: bool,
}

/// Simulation nodes expanded between deadline clock reads. One node costs
/// tens of nanoseconds, so the deadline overshoot is bounded by a few
/// microseconds — far below any useful time budget.
const DEADLINE_STRIDE: u32 = 64;

impl DistanceAccumulator {
    /// An accumulator allowed to explore `budget` simulation nodes; beyond
    /// that, residual branches are dropped (the stepwise simulation's
    /// `max_states` truncation has the same effect).
    pub fn new(budget: usize) -> Self {
        Self::with_deadline(budget, None)
    }

    /// Like [`DistanceAccumulator::new`], with an optional wall-clock
    /// deadline: once it passes, the walk stops expanding and
    /// [`DistanceAccumulator::deadline_hit`] reports the truncation, so the
    /// caller can discard the partial distribution instead of stalling its
    /// host past the budget.
    pub fn with_deadline(budget: usize, deadline: Option<Instant>) -> Self {
        DistanceAccumulator {
            per_event: Vec::new(),
            end_mass: 0.0,
            nodes_left: budget,
            deadline,
            deadline_countdown: 0,
            deadline_hit: false,
        }
    }

    /// Whether the walk was abandoned because the deadline passed.
    pub fn deadline_hit(&self) -> bool {
        self.deadline_hit
    }

    /// Puts `weight` on `event`.
    #[inline]
    fn add(&mut self, event: EventId, weight: f64) {
        match self.per_event.iter_mut().find(|(e, _)| *e == event) {
            Some((_, mass)) => *mass += weight,
            None => self.per_event.push((event, weight)),
        }
    }

    /// Periodic deadline probe: reads the clock every `DEADLINE_STRIDE`
    /// nodes; on expiry, zeroes the node budget so every in-flight
    /// recursion path bails out at its next check.
    #[inline]
    fn over_deadline(&mut self) -> bool {
        let Some(deadline) = self.deadline else {
            return false;
        };
        if self.deadline_hit {
            return true;
        }
        if self.deadline_countdown > 0 {
            self.deadline_countdown -= 1;
            return false;
        }
        self.deadline_countdown = DEADLINE_STRIDE;
        if Instant::now() >= deadline {
            self.deadline_hit = true;
            self.nodes_left = 0;
            return true;
        }
        false
    }
}

/// Result of [`Walker::advance_in_place`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Advance {
    /// Exactly one branch matched; the frames were advanced in place and
    /// the branch carries this share of the path's weight (its
    /// [`Branch::factor`]).
    Advanced(f64),
    /// No branch emits the event from here.
    NoMatch,
    /// More than one branch could match, or the walk would extend the
    /// path upward; the frames are untouched and the caller must take the
    /// general expansion.
    Ambiguous,
}

/// Borrowed read-side state needed to expand paths.
pub struct Walker<'a> {
    /// The reference grammar.
    pub grammar: &'a Grammar,
    /// Precomputed metadata over the same grammar.
    pub index: &'a GrammarIndex,
}

impl Walker<'_> {
    /// Enumerates all continuations of `path`, appending them to `out`.
    /// The factors of the produced branches sum to 1 (up to rounding).
    pub fn expand(&self, path: &Path, out: &mut Vec<Branch>) {
        self.steps(&path.frames, &mut |step| {
            let mut successor = Path::default();
            if step.outcome != Outcome::End {
                self.successor(&path.frames, &step, &mut successor.frames);
            }
            out.push(Branch {
                outcome: step.outcome,
                path: successor,
                factor: step.factor,
            });
        });
    }

    /// Hands every continuation of `frames` to `sink`, in the order
    /// [`Walker::expand`] lists them, without building any successor.
    pub(crate) fn steps(&self, frames: &[Frame], sink: &mut impl FnMut(Step)) {
        debug_assert!(!frames.is_empty());
        let innermost = frames.len() - 1;
        self.decide(frames, innermost, frames[innermost].rep, 1.0, sink);
    }

    /// Writes into `out` the path `step` leads to from `frames`.
    pub(crate) fn successor(&self, frames: &[Frame], step: &Step, out: &mut Vec<Frame>) {
        out.clear();
        out.extend_from_slice(&frames[..step.keep]);
        out.push(step.frame);
        let symbol = self.index.body(step.frame.rule)[step.frame.pos].symbol;
        self.descend_frames(out, symbol);
    }

    /// Allocation-free single-candidate advance: when the observed event
    /// continues the path along exactly one branch, mutate `frames` to
    /// the successor in place — no clone, no `Branch` materialization.
    ///
    /// The scan is [`Walker::decide`]/[`Walker::exit`] as a loop: walking
    /// outward from the innermost frame, each level can *stay* (begin
    /// another repetition — matches iff the use's first terminal is
    /// `event`) and/or *exit* (move to the next use — matches iff that
    /// use's first terminal is `event`; a finished body ascends instead).
    /// Two potential matches, or an ascent past a non-root top frame
    /// (upward extension branches over use sites), bail out as
    /// [`Advance::Ambiguous`] — the caller falls back to the general
    /// expansion ([`Walker::expand`]), whose only matching branch this
    /// advance reproduces byte-for-byte, factor included, whenever it
    /// returns [`Advance::Advanced`].
    pub fn advance_in_place(&self, frames: &mut Vec<Frame>, event: EventId) -> Advance {
        debug_assert!(!frames.is_empty());
        // The replacement for `frames[level..]`, before the descent.
        let mut hit: Option<(usize, Frame, f64)> = None;
        let mut level = frames.len() - 1;
        // Effective completed-repetition state at the current level: the
        // stored value at the innermost frame, bumped once per ascent.
        let mut rep = frames[level].rep;
        let mut weight = 1.0;
        loop {
            let f = frames[level];
            let body = self.index.body(f.rule);
            let use_ = body[f.pos];
            let (stay_w, exit_w) = split(rep, use_.count, weight);
            if stay_w > 0.0 && self.index.first_terminal(use_.symbol) == event {
                if hit.is_some() {
                    return Advance::Ambiguous;
                }
                hit = Some((level, Frame { rep, ..f }, stay_w));
            }
            if exit_w <= 0.0 {
                break;
            }
            if f.pos + 1 < body.len() {
                if self.index.first_terminal(body[f.pos + 1].symbol) == event {
                    if hit.is_some() {
                        return Advance::Ambiguous;
                    }
                    let next = Frame {
                        rule: f.rule,
                        pos: f.pos + 1,
                        rep: Rep::Known(0),
                    };
                    hit = Some((level, next, exit_w));
                }
                break;
            }
            if level == 0 {
                if f.rule == self.grammar.root() {
                    break; // end of trace: never matches an event
                }
                return Advance::Ambiguous; // upward extension branches
            }
            level -= 1;
            rep = bump(frames[level].rep);
            weight = exit_w;
        }
        let Some((level, frame, factor)) = hit else {
            return Advance::NoMatch;
        };
        frames.truncate(level);
        frames.push(frame);
        self.descend_frames(frames, self.index.body(frame.rule)[frame.pos].symbol);
        Advance::Advanced(factor)
    }

    /// Appends the frames from `symbol` down to its first terminal
    /// (offsets known), then counts the terminal's emitted repetition on
    /// the innermost frame. The frame of the use of `symbol` itself is
    /// already the last of `frames`.
    fn descend_frames(&self, frames: &mut Vec<Frame>, mut symbol: Symbol) {
        while let Symbol::Rule(r) = symbol {
            frames.push(Frame {
                rule: r,
                pos: 0,
                rep: Rep::Known(0),
            });
            symbol = self.index.body(r)[0].symbol;
        }
        let f = frames.last_mut().expect("descend on empty frames");
        f.rep = bump(f.rep);
    }

    /// A repetition of the use at `frames[idx]` just completed and `rep`
    /// counts it (the frame's stored state is one ascent behind). Emit the
    /// possible continuations: begin another repetition of the same use —
    /// a terminal's completes at once, a rule's when the child body
    /// finishes a pass — or move past it.
    fn decide(
        &self,
        frames: &[Frame],
        idx: usize,
        rep: Rep,
        weight: f64,
        sink: &mut impl FnMut(Step),
    ) {
        if weight <= 0.0 {
            return;
        }
        let f = frames[idx];
        let use_ = self.index.body(f.rule)[f.pos];
        let (stay_w, exit_w) = split(rep, use_.count, weight);
        if stay_w > 0.0 {
            sink(Step {
                outcome: Outcome::Event(self.index.first_terminal(use_.symbol)),
                factor: stay_w,
                keep: idx,
                frame: Frame { rep, ..f },
            });
        }
        if exit_w > 0.0 {
            self.exit(frames, idx, exit_w, sink);
        }
    }

    /// The use at `frames[idx]` is done repeating: move to the next
    /// position of the rule, or complete the rule and continue one level
    /// up, extending partial paths past their top frame when needed.
    fn exit(&self, frames: &[Frame], idx: usize, weight: f64, sink: &mut impl FnMut(Step)) {
        let f = frames[idx];
        let body = self.index.body(f.rule);
        if f.pos + 1 < body.len() {
            // Next use within the same rule.
            sink(Step {
                outcome: Outcome::Event(self.index.first_terminal(body[f.pos + 1].symbol)),
                factor: weight,
                keep: idx,
                frame: Frame {
                    rule: f.rule,
                    pos: f.pos + 1,
                    rep: Rep::Known(0),
                },
            });
            return;
        }
        // The rule body completed one pass: that completes one repetition
        // of the parent use.
        if idx > 0 {
            self.decide(frames, idx - 1, bump(frames[idx - 1].rep), weight, sink);
            return;
        }
        // Popping past the top frame.
        if f.rule == self.grammar.root() {
            sink(Step {
                outcome: Outcome::End,
                factor: weight,
                keep: 0,
                frame: f,
            });
            return;
        }
        self.each_use_site(f.rule, weight, |site, w| {
            self.decide(&[site], 0, site.rep, w, sink)
        });
    }

    /// Partial path: extends upward over every use site of `top_rule`,
    /// weighting by how often each site accounts for the rule's expansions
    /// (paper §II-C: probabilities are occurrence counts). One repetition
    /// of the rule just completed at each site, with unknown offset.
    fn each_use_site(&self, top_rule: RuleId, weight: f64, mut visit: impl FnMut(Frame, f64)) {
        let total = self.index.expansion(top_rule);
        if total <= 0.0 {
            return;
        }
        for site in self.index.rule_uses(top_rule) {
            let use_ = self.index.body(site.rule)[site.pos];
            debug_assert_eq!(use_.symbol, Symbol::Rule(top_rule));
            let site_visits = self.index.expansion(site.rule) * use_.count as f64;
            let w = weight * site_visits / total;
            if w > 0.0 {
                let site = Frame {
                    rule: site.rule,
                    pos: site.pos,
                    rep: Rep::Unknown(1),
                };
                visit(site, w);
            }
        }
    }

    // ------------------------------------------------------------------
    // Distance-striding simulation
    // ------------------------------------------------------------------

    /// Accumulates into `acc` the distribution of the event emitted
    /// exactly `distance` steps after `path`'s current position, scaled by
    /// `weight`. Semantically identical to expanding stepwise `distance`
    /// times and summing the final branch weights, but repetition runs and
    /// rule subtrees shorter than the remaining distance are skipped in
    /// O(1) via the [`GrammarIndex`] lengths — no successor paths are
    /// materialized and `path` is only read.
    pub fn simulate_distance(
        &self,
        path: &Path,
        distance: u64,
        weight: f64,
        acc: &mut DistanceAccumulator,
    ) {
        debug_assert!(distance >= 1 && !path.frames.is_empty());
        let innermost = path.frames.len() - 1;
        let rep = path.frames[innermost].rep;
        self.sim_decide(&path.frames, innermost, rep, distance, weight, acc);
    }

    /// Striding counterpart of [`Walker::decide`]: a repetition of the use
    /// at `frames[idx]` just completed, `rep` counts it, and the target
    /// event lies `rem ≥ 1` events ahead.
    fn sim_decide(
        &self,
        frames: &[Frame],
        idx: usize,
        rep: Rep,
        rem: u64,
        weight: f64,
        acc: &mut DistanceAccumulator,
    ) {
        if weight <= 0.0 {
            return;
        }
        if acc.nodes_left == 0 || acc.over_deadline() {
            return;
        }
        acc.nodes_left -= 1;
        let f = frames[idx];
        let use_ = self.index.body(f.rule)[f.pos];
        let c = use_.count as u64;
        // Terminals expand to 1 event; rule bodies are non-empty, so
        // `unit >= 1` and the strides below always make progress.
        let unit = self.index.sym_len(use_.symbol);
        match rep {
            Rep::Known(r) => {
                let left = c - r as u64;
                if left * unit >= rem {
                    // The target falls inside the remaining repetitions:
                    // skip whole repetitions, then locate it within one.
                    self.sim_enter(use_.symbol, (rem - 1) % unit + 1, weight, acc);
                } else {
                    // All remaining repetitions fall short: skip them all.
                    self.sim_exit(frames, idx, rem - left * unit, weight, acc);
                }
            }
            Rep::Unknown(k) => {
                // The unknown start offset makes "j more repetitions, then
                // exit" uniform over j = 0..=c-k (each stepwise stay/exit
                // product telescopes to 1/(c-k+1)). Every arm with
                // j·unit ≥ rem puts the target at the same spot inside a
                // repetition, so they aggregate into ONE descend branch;
                // only the arms exiting before the target are enumerated.
                let arms = c - k as u64 + 1;
                let jmin = rem.div_ceil(unit);
                if jmin < arms {
                    let stay_w = weight * (arms - jmin) as f64 / arms as f64;
                    self.sim_enter(use_.symbol, (rem - 1) % unit + 1, stay_w, acc);
                }
                let arm_w = weight / arms as f64;
                for j in 0..jmin.min(arms) {
                    self.sim_exit(frames, idx, rem - j * unit, arm_w, acc);
                }
            }
        }
    }

    /// The target is the `rem`-th terminal (1-based) of one expansion of
    /// `symbol` (`1 ≤ rem ≤ expanded_len(symbol)`): descend to it directly,
    /// skipping preceding siblings and whole repetition runs by length.
    fn sim_enter(&self, symbol: Symbol, rem: u64, weight: f64, acc: &mut DistanceAccumulator) {
        if weight <= 0.0 {
            return;
        }
        let mut sym = symbol;
        let mut rem = rem;
        loop {
            match sym {
                Symbol::Terminal(e) => {
                    debug_assert_eq!(rem, 1);
                    acc.add(e, weight);
                    return;
                }
                Symbol::Rule(r) => {
                    for u in self.index.body(r) {
                        let unit = self.index.sym_len(u.symbol);
                        let full = u.count as u64 * unit;
                        if rem <= full {
                            rem = (rem - 1) % unit + 1;
                            sym = u.symbol;
                            break;
                        }
                        rem -= full;
                    }
                }
            }
        }
    }

    /// Striding counterpart of [`Walker::exit`]: the use at `frames[idx]`
    /// is done repeating and the target lies `rem ≥ 1` events past it.
    fn sim_exit(
        &self,
        frames: &[Frame],
        idx: usize,
        rem: u64,
        weight: f64,
        acc: &mut DistanceAccumulator,
    ) {
        let f = frames[idx];
        // O(1) check whether the whole tail of this rule body falls short
        // of the target; if not, locate the target inside the tail with
        // O(1) per-use lengths.
        let tail = self.index.suffix_len(f.rule, f.pos + 1);
        if tail >= rem {
            let mut rem = rem;
            let body = self.index.body(f.rule);
            for u in body.iter().skip(f.pos + 1) {
                let unit = self.index.sym_len(u.symbol);
                let full = u.count as u64 * unit;
                if rem <= full {
                    self.sim_enter(u.symbol, (rem - 1) % unit + 1, weight, acc);
                    return;
                }
                rem -= full;
            }
            unreachable!("suffix length placed the target inside the tail");
        }
        let rem = rem - tail;
        // The rule body completed one pass: one repetition of the parent
        // use finished.
        if idx > 0 {
            let rep = bump(frames[idx - 1].rep);
            self.sim_decide(frames, idx - 1, rep, rem, weight, acc);
            return;
        }
        if f.rule == self.grammar.root() {
            acc.end_mass += weight;
            return;
        }
        self.each_use_site(f.rule, weight, |site, w| {
            self.sim_decide(&[site], 0, site.rep, rem, w, acc)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::builder::GrammarBuilder;
    use crate::grammar::Loc;
    use crate::util::FxHashMap;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    struct Fixture {
        grammar: Grammar,
        index: GrammarIndex,
    }

    impl Fixture {
        fn new(seq: &[u32]) -> Self {
            let mut b = GrammarBuilder::new();
            for &s in seq {
                b.push(e(s));
            }
            let grammar = b.into_grammar().compact();
            let index = GrammarIndex::build(&grammar);
            Fixture { grammar, index }
        }

        fn walker(&self) -> Walker<'_> {
            Walker {
                grammar: &self.grammar,
                index: &self.index,
            }
        }

        fn terminal_uses(&self, ev: EventId) -> Vec<Loc> {
            self.grammar.terminal_uses(ev)
        }
    }

    #[test]
    fn factors_sum_to_one() {
        let fx = Fixture::new(&[0, 1, 1, 2, 1, 2, 0, 1, 3, 0, 1, 1, 2]);
        let w = fx.walker();
        for ev in [0u32, 1, 2, 3] {
            for loc in fx.terminal_uses(e(ev)) {
                let p = Path::seed(loc.rule, loc.pos);
                let mut out = Vec::new();
                w.expand(&p, &mut out);
                let total: f64 = out.iter().map(|b| b.factor).sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "event {ev}: branch factors sum to {total}"
                );
            }
        }
    }

    #[test]
    fn deterministic_successor() {
        // a b a b: from a (inside the folded rule), the next event is b
        // with probability 1.
        let fx = Fixture::new(&[0, 1, 0, 1, 0, 1, 0, 1]);
        let w = fx.walker();
        let uses = fx.terminal_uses(e(0));
        assert_eq!(uses.len(), 1);
        let p = Path::seed(uses[0].rule, uses[0].pos);
        let mut out = Vec::new();
        w.expand(&p, &mut out);
        for b in &out {
            assert_eq!(b.outcome, Outcome::Event(e(1)));
        }
    }

    #[test]
    fn repetition_branching_weights() {
        // a^4 b, repeated: from an `a` at unknown offset, staying on `a`
        // should carry 3/4 of the weight.
        let mut seq = Vec::new();
        for _ in 0..6 {
            seq.extend([0, 0, 0, 0, 1]);
        }
        let fx = Fixture::new(&seq);
        let w = fx.walker();
        let uses = fx.terminal_uses(e(0));
        assert_eq!(uses.len(), 1, "{}", fx.grammar.render(&|x| x.to_string()));
        let p = Path::seed(uses[0].rule, uses[0].pos);
        let mut out = Vec::new();
        w.expand(&p, &mut out);
        let stay: f64 = out
            .iter()
            .filter(|b| b.outcome == Outcome::Event(e(0)))
            .map(|b| b.factor)
            .sum();
        let leave: f64 = out
            .iter()
            .filter(|b| b.outcome == Outcome::Event(e(1)))
            .map(|b| b.factor)
            .sum();
        assert!((stay - 0.75).abs() < 1e-9, "stay weight {stay}");
        assert!((leave - 0.25).abs() < 1e-9, "leave weight {leave}");
    }

    #[test]
    fn end_of_trace_reachable() {
        // Root-anchored path at the last event must yield End.
        let fx = Fixture::new(&[0, 1, 2]);
        let g = &fx.grammar;
        let root = g.root();
        let last_pos = g.rule(root).body.len() - 1;
        let p = Path {
            frames: vec![Frame {
                rule: root,
                pos: last_pos,
                rep: Rep::Known(1),
            }],
        };
        let w = fx.walker();
        let mut out = Vec::new();
        w.expand(&p, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].outcome, Outcome::End);
    }

    #[test]
    fn upward_extension_covers_all_sites() {
        // Trace where rule "ab" is used in two different contexts:
        // a b c a b d a b c a b d — after finishing "ab" the next event is
        // c or d with equal weight.
        let fx = Fixture::new(&[0, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 3]);
        let w = fx.walker();
        let uses = fx.terminal_uses(e(1));
        let mut all = Vec::new();
        for u in uses {
            let p = Path::seed(u.rule, u.pos);
            w.expand(&p, &mut all);
        }
        let evs: std::collections::HashSet<u32> = all
            .iter()
            .filter_map(|b| match b.outcome {
                Outcome::Event(x) => Some(x.0),
                Outcome::End => None,
            })
            .collect();
        assert!(evs.contains(&2), "{evs:?}");
        assert!(evs.contains(&3), "{evs:?}");
    }

    #[test]
    fn advance_in_place_agrees_with_expand_matching() {
        // Over a soup of reachable paths × alphabet: a fast advance must
        // reproduce the unique matching branch exactly, factor included;
        // NoMatch must mean no branch emits the event; Ambiguous is always
        // allowed to defer to the general expansion (which the predictor
        // then takes) but must leave the frames alone.
        let traces: Vec<Vec<u32>> = vec![
            (0..12).flat_map(|_| vec![0, 1, 2]).collect(),
            (0..8).flat_map(|_| vec![0, 0, 0, 0, 1]).collect(),
            (0..6)
                .flat_map(|i| vec![0, 1, 2, 0, 1, 3 + (i % 2)])
                .collect(),
            (0..20)
                .flat_map(|i| vec![0, 0, 0, 1, (i % 3) + 2])
                .collect(),
            vec![0, 1, 2, 3, 4, 5],
        ];
        for seq in traces {
            let fx = Fixture::new(&seq);
            let w = fx.walker();
            // Collect paths: every seed plus a few expansion generations.
            let mut paths: Vec<Path> = Vec::new();
            for ev in 0..6u32 {
                for loc in fx.terminal_uses(e(ev)) {
                    paths.push(Path::seed(loc.rule, loc.pos));
                }
            }
            let mut frontier = paths.clone();
            for _ in 0..3 {
                let mut next = Vec::new();
                for p in &frontier {
                    let mut out = Vec::new();
                    w.expand(p, &mut out);
                    for b in out {
                        if let Outcome::Event(_) = b.outcome {
                            next.push(b.path);
                        }
                    }
                }
                paths.extend(next.iter().cloned());
                frontier = next;
                if paths.len() > 400 {
                    break;
                }
            }
            for p in &paths {
                let mut all = Vec::new();
                w.expand(p, &mut all);
                for ev in 0..6u32 {
                    let out: Vec<&Branch> = all
                        .iter()
                        .filter(|b| b.outcome == Outcome::Event(e(ev)))
                        .collect();
                    let mut frames = p.frames.clone();
                    match w.advance_in_place(&mut frames, e(ev)) {
                        Advance::Advanced(factor) => {
                            assert_eq!(out.len(), 1, "path {p:?} event {ev}");
                            assert_eq!(frames, out[0].path.frames, "path {p:?} event {ev}");
                            assert_eq!(factor.to_bits(), out[0].factor.to_bits());
                        }
                        Advance::NoMatch => {
                            assert!(out.is_empty(), "path {p:?} event {ev}: {out:?}");
                        }
                        Advance::Ambiguous => {
                            assert_eq!(frames, p.frames, "path {p:?} event {ev}");
                        }
                    }
                }
            }
        }
    }

    /// Stepwise reference: expand `distance` times, summing final weights.
    fn stepwise_distance(
        w: &Walker<'_>,
        path: &Path,
        distance: usize,
    ) -> (FxHashMap<EventId, f64>, f64) {
        let mut states = vec![(path.clone(), 1.0f64)];
        let mut end_mass = 0.0;
        let mut dist: FxHashMap<EventId, f64> = FxHashMap::default();
        for step in 0..distance {
            let mut next = Vec::new();
            for (p, wt) in &states {
                let mut out = Vec::new();
                w.expand(p, &mut out);
                for b in out {
                    let bw = wt * b.factor;
                    match b.outcome {
                        Outcome::End => end_mass += bw,
                        Outcome::Event(ev) => {
                            if step + 1 == distance {
                                *dist.entry(ev).or_insert(0.0) += bw;
                            } else {
                                next.push((b.path, bw));
                            }
                        }
                    }
                }
            }
            states = next;
        }
        (dist, end_mass)
    }

    #[test]
    fn simulate_distance_matches_stepwise() {
        let traces: Vec<Vec<u32>> = vec![
            (0..12).flat_map(|_| vec![0, 1, 2]).collect(),
            (0..8).flat_map(|_| vec![0, 0, 0, 0, 1]).collect(),
            (0..6)
                .flat_map(|i| vec![0, 1, 2, 0, 1, 3 + (i % 2)])
                .collect(),
            vec![0, 1, 2, 3, 4, 5],
            // Nested repetitions: ((a^3 b)^4 c^2 d)^5 e.
            (0..5)
                .flat_map(|_| {
                    let mut outer: Vec<u32> = (0..4).flat_map(|_| vec![0, 0, 0, 1]).collect();
                    outer.extend([2, 2, 3]);
                    outer
                })
                .chain([4])
                .collect(),
        ];
        for seq in traces {
            let fx = Fixture::new(&seq);
            let w = fx.walker();
            for ev in 0..6u32 {
                for loc in fx.terminal_uses(e(ev)) {
                    let p = Path::seed(loc.rule, loc.pos);
                    for distance in [1usize, 2, 3, 5, 8, 13, 21, 34, 64] {
                        let (want, want_end) = stepwise_distance(&w, &p, distance);
                        let mut acc = DistanceAccumulator::new(usize::MAX);
                        w.simulate_distance(&p, distance as u64, 1.0, &mut acc);
                        assert!(
                            (acc.end_mass - want_end).abs() < 1e-9,
                            "end mass {} vs {} (d={distance})",
                            acc.end_mass,
                            want_end
                        );
                        let got_of = |ev: &EventId| {
                            let found = acc.per_event.iter().find(|(x, _)| x == ev);
                            found.map_or(0.0, |&(_, wt)| wt)
                        };
                        for (ev2, wt) in &want {
                            let got = got_of(ev2);
                            assert!(
                                (got - wt).abs() < 1e-9,
                                "event {ev2:?}: {got} vs {wt} (d={distance})"
                            );
                        }
                        for (ev2, wt) in &acc.per_event {
                            let exp = want.get(ev2).copied().unwrap_or(0.0);
                            assert!(
                                (wt - exp).abs() < 1e-9,
                                "spurious event {ev2:?}: {wt} vs {exp} (d={distance})"
                            );
                        }
                    }
                }
            }
        }
    }
}
