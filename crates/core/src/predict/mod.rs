//! PYTHIA-PREDICT: following the current execution inside the reference
//! grammar and predicting future events (paper §II-B and §II-C).
//!
//! A [`Predictor`] is fed the events of **one thread** of the new execution
//! through [`Predictor::observe`]. It maintains a weighted set of candidate
//! [`Path`]s (progress sequences):
//!
//! * when the stream matches the reference behavior, the set quickly
//!   collapses to a handful of candidates advanced deterministically;
//! * an event that *exists* in the grammar but does not match any candidate
//!   re-seeds the set from every occurrence of that event (tolerance to
//!   unexpected events, §II-B2);
//! * an event that never occurred in the reference execution leaves the
//!   oracle without information ([`ObserveOutcome::Unknown`]) — the runtime
//!   system should fall back to its heuristic until the stream
//!   re-synchronizes.
//!
//! [`Predictor::predict`] simulates the candidate set `distance` events
//! forward, weighting branches by occurrence counts in the reference
//! execution; [`Predictor::predict_delay_ns`] additionally accumulates the
//! timing model's context-sensitive mean durations along the most probable
//! chain (§II-C).
//!
//! # Hot-path costs
//!
//! All read-side queries go through the [`crate::grammar::GrammarIndex`]
//! built once per thread trace and shared (`Arc`) by every predictor; the
//! grammar is immutable at predict time, so every walk only *reads* it and
//! the candidate it starts from.
//!
//! * [`Predictor::observe`] advances each candidate with
//!   [`Walker::advance_in_place`]: one scan outward from the innermost
//!   frame that rewrites the frames in place and reports the matched
//!   branch's weight factor. Equal successors are merged by comparing
//!   frames, and candidates that fall away leave their frame buffers in a
//!   spare pool that re-seeding and the fallback draw from — so a tracked
//!   stream, with one candidate or several, performs **no allocation**.
//!   Two cases fall back to the general expansion (the enumerator behind
//!   [`Walker::expand`]): two branches of one candidate
//!   emitting the observed event, and a partial path ascending past its
//!   top frame (upward extension branches over the rule's use sites).
//!   Re-seeding reads the precomputed occurrence index instead of scanning
//!   the grammar.
//! * [`Predictor::predict`] runs the distance-striding simulation
//!   ([`Walker::simulate_distance`]), skipping repetition runs and whole
//!   rule subtrees shorter than the remaining distance in O(1) — roughly
//!   O(distance + path depth) per candidate instead of O(unfolded events ×
//!   branching). The walk accumulates straight into the vector returned as
//!   [`Prediction::distribution`]: an informed answer costs **one
//!   allocation**, an uninformed one none. The stepwise reference it is
//!   held to lives with this module's tests (`predict_scan`).
//! * [`Predictor::predict_delay_ns`] and [`Predictor::predict_sequence`]
//!   follow one greedy chain a step at a time — the timing model keys each
//!   event's mean on its own rule context — reading each step's
//!   continuations without building them and writing the chosen successor
//!   into one of two reused frame buffers. Their expanding reference is
//!   `greedy_chain_scan` in this module's tests.

pub mod path;
pub mod walker;

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{Error, Result};
use crate::event::EventId;
use crate::grammar::{GrammarIndex, Loc};
use crate::trace::{ThreadTrace, TraceData};
use path::Path;
use walker::{Advance, DistanceAccumulator, Outcome, Step, Walker};

/// Tuning knobs of the predictor.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Maximum number of candidate progress sequences tracked after each
    /// observation (lowest-weight candidates are dropped). Must be ≥ 1.
    pub max_candidates: usize,
    /// Maximum number of weighted states expanded per step while
    /// simulating forward in [`Predictor::predict`]. Must be ≥ 1.
    pub max_states: usize,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig {
            max_candidates: 64,
            max_states: 128,
        }
    }
}

impl PredictorConfig {
    /// Checks that the configuration is usable. A zero capacity would
    /// silently discard every candidate (the oracle could never
    /// synchronize), so it is rejected up front instead.
    pub fn validate(&self) -> Result<()> {
        if self.max_candidates == 0 {
            return Err(Error::InvalidConfig(
                "max_candidates must be at least 1".into(),
            ));
        }
        if self.max_states == 0 {
            return Err(Error::InvalidConfig("max_states must be at least 1".into()));
        }
        Ok(())
    }
}

/// Statistics accumulated by a [`Predictor`]; useful for accuracy studies
/// and for runtimes that want to distrust a frequently-mismatching oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Total events observed.
    pub observed: u64,
    /// Events that matched a tracked candidate.
    pub matched: u64,
    /// Events that forced a re-seed (present in the grammar, but not where
    /// the candidates expected them).
    pub reseeded: u64,
    /// Events absent from the reference execution.
    pub unknown: u64,
    /// Panics caught (and isolated) by a resilience facade wrapping this
    /// predictor. Always 0 for a bare [`Predictor`]; filled in by
    /// [`crate::resilience::HardenedOracle`] when it merges its counters.
    pub panics_caught: u64,
    /// Predict queries that blew their time budget and were answered with
    /// the host default instead (facade counter, 0 on a bare predictor).
    pub deadline_misses: u64,
    /// Times the resilience layer quarantined the oracle (facade counter,
    /// 0 on a bare predictor).
    pub quarantine_transitions: u64,
    /// Nanoseconds spent with the oracle degraded — quarantined, probing,
    /// or poisoned (facade counter, 0 on a bare predictor).
    pub degraded_ns: u64,
}

/// How an observation related to the tracked candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveOutcome {
    /// The event continued at least one candidate progress sequence.
    Matched,
    /// The event exists in the grammar but matched no candidate; the
    /// candidate set was re-seeded from its occurrences.
    Reseeded,
    /// The event never occurred in the reference execution; the oracle has
    /// no information until the stream re-synchronizes.
    Unknown,
}

/// A probability distribution over the next event at some distance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Prediction {
    /// `(event, probability)` sorted by decreasing probability. Empty when
    /// the oracle has no information.
    pub distribution: Vec<(EventId, f64)>,
    /// Probability mass on "the reference trace ends before that distance".
    pub end_probability: f64,
}

impl Prediction {
    /// Normalizes accumulated masses into probabilities, most probable
    /// event first (ties by event id).
    fn from_masses(mut distribution: Vec<(EventId, f64)>, mut end_mass: f64) -> Self {
        let total: f64 = distribution.iter().map(|&(_, w)| w).sum::<f64>() + end_mass;
        if total > 0.0 {
            for (_, w) in &mut distribution {
                *w /= total;
            }
            end_mass /= total;
        }
        if distribution.len() > 1 {
            distribution.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        }
        Prediction {
            distribution,
            end_probability: end_mass,
        }
    }

    /// The most probable event, if any.
    pub fn most_likely(&self) -> Option<EventId> {
        self.distribution.first().map(|&(e, _)| e)
    }

    /// Probability of a specific event.
    pub fn probability(&self, event: EventId) -> f64 {
        self.distribution
            .iter()
            .find(|&&(e, _)| e == event)
            .map_or(0.0, |&(_, p)| p)
    }

    /// Whether the oracle had any information.
    pub fn is_informed(&self) -> bool {
        !self.distribution.is_empty() || self.end_probability > 0.0
    }
}

/// Follows one thread of the current execution inside a reference trace
/// and predicts its future behavior.
#[derive(Debug)]
pub struct Predictor {
    thread: Arc<ThreadTrace>,
    config: PredictorConfig,
    /// Precomputed query tables over `thread.grammar`, shared by every
    /// predictor (and walker) over the same thread trace.
    index: Arc<GrammarIndex>,
    /// Heaviest first, equal weights by frames; weights sum to 1.
    candidates: Vec<(Path, f64)>,
    stats: PredictStats,
    /// The next candidate generation while `observe` builds it; empty
    /// between calls, kept for its capacity.
    scratch_branches: Vec<(Path, f64)>,
    /// Paths that fell out of the candidate set, kept for their frame
    /// buffers: every new candidate is written into one of these.
    spare: Vec<Path>,
}

impl Predictor {
    /// Creates a predictor over thread 0 of `trace` with default settings.
    pub fn new(trace: &TraceData) -> Self {
        Self::for_thread(trace, 0, PredictorConfig::default()).expect("trace has no thread 0")
    }

    /// Creates a predictor over a specific thread of a multi-thread trace.
    /// Fails on a missing thread or an invalid configuration.
    pub fn for_thread(trace: &TraceData, index: usize, config: PredictorConfig) -> Result<Self> {
        Self::try_from_thread_trace(trace.thread(index)?.clone(), config)
    }

    /// Creates a predictor directly from a [`ThreadTrace`]. Panics on an
    /// invalid configuration; use [`Predictor::try_from_thread_trace`] to
    /// handle that gracefully.
    pub fn from_thread_trace(thread: Arc<ThreadTrace>, config: PredictorConfig) -> Self {
        Self::try_from_thread_trace(thread, config).expect("invalid predictor configuration")
    }

    /// Creates a predictor directly from a [`ThreadTrace`], validating the
    /// configuration. The thread's [`GrammarIndex`] is computed once and
    /// shared, so constructing many predictors over one trace is cheap.
    pub fn try_from_thread_trace(
        thread: Arc<ThreadTrace>,
        config: PredictorConfig,
    ) -> Result<Self> {
        config.validate()?;
        let index = thread.index();
        Ok(Predictor {
            thread,
            config,
            index,
            candidates: Vec::new(),
            stats: PredictStats::default(),
            scratch_branches: Vec::new(),
            spare: Vec::new(),
        })
    }

    fn walker(&self) -> Walker<'_> {
        Walker {
            grammar: &self.thread.grammar,
            index: &self.index,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PredictStats {
        self.stats
    }

    /// Number of candidate progress sequences currently tracked.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the predictor currently knows where the application is.
    pub fn is_synchronized(&self) -> bool {
        !self.candidates.is_empty()
    }

    /// Submits the next event of the current execution.
    pub fn observe(&mut self, event: EventId) -> ObserveOutcome {
        self.stats.observed += 1;
        if !self.index.knows_event(event) {
            // Never seen in the reference execution: the oracle loses track
            // (paper §II-B2 — the runtime must fall back to heuristics).
            self.retire_candidates();
            self.stats.unknown += 1;
            return ObserveOutcome::Unknown;
        }
        if self.advance_candidates(event) {
            self.stats.matched += 1;
            return ObserveOutcome::Matched;
        }
        // Start (or re-start after a mismatch) from every occurrence of the
        // event, weighted by occurrence counts.
        let index = Arc::clone(&self.index);
        self.seed(index.occurrences(event).unwrap_or_default());
        self.stats.reseeded += 1;
        ObserveOutcome::Reseeded
    }

    /// Submits a batch of events in order and returns the outcome of the
    /// **last** one (`None` for an empty batch) — exactly equivalent to
    /// calling [`Predictor::observe`] once per event, but the
    /// steady-state single-candidate fast path is hoisted *across the
    /// batch*: one walker (grammar + occurrence-index borrow) advances
    /// the lone candidate in place through as many consecutive events as
    /// it can absorb, so the per-event cost is one `advance_in_place`
    /// call instead of a full dispatch through the observe entry point.
    /// Any event the run cannot absorb (unknown, mismatch, ambiguity,
    /// multi-candidate tracking) falls back to the general per-event
    /// path and the run restarts after it.
    ///
    /// Serving layers that transport several events per request (the
    /// `pythia-serve` observe frames) use this to amortize the index
    /// lookup across the batch.
    pub fn observe_batch(&mut self, events: &[EventId]) -> Option<ObserveOutcome> {
        let mut last = None;
        let mut i = 0;
        while i < events.len() {
            if self.candidates.len() == 1 {
                // Disjoint field borrows: the walker holds `thread` and
                // `index`, the advance mutates `candidates`, the tallies
                // touch `stats`.
                let walker = Walker {
                    grammar: &self.thread.grammar,
                    index: &self.index,
                };
                // A lone candidate's weight stays 1 whatever the factor.
                let path = &mut self.candidates[0].0;
                let mut advanced = 0u64;
                while i < events.len()
                    && walker.index.knows_event(events[i])
                    && matches!(
                        walker.advance_in_place(&mut path.frames, events[i]),
                        Advance::Advanced(_)
                    )
                {
                    i += 1;
                    advanced += 1;
                }
                if advanced > 0 {
                    self.stats.observed += advanced;
                    self.stats.matched += advanced;
                    last = Some(ObserveOutcome::Matched);
                }
                if i >= events.len() {
                    break;
                }
            }
            // The odd event out (or a non-steady candidate set): the
            // general path handles it and may collapse the candidates
            // back to one, re-arming the fast run for what remains.
            last = Some(self.observe(events[i]));
            i += 1;
        }
        last
    }

    /// Replaces every candidate by its successors emitting `event`, each
    /// weighted by its branch factor; `false` (and no candidate left) when
    /// none emits it. A candidate with a single matching branch — the
    /// steady state — is advanced in place; the rest take the general
    /// expansion, their successors written into spare buffers.
    fn advance_candidates(&mut self, event: EventId) -> bool {
        let walker = Walker {
            grammar: &self.thread.grammar,
            index: &self.index,
        };
        let (next, spare) = (&mut self.scratch_branches, &mut self.spare);
        for (mut path, weight) in self.candidates.drain(..) {
            match walker.advance_in_place(&mut path.frames, event) {
                Advance::Advanced(factor) => merge_into(next, spare, path, weight * factor),
                Advance::NoMatch => spare.push(path),
                Advance::Ambiguous => {
                    walker.steps(&path.frames, &mut |step| {
                        if step.outcome == Outcome::Event(event) {
                            let mut successor = spare.pop().unwrap_or_default();
                            walker.successor(&path.frames, &step, &mut successor.frames);
                            merge_into(next, spare, successor, weight * step.factor);
                        }
                    });
                    spare.push(path);
                }
            }
        }
        std::mem::swap(&mut self.candidates, &mut self.scratch_branches);
        self.settle_candidates();
        !self.candidates.is_empty()
    }

    /// Rebuilds the candidate set from occurrence-index entries: one
    /// candidate per use site, pre-weighted with `expansions × count`.
    fn seed(&mut self, occurrences: &[(Loc, f64)]) {
        self.retire_candidates();
        self.candidates.reserve(occurrences.len());
        for &(loc, weight) in occurrences {
            if weight > 0.0 {
                let mut path = self.spare.pop().unwrap_or_default();
                path.reseed(loc.rule, loc.pos);
                self.candidates.push((path, weight));
            }
        }
        self.settle_candidates();
    }

    /// Empties the candidate set into the spare pool.
    fn retire_candidates(&mut self) {
        let retired = self.candidates.drain(..).map(|(path, _)| path);
        self.spare.extend(retired);
    }

    /// Puts the (distinct) candidates in their total order — heaviest
    /// first, equal weights by frames, so that neither the survivors of
    /// the cap nor any later summation depends on how the set was built —
    /// keeps the heaviest `max_candidates`, and normalizes weights.
    fn settle_candidates(&mut self) {
        let candidates = &mut self.candidates;
        if candidates.len() > 1 {
            candidates.sort_unstable_by(|a, b| {
                b.1.total_cmp(&a.1)
                    .then_with(|| a.0.frames.cmp(&b.0.frames))
            });
            let dropped = candidates.drain(self.config.max_candidates.min(candidates.len())..);
            self.spare.extend(dropped.map(|(path, _)| path));
        }
        let total: f64 = candidates.iter().map(|&(_, w)| w).sum();
        if total > 0.0 {
            for (_, w) in candidates {
                *w /= total;
            }
        }
    }

    /// Predicts the event that will occur `distance` events from now
    /// (`distance = 1` is the next event), simulating the candidate set
    /// forward and aggregating branch weights (paper §II-C).
    ///
    /// Uses the distance-striding simulation: repetition runs and whole
    /// rule subtrees shorter than the remaining distance are skipped in
    /// O(1), so the cost grows with the distance and the grammar depth, not
    /// with the number of unfolded events.
    pub fn predict(&self, distance: usize) -> Prediction {
        self.predict_inner(distance, None)
            .expect("only a deadline can abort the distance walk")
    }

    /// [`Predictor::predict`] under an optional deadline: past it the walk
    /// returns [`Error::Degraded`] and drops its partial distribution, which
    /// would be biased towards the branches visited first.
    pub(crate) fn predict_inner(
        &self,
        distance: usize,
        deadline: Option<Instant>,
    ) -> Result<Prediction> {
        assert!(distance >= 1, "prediction distance must be >= 1");
        if self.candidates.is_empty() {
            return Ok(Prediction::default());
        }
        let walker = self.walker();
        // Branch-node budget mirroring `predict_scan`'s per-step state cap;
        // beyond it residual branches are dropped, as truncation does.
        let budget = self
            .config
            .max_states
            .saturating_mul(distance.saturating_add(4));
        let mut acc = DistanceAccumulator::with_deadline(budget, deadline);
        for (path, weight) in &self.candidates {
            walker.simulate_distance(path, distance as u64, *weight, &mut acc);
            if acc.deadline_hit() {
                return Err(Error::Degraded(format!(
                    "predict(distance={distance}) exceeded its time budget"
                )));
            }
        }
        Ok(Prediction::from_masses(acc.per_event, acc.end_mass))
    }

    /// Estimated time (nanoseconds) until the event `distance` steps ahead,
    /// following the most probable chain of progress sequences and summing
    /// the timing model's context means (paper §II-C). Returns `None` when
    /// the oracle is out of sync or the trace holds no timing data.
    pub fn predict_delay_ns(&self, distance: usize) -> Option<f64> {
        self.predict_delay_ns_inner(distance, None)
            .expect("only a deadline can abort the delay walk")
    }

    /// [`Predictor::predict_delay_ns`] under an optional deadline, past
    /// which it returns [`Error::Degraded`].
    pub(crate) fn predict_delay_ns_inner(
        &self,
        distance: usize,
        deadline: Option<Instant>,
    ) -> Result<Option<f64>> {
        assert!(distance >= 1, "prediction distance must be >= 1");
        if self.thread.timing.is_empty() {
            return Ok(None);
        }
        let mut total = 0.0f64;
        let reached = self.greedy_chain(distance, deadline, |event, path| {
            let (frames, n) = path.context_frames();
            let mean = self.thread.timing.mean_ns(event, &frames[..n]);
            mean.map(|ns| total += ns).is_some()
        })?;
        Ok((reached == distance).then_some(total))
    }

    /// [`Predictor::predict_delay_ns`] as a [`Duration`].
    pub fn predict_delay(&self, distance: usize) -> Option<Duration> {
        self.predict_delay_ns(distance)
            .map(|ns| Duration::from_nanos(ns.max(0.0) as u64))
    }

    /// The most probable sequence of the next `n` events, following the
    /// greedy maximum-likelihood chain (useful for prefetch-style
    /// optimizations that need the whole upcoming window, not one event).
    /// Shorter than `n` if the chain reaches the end of the reference
    /// trace or the oracle is out of sync.
    pub fn predict_sequence(&self, n: usize) -> Vec<EventId> {
        let mut events = Vec::with_capacity(n);
        self.greedy_chain(n, None, |event, _| {
            events.push(event);
            true
        })
        .expect("only a deadline can abort the chain");
        events
    }

    /// The greedy chain behind [`Predictor::predict_delay_ns`] and
    /// [`Predictor::predict_sequence`]: from the heaviest candidate, up to
    /// `n` times the heaviest continuation that emits an event (of equal
    /// weights or factors the last, as `Iterator::max_by` picks). Each
    /// event goes to `visit` with the path it leads to, until `visit`
    /// refuses one; returns the events accepted. The deadline is checked
    /// before every step.
    fn greedy_chain(
        &self,
        n: usize,
        deadline: Option<Instant>,
        mut visit: impl FnMut(EventId, &Path) -> bool,
    ) -> Result<usize> {
        let Some((start, _)) = self.candidates.iter().max_by(|a, b| a.1.total_cmp(&b.1)) else {
            return Ok(0);
        };
        let walker = self.walker();
        let (mut path, mut next) = (Path::default(), Path::default());
        // Room to run deeper than the start without regrowing a buffer.
        path.frames.reserve(start.depth() + 8);
        next.frames.reserve(start.depth() + 8);
        path.frames.extend_from_slice(&start.frames);
        for reached in 0..n {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Error::Degraded(format!(
                    "chain of {n} over its time budget"
                )));
            }
            let mut best: Option<(EventId, Step)> = None;
            walker.steps(&path.frames, &mut |step| {
                if let Outcome::Event(event) = step.outcome {
                    if best.is_none_or(|(_, b)| step.factor.total_cmp(&b.factor).is_ge()) {
                        best = Some((event, step));
                    }
                }
            });
            let Some((event, step)) = best else {
                return Ok(reached);
            };
            walker.successor(&path.frames, &step, &mut next.frames);
            std::mem::swap(&mut path, &mut next);
            if !visit(event, &path) {
                return Ok(reached);
            }
        }
        Ok(n)
    }

    /// Drops all tracked candidates, forcing a re-seed on the next event.
    pub fn desynchronize(&mut self) {
        self.retire_candidates();
    }

    /// The grammar being tracked.
    pub fn grammar(&self) -> &crate::grammar::Grammar {
        &self.thread.grammar
    }

    /// The precomputed index over the tracked grammar.
    pub fn index(&self) -> &Arc<GrammarIndex> {
        &self.index
    }
}

/// Adds `path` to `set`, or its weight to the equal path already there
/// (weights add up in arrival order); a merged path's buffer goes to
/// `spare`.
fn merge_into(set: &mut Vec<(Path, f64)>, spare: &mut Vec<Path>, path: Path, weight: f64) {
    match set.iter_mut().find(|(p, _)| p.frames == path.frames) {
        Some((_, w)) => {
            *w += weight;
            spare.push(path);
        }
        None => set.push((path, weight)),
    }
}

/// Re-export the key types at module level.
pub use path::{Frame, Rep};
pub use walker::Outcome as BranchOutcome;

#[allow(unused)]
fn _assert_send_sync() {
    fn check<T: Send>() {}
    check::<Predictor>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::record::{RecordConfig, Recorder};
    use crate::util::FxHashMap;
    use walker::Branch;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    impl Predictor {
        /// Stepwise reference implementation of [`Predictor::predict`]: expands
        /// every state one event at a time — executable documentation of the
        /// semantics every distance walk must reproduce.
        fn predict_scan(&self, distance: usize) -> Prediction {
            assert!(distance >= 1, "prediction distance must be >= 1");
            if self.candidates.is_empty() {
                return Prediction::default();
            }
            let walker = self.walker();
            let mut states = self.candidates.clone();
            let mut end_mass = 0.0f64;
            let mut last_step: Vec<(EventId, f64)> = Vec::new();
            for step in 0..distance {
                let mut next: Vec<(Path, f64)> = Vec::new();
                let mut out: Vec<Branch> = Vec::new();
                if step + 1 == distance {
                    last_step.clear();
                }
                for (path, weight) in &states {
                    out.clear();
                    walker.expand(path, &mut out);
                    for b in &out {
                        let w = weight * b.factor;
                        match b.outcome {
                            Outcome::End => end_mass += w,
                            Outcome::Event(e) => {
                                if step + 1 == distance {
                                    last_step.push((e, w));
                                } else {
                                    next.push((b.path.clone(), w));
                                }
                            }
                        }
                    }
                }
                if step + 1 == distance {
                    break;
                }
                if next.is_empty() {
                    break;
                }
                // Merge identical states but do not renormalize: remaining mass
                // must stay comparable with `end_mass`.
                let mut merged: FxHashMap<Path, f64> = FxHashMap::default();
                for (p, w) in next {
                    *merged.entry(p).or_insert(0.0) += w;
                }
                let mut v: Vec<(Path, f64)> = merged.into_iter().collect();
                v.sort_by(|a, b| b.1.total_cmp(&a.1));
                v.truncate(self.config.max_states);
                states = v;
            }
            let mut per_event: FxHashMap<EventId, f64> = FxHashMap::default();
            for (e, w) in last_step {
                *per_event.entry(e).or_insert(0.0) += w;
            }
            Prediction::from_masses(per_event.into_iter().collect(), end_mass)
        }

        /// Stepwise reference of the greedy chain behind
        /// [`Predictor::predict_delay_ns`] and
        /// [`Predictor::predict_sequence`]: materializes every continuation
        /// with [`Walker::expand`] and follows the heaviest event branch
        /// (the last of equal factors) from the heaviest candidate —
        /// each step's event with the path it leads to.
        fn greedy_chain_scan(&self, n: usize) -> Vec<(EventId, Path)> {
            let mut chain = Vec::new();
            let Some((mut path, _)) = self
                .candidates
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .cloned()
            else {
                return chain;
            };
            let walker = self.walker();
            let mut out: Vec<Branch> = Vec::new();
            for _ in 0..n {
                out.clear();
                walker.expand(&path, &mut out);
                let Some(best) = out
                    .iter()
                    .filter(|b| matches!(b.outcome, Outcome::Event(_)))
                    .max_by(|a, b| a.factor.total_cmp(&b.factor))
                else {
                    break;
                };
                let Outcome::Event(event) = best.outcome else {
                    break;
                };
                path = best.path.clone();
                chain.push((event, path.clone()));
            }
            chain
        }

        /// [`Predictor::predict_delay_ns`] over [`Self::greedy_chain_scan`]:
        /// the context means summed in chain order, `None` unless every
        /// one of the `distance` steps exists and has a mean.
        fn predict_delay_scan(&self, distance: usize) -> Option<f64> {
            if self.thread.timing.is_empty() {
                return None;
            }
            let chain = self.greedy_chain_scan(distance);
            if chain.len() < distance {
                return None;
            }
            let mut total = 0.0f64;
            for (event, path) in &chain {
                let (frames, n) = path.context_frames();
                total += self.thread.timing.mean_ns(*event, &frames[..n])?;
            }
            Some(total)
        }
    }

    /// Records `seq` (with uniform 100ns spacing) into a trace.
    fn trace_of(seq: &[u32]) -> TraceData {
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in seq {
            t += 100;
            rec.record_at(e(s), t);
        }
        rec.finish(&EventRegistry::new()).unwrap()
    }

    #[test]
    fn predicts_deterministic_next_event() {
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        assert_eq!(p.observe(e(0)), ObserveOutcome::Reseeded);
        let pred = p.predict(1);
        assert_eq!(pred.most_likely(), Some(e(1)));
        assert!(pred.probability(e(1)) > 0.9);
    }

    #[test]
    fn tracks_along_stream_with_high_accuracy() {
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1, 2, 2, 3]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..seq.len() - 1 {
            p.observe(e(seq[i]));
            let pred = p.predict(1);
            total += 1;
            if pred.most_likely() == Some(e(seq[i + 1])) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn distance_prediction_follows_loop() {
        // Period-3 loop: at distance 3 the same event comes back.
        let seq: Vec<u32> = (0..60).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq[..30] {
            p.observe(e(s));
        }
        // Last observed is seq[29] == 2 (index 29 → 29 % 3 == 2).
        let pred3 = p.predict(3);
        assert_eq!(pred3.most_likely(), Some(e(2)));
        let pred1 = p.predict(1);
        assert_eq!(pred1.most_likely(), Some(e(0)));
        let pred2 = p.predict(2);
        assert_eq!(pred2.most_likely(), Some(e(1)));
    }

    #[test]
    fn unknown_event_loses_then_resyncs() {
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        assert!(p.is_synchronized());
        assert_eq!(p.observe(e(99)), ObserveOutcome::Unknown);
        assert!(!p.is_synchronized());
        assert!(!p.predict(1).is_informed());
        // Re-synchronizes on the next known event.
        assert_eq!(p.observe(e(0)), ObserveOutcome::Reseeded);
        assert_eq!(p.predict(1).most_likely(), Some(e(1)));
    }

    #[test]
    fn mismatched_event_reseeds() {
        // Reference alternates 0 1 0 1; feed 0 0 — the second 0 mismatches.
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let outcome = p.observe(e(0));
        assert_eq!(outcome, ObserveOutcome::Reseeded);
        assert!(p.is_synchronized());
        assert_eq!(p.stats().reseeded, 2);
    }

    #[test]
    fn mid_stream_start_tolerated() {
        // Paper §II-B1: start observing mid-trace.
        let seq: Vec<u32> = (0..50).flat_map(|_| [0, 1, 2, 3]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        // Start at phase 2 of the loop.
        for &s in &[2u32, 3, 0, 1, 2, 3, 0] {
            p.observe(e(s));
        }
        assert_eq!(p.predict(1).most_likely(), Some(e(1)));
    }

    #[test]
    fn end_probability_at_trace_end() {
        let trace = trace_of(&[0, 1, 2]);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        p.observe(e(1));
        p.observe(e(2));
        let pred = p.predict(1);
        assert!(
            pred.end_probability > 0.5,
            "end probability {}",
            pred.end_probability
        );
    }

    #[test]
    fn delay_prediction_uniform_spacing() {
        let seq: Vec<u32> = (0..100).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq[..20] {
            p.observe(e(s));
        }
        let d1 = p.predict_delay_ns(1).unwrap();
        assert!((d1 - 100.0).abs() < 1.0, "{d1}");
        let d4 = p.predict_delay_ns(4).unwrap();
        assert!((d4 - 400.0).abs() < 4.0, "{d4}");
    }

    #[test]
    fn delay_none_without_timing() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for _ in 0..10 {
            rec.record(e(0));
            rec.record(e(1));
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        assert_eq!(p.predict_delay_ns(1), None);
    }

    #[test]
    fn stats_accumulate() {
        let seq: Vec<u32> = (0..10).flat_map(|_| [0, 1]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq {
            p.observe(e(s));
        }
        let st = p.stats();
        assert_eq!(st.observed, 20);
        assert_eq!(st.reseeded, 1); // only the initial seed
        assert_eq!(st.matched, 19);
        assert_eq!(st.unknown, 0);
    }

    #[test]
    fn candidate_cap_respected() {
        // Many occurrences of the same event: candidates stay bounded.
        let mut seq = Vec::new();
        for i in 0..64u32 {
            seq.push(200 + i); // unique separators
            seq.push(7); // the common event
        }
        let trace = trace_of(&seq);
        let cfg = PredictorConfig {
            max_candidates: 8,
            max_states: 16,
        };
        let mut p = Predictor::for_thread(&trace, 0, cfg).unwrap();
        p.observe(e(7));
        assert!(p.candidate_count() <= 8);
    }

    #[test]
    fn candidate_order_is_independent_of_seeding_order() {
        // 24 equal-weight occurrences, 8 kept: which survive the cap, and
        // in what order, must not follow the order they were listed in.
        let seq: Vec<u32> = (0..24u32).flat_map(|i| [200 + i, 7]).collect();
        let trace = trace_of(&seq);
        let cfg = PredictorConfig {
            max_candidates: 8,
            max_states: 16,
        };
        let mut p = Predictor::for_thread(&trace, 0, cfg).unwrap();
        let mut occurrences = p.index().occurrences(e(7)).unwrap().to_vec();
        assert_eq!(occurrences.len(), 24);
        p.seed(&occurrences);
        let want = p.candidates.clone();
        assert_eq!(want.len(), 8);
        assert!(want.windows(2).all(|w| w[0].0.frames < w[1].0.frames));
        for turn in 0..occurrences.len() {
            occurrences.rotate_left(5);
            if turn % 2 == 0 {
                occurrences.reverse();
            }
            p.seed(&occurrences);
            assert_eq!(p.candidates, want, "turn {turn}");
        }
    }

    #[test]
    fn varying_problem_size_prediction() {
        // Record a loop of 10 iterations; predict on a run with 30
        // iterations: inner-loop predictions stay accurate (paper §III-C2's
        // observation about working-set-independent behavior).
        let small: Vec<u32> = (0..10).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&small);
        let large: Vec<u32> = (0..30).flat_map(|_| [0, 1, 2]).collect();
        let mut p = Predictor::new(&trace);
        let mut correct = 0;
        let mut total = 0;
        for i in 0..large.len() - 1 {
            p.observe(e(large[i]));
            total += 1;
            if p.predict(1).most_likely() == Some(e(large[i + 1])) {
                correct += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn zero_capacity_config_rejected() {
        let trace = trace_of(&[0, 1, 0, 1]);
        for cfg in [
            PredictorConfig {
                max_candidates: 0,
                max_states: 16,
            },
            PredictorConfig {
                max_candidates: 16,
                max_states: 0,
            },
        ] {
            assert!(cfg.validate().is_err());
            let err = Predictor::for_thread(&trace, 0, cfg.clone()).unwrap_err();
            assert!(
                matches!(err, Error::InvalidConfig(_)),
                "unexpected error {err}"
            );
            let thread = trace.thread(0).unwrap().clone();
            assert!(Predictor::try_from_thread_trace(thread, cfg).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "invalid predictor configuration")]
    fn zero_capacity_config_panics_in_infallible_constructor() {
        let trace = trace_of(&[0, 1, 0, 1]);
        let thread = trace.thread(0).unwrap().clone();
        let _ = Predictor::from_thread_trace(
            thread,
            PredictorConfig {
                max_candidates: 0,
                max_states: 0,
            },
        );
    }

    #[test]
    fn generous_deadline_matches_plain_predict() {
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let deadline = Instant::now() + Duration::from_secs(60);
        let timed = p.predict_inner(3, Some(deadline)).unwrap();
        let plain = p.predict(3);
        assert_eq!(timed.most_likely(), plain.most_likely());
        assert!((timed.end_probability - plain.end_probability).abs() < 1e-12);
        let d_timed = p
            .predict_delay_ns_inner(1, Some(deadline))
            .unwrap()
            .unwrap();
        let d_plain = p.predict_delay_ns(1).unwrap();
        assert!((d_timed - d_plain).abs() < 1e-9);
    }

    #[test]
    fn expired_deadline_degrades() {
        let seq: Vec<u32> = (0..40).flat_map(|_| [0, 1, 2]).collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let past = Instant::now() - Duration::from_millis(5);
        let err = p.predict_inner(4, Some(past)).unwrap_err();
        assert!(matches!(err, Error::Degraded(_)), "{err}");
        let err = p.predict_delay_ns_inner(1, Some(past)).unwrap_err();
        assert!(matches!(err, Error::Degraded(_)), "{err}");
        // The predictor itself is unharmed: the plain query still answers.
        assert!(p.predict(1).is_informed());
    }

    #[test]
    fn predict_matches_predict_scan() {
        // The striding simulation must reproduce the stepwise reference
        // distribution on a structured trace, at every phase and distance.
        let seq: Vec<u32> = (0..40)
            .flat_map(|i| vec![0, 1, 1, 1, 2, 3 + (i % 2)])
            .collect();
        let trace = trace_of(&seq);
        let mut p = Predictor::new(&trace);
        for &s in &seq[..25] {
            p.observe(e(s));
            for distance in [1usize, 2, 3, 7, 19, 64] {
                let fast = p.predict(distance);
                let slow = p.predict_scan(distance);
                assert!(
                    (fast.end_probability - slow.end_probability).abs() < 1e-9,
                    "end probability {} vs {} (d={distance})",
                    fast.end_probability,
                    slow.end_probability
                );
                let events: std::collections::HashSet<EventId> = fast
                    .distribution
                    .iter()
                    .chain(&slow.distribution)
                    .map(|&(ev, _)| ev)
                    .collect();
                for ev in events {
                    assert!(
                        (fast.probability(ev) - slow.probability(ev)).abs() < 1e-9,
                        "event {ev:?}: {} vs {} (d={distance})",
                        fast.probability(ev),
                        slow.probability(ev)
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The greedy chain reproduces its stepwise reference bit for bit:
        /// `predict_delay_ns(d)` is the expanded chain's means summed in
        /// order, `predict_sequence(d)` its events. The streams are
        /// timestamped repeated blocks with a tail, each event's delay
        /// depending on the event and its place, observed from a
        /// mid-block start (unknown offsets, several candidates), tracked,
        /// and through an out-of-place event now and then (reseeds).
        #[test]
        fn greedy_chain_matches_its_expansion(
            ((block, reps, tail), (start, noise)) in (
                (
                    proptest::collection::vec(0u32..6, 1..8),
                    1usize..24,
                    proptest::collection::vec(0u32..6, 0..5),
                ),
                (0usize..8, 3usize..11),
            )
        ) {
            use proptest::prop_assert_eq;
            let mut seq = block.repeat(reps);
            seq.extend(&tail);
            let mut rec = Recorder::new(RecordConfig::default());
            let mut t = 0u64;
            for (i, &s) in seq.iter().enumerate() {
                t += 100 + 17 * u64::from(s) + 5 * (i % 7) as u64;
                rec.record_at(e(s), t);
            }
            let trace = rec.finish(&EventRegistry::new()).unwrap();
            let mut p = Predictor::new(&trace);
            let upto = seq.len().min(40);
            let from = start.min(upto - 1);
            for (i, &s) in seq[from..upto].iter().enumerate() {
                p.observe(e(s));
                if i % noise == noise - 1 {
                    p.observe(e(seq[(from + i + 3) % seq.len()]));
                }
                for d in [1usize, 2, 5, 17, 64] {
                    let chain = p.greedy_chain_scan(d);
                    let events: Vec<EventId> = chain.iter().map(|&(ev, _)| ev).collect();
                    prop_assert_eq!(p.predict_sequence(d), events, "i={}, d={}", i, d);
                    prop_assert_eq!(
                        p.predict_delay_ns(d).map(f64::to_bits),
                        p.predict_delay_scan(d).map(f64::to_bits),
                        "i={}, d={}", i, d
                    );
                }
            }
        }

        /// The subtree-skipping `predict` reproduces the stepwise
        /// reference on recorded traces of repeated blocks with a tail
        /// (deep grammars, long repetitions) — distributions and end
        /// probability — while observing the reference stream at several
        /// positions.
        #[test]
        fn striding_predict_matches_stepwise_scan(
            (block, reps, tail) in (
                proptest::collection::vec(0u32..6, 1..8),
                1usize..24,
                proptest::collection::vec(0u32..6, 0..5),
            )
        ) {
            use proptest::prop_assert;
            let mut seq = block.repeat(reps);
            seq.extend(&tail);
            let trace = trace_of(&seq);
            // A state cap large enough that the stepwise scan never truncates:
            // under truncation the scan *drops* low-weight states while the
            // striding simulation keeps their mass, so exact equivalence is
            // only defined on the untruncated semantics.
            let config = PredictorConfig { max_candidates: 64, max_states: 1 << 16 };
            let mut p = Predictor::for_thread(&trace, 0, config).unwrap();
            let upto = seq.len().min(30);
            for (i, &s) in seq[..upto].iter().enumerate() {
                p.observe(e(s));
                if i % 3 != 0 {
                    continue;
                }
                for distance in [1usize, 2, 5, 17, 64] {
                    let fast = p.predict(distance);
                    let slow = p.predict_scan(distance);
                    prop_assert!(
                        (fast.end_probability - slow.end_probability).abs() < 1e-9,
                        "end probability {} vs {} (i={}, d={})",
                        fast.end_probability, slow.end_probability, i, distance
                    );
                    // `most_likely` itself may differ only on exact ties (the
                    // two implementations sum weights in different orders), so
                    // compare the probabilities, not the argmax.
                    for &(ev, _) in fast.distribution.iter().chain(&slow.distribution) {
                        prop_assert!(
                            (fast.probability(ev) - slow.probability(ev)).abs() < 1e-9,
                            "event {:?}: {} vs {} (i={}, d={})",
                            ev, fast.probability(ev), slow.probability(ev), i, distance
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod sequence_tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::record::{RecordConfig, Recorder};

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    #[test]
    fn predict_sequence_follows_loop() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for _ in 0..50 {
            for ev in [0u32, 1, 2, 3] {
                rec.record_at(e(ev), 0);
            }
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::new(&trace);
        for ev in [0u32, 1, 2, 3, 0] {
            p.observe(e(ev));
        }
        let seq = p.predict_sequence(7);
        let want: Vec<EventId> = [1u32, 2, 3, 0, 1, 2, 3].iter().map(|&x| e(x)).collect();
        assert_eq!(seq, want);
    }

    #[test]
    fn predict_sequence_stops_at_trace_end() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for ev in [0u32, 1, 2] {
            rec.record_at(e(ev), 0);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let mut p = Predictor::new(&trace);
        p.observe(e(0));
        let seq = p.predict_sequence(10);
        assert_eq!(seq, vec![e(1), e(2)]);
    }

    #[test]
    fn predict_sequence_empty_when_desynced() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        rec.record_at(e(0), 0);
        rec.record_at(e(1), 0);
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        let p = Predictor::new(&trace);
        assert!(p.predict_sequence(5).is_empty());
    }

    /// `observe_batch` must be observationally identical to per-event
    /// `observe` — same outcomes, same statistics, same subsequent
    /// predictions — across streams that exercise the batched fast run,
    /// its restart after mismatches, unknown events, and every batch
    /// split of the same stream.
    #[test]
    fn observe_batch_matches_sequential_observe() {
        let seq: Vec<u32> = (0..60).flat_map(|_| [0, 1, 2, 2, 3, 0, 1, 4]).collect();
        let mut rec = Recorder::new(RecordConfig::default());
        let mut t = 0u64;
        for &s in &seq {
            t += 100;
            rec.record_at(e(s), t);
        }
        let trace = rec.finish(&EventRegistry::new()).unwrap();
        // A replay with disturbances: unknown events (99), mismatching
        // detours, and long clean runs.
        let mut stream: Vec<EventId> = Vec::new();
        for (i, &s) in seq.iter().take(300).enumerate() {
            stream.push(e(s));
            if i % 37 == 0 {
                stream.push(e(99)); // never recorded: Unknown
            }
            if i % 23 == 0 {
                stream.push(e(seq[(i + 5) % seq.len()])); // out-of-place
            }
        }
        for batch in [1usize, 2, 3, 7, 16, 300, stream.len()] {
            let mut a = Predictor::new(&trace);
            let mut b = Predictor::new(&trace);
            for chunk in stream.chunks(batch) {
                let mut last = None;
                for &ev in chunk {
                    last = Some(a.observe(ev));
                }
                assert_eq!(b.observe_batch(chunk), last, "batch size {batch}");
            }
            assert_eq!(a.stats(), b.stats(), "batch size {batch}");
            assert_eq!(a.candidate_count(), b.candidate_count());
            for d in [1usize, 4, 32] {
                let (pa, pb) = (a.predict(d), b.predict(d));
                assert_eq!(pa.distribution, pb.distribution, "distance {d}");
                assert_eq!(pa.end_probability.to_bits(), pb.end_probability.to_bits());
            }
        }
    }
}
