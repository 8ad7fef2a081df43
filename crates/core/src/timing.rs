//! Timing model: predicting *when* future events will occur (paper §II-C).
//!
//! During the reference execution PYTHIA-RECORD optionally logs the
//! timestamp of every event. At the end of the run the event sequence is
//! *replayed* through the grammar: for every event occurrence, the model
//! records the elapsed time since the previous event, keyed by the
//! occurrence's *progress-sequence context* — the path from the terminal up
//! toward the root, truncated at every depth up to
//! [`TimingModel::MAX_DEPTH`].
//!
//! Keying every suffix length reproduces the paper's context-sensitivity
//! example (Fig. 6): the duration between an `a` and a `b` event *when a
//! `c` is expected next* ("BAb" context) is kept separate from the average
//! over all `a`→`b` transitions ("Ab" context); the predictor queries the
//! deepest context it knows and falls back to shallower ones.

use crate::event::EventId;
use crate::grammar::{Grammar, RuleId, Symbol};
use crate::util::{stable_hash, FxHashMap};

/// One aggregated duration bucket (serialized representation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingEntry {
    /// Stable hash of the progress-sequence context.
    pub key: u64,
    /// Sum of observed inter-event durations, in nanoseconds.
    pub sum_ns: u64,
    /// Number of observations.
    pub count: u64,
}

/// Aggregated inter-event durations keyed by progress-sequence context.
#[derive(Debug, Clone, Default)]
pub struct TimingModel {
    entries: Vec<TimingEntry>,
    index: FxHashMap<u64, usize>,
}

/// A borrowed progress-sequence context: the terminal event plus the
/// `(rule, position)` pairs of the path, innermost first.
pub type ContextFrame = (RuleId, usize);

impl TimingModel {
    /// Maximum context depth recorded (number of `(rule, pos)` frames).
    pub const MAX_DEPTH: usize = 4;

    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any duration was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct context buckets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Stable key for a context of `depth` frames (innermost first).
    pub fn context_key(event: EventId, frames: &[ContextFrame], depth: usize) -> u64 {
        debug_assert!(depth <= frames.len());
        stable_hash(&(depth as u64, event, &frames[..depth]))
    }

    /// Records one observation of `delta_ns` for the given context at every
    /// depth up to [`Self::MAX_DEPTH`].
    pub fn observe(&mut self, event: EventId, frames: &[ContextFrame], delta_ns: u64) {
        let max_depth = frames.len().min(Self::MAX_DEPTH);
        for depth in 0..=max_depth {
            let key = Self::context_key(event, frames, depth);
            self.add(key, delta_ns);
        }
    }

    /// Index of `key`'s bucket, appended empty if the key is new.
    fn bucket(&mut self, key: u64) -> usize {
        *self.index.entry(key).or_insert_with(|| {
            self.entries.push(TimingEntry {
                key,
                sum_ns: 0,
                count: 0,
            });
            self.entries.len() - 1
        })
    }

    fn add(&mut self, key: u64, delta_ns: u64) {
        let i = self.bucket(key);
        self.credit(i, delta_ns, 1);
    }

    fn credit(&mut self, bucket: usize, sum_ns: u64, count: u64) {
        let e = &mut self.entries[bucket];
        e.sum_ns = e.sum_ns.saturating_add(sum_ns);
        e.count += count;
    }

    /// Mean duration (ns) for the deepest known context, searching from
    /// `frames.len()` (capped) down to the context-free depth 0.
    pub fn mean_ns(&self, event: EventId, frames: &[ContextFrame]) -> Option<f64> {
        let max_depth = frames.len().min(Self::MAX_DEPTH);
        for depth in (0..=max_depth).rev() {
            let key = Self::context_key(event, frames, depth);
            if let Some(&i) = self.index.get(&key) {
                let e = &self.entries[i];
                return Some(e.sum_ns as f64 / e.count as f64);
            }
        }
        None
    }

    /// Mean duration (ns) for exactly one depth, without fallback.
    pub fn mean_ns_at_depth(
        &self,
        event: EventId,
        frames: &[ContextFrame],
        depth: usize,
    ) -> Option<f64> {
        if depth > frames.len() {
            return None;
        }
        let key = Self::context_key(event, frames, depth);
        self.index.get(&key).map(|&i| {
            let e = &self.entries[i];
            e.sum_ns as f64 / e.count as f64
        })
    }

    /// Raw entries (serialization order).
    pub fn entries(&self) -> &[TimingEntry] {
        &self.entries
    }

    /// Restores a model from raw entries (used by the binary trace reader).
    /// A key repeated in `entries` is indexed at its last entry only, so
    /// the trace reader refuses such a table.
    pub fn from_entries(entries: Vec<TimingEntry>) -> Self {
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.key, i))
            .collect();
        TimingModel { entries, index }
    }

    /// Whether some key has more than one entry, which no model built here
    /// has ([`Self::bucket`] finds a key before appending it): the trace
    /// reader rejects such a table as corrupt.
    pub(crate) fn has_repeated_key(&self) -> bool {
        self.index.len() != self.entries.len()
    }

    /// Builds the timing model for a finished (compacted) grammar by
    /// replaying the trace through it with the recorded timestamps
    /// (nanoseconds, one per event, same order as recording).
    ///
    /// This is the paper's post-run replay: every event occurrence is
    /// located by its (here fully deterministic) progress sequence, and the
    /// elapsed time from the previous event is averaged per context — as if
    /// [`Self::observe`] were called for every event but the first. The
    /// replay resolves a context once per grammar position, not per event:
    ///
    /// * **Entry order is that of per-event `observe`.** An accumulator is
    ///   opened at the first *observed* occurrence of its full context (the
    ///   trace's first event never is), and opening it finds or appends the
    ///   buckets of depths `0..=n` in that order — exactly when, and in
    ///   which order, `observe` would have appended its new keys; later
    ///   occurrences of a full context append nothing in either scheme.
    /// * **Sums are those of per-event `observe`.** Every delta is still
    ///   `ts[i].saturating_sub(ts[i - 1])` on its own (a run is not
    ///   telescoped to `last − first`, which differs when timestamps step
    ///   backwards), and `saturating_add` over non-negative terms gives the
    ///   same result in any grouping, so crediting an accumulator's total
    ///   to its buckets once, at the end, changes nothing.
    /// * **Scratch follows the grammar.** Tables are sized by rule bodies,
    ///   accumulators by distinct contexts and run lists by the tables
    ///   recorded; nothing is sized by the event count.
    /// * **A table is walked once.** Its expansions credit the same
    ///   accumulators with the same run lengths. The first one that starts
    ///   after event 0 (one at a time, ≤ [`RUN_CAP`] runs) records them in
    ///   one arena, and later ones replay that list. All its runs have a
    ///   predecessor, so the walk opened their accumulators: a replay opens
    ///   nothing, and the order above holds.
    ///
    /// A `timestamps_ns` shorter or longer than the trace fails a debug
    /// assertion; a release build uses their common prefix.
    pub fn build(grammar: &Grammar, timestamps_ns: &[u64]) -> Self {
        const UNSEEN: u32 = u32::MAX;
        let mut model = TimingModel::new();
        if timestamps_ns.is_empty() {
            return model;
        }
        let root = grammar.root();
        let mut tables = vec![Table {
            rule: root,
            ancestors: [(root, 0); Self::MAX_DEPTH - 1],
            base: 0,
            runs: Runs::Unrecorded,
        }];
        // (rule, frames a full context of its terminals holds, ancestors)
        // -> table; consulted only the first time a rule use is entered
        // under a table.
        let mut table_of = FxHashMap::default();
        // Per table, one slot per body position: the accumulator of a
        // terminal use, the child table of a rule use.
        let mut slots = vec![UNSEEN; grammar.rule(root).body.len()];
        let mut accumulators: Vec<Accumulator> = Vec::new();
        // Recorded run lists, `(accumulator, run length)` pairs (at most one
        // per event), and the table being recorded with its first pair.
        let mut arena = Vec::with_capacity(timestamps_ns.len().min(RUN_CAP));
        let mut recording: Option<(usize, usize)> = None;
        // (table, body position, expansions still to run), outermost first;
        // a rule use is pushed at its body's end, entered like a repetition.
        let mut stack = vec![(0usize, 0usize, 0u32)];
        let mut next = 0usize;
        'walk: while let Some(&(t, pos, again)) = stack.last() {
            if let Some((r, start)) = recording.filter(|&(_, s)| arena.len() - s > RUN_CAP) {
                arena.truncate(start);
                tables[r].runs = Runs::Walked;
                recording = None;
            }
            let top = stack.len() - 1;
            let (rule, base) = (tables[t].rule, tables[t].base);
            let Some(u) = grammar.rule(rule).body.get(pos) else {
                if let Some((_, start)) = recording.filter(|&(r, _)| r == t) {
                    tables[t].runs = Runs::Recorded(start, arena.len());
                    recording = None;
                }
                if let Runs::Recorded(start, end) = tables[t].runs {
                    for _ in 0..again {
                        for &(a, k) in &arena[start..end] {
                            let Some(run) = run_of(timestamps_ns, next, k) else {
                                break 'walk;
                            };
                            accumulators[a as usize].credit(run);
                            next += k as usize;
                        }
                        if recording.is_some_and(|(_, s)| arena.len() - s <= RUN_CAP) {
                            arena.extend_from_within(start..end);
                        }
                    }
                } else if again > 0 {
                    if recording.is_none() && next > 0 && tables[t].runs == Runs::Unrecorded {
                        recording = Some((t, arena.len()));
                    }
                    stack[top] = (t, 0, again - 1);
                    continue;
                }
                stack.pop();
                if let Some(parent) = stack.last_mut() {
                    parent.1 += 1;
                }
                continue;
            };
            let depth = stack.len().min(Self::MAX_DEPTH);
            match u.symbol {
                Symbol::Rule(child) => {
                    if slots[base + pos] == UNSEEN {
                        let mut frames = [(rule, pos); Self::MAX_DEPTH - 1];
                        frames[1..].copy_from_slice(&tables[t].ancestors[..Self::MAX_DEPTH - 2]);
                        let below = (depth + 1).min(Self::MAX_DEPTH);
                        let id = *table_of.entry((child, below, frames)).or_insert_with(|| {
                            tables.push(Table {
                                rule: child,
                                ancestors: frames,
                                base: slots.len(),
                                runs: Runs::Unrecorded,
                            });
                            slots.resize(slots.len() + grammar.rule(child).body.len(), UNSEEN);
                            tables.len() - 1
                        });
                        slots[base + pos] = id as u32;
                    }
                    let end = grammar.rule(child).body.len();
                    stack.push((slots[base + pos] as usize, end, u.count));
                }
                Symbol::Terminal(event) => {
                    let Some(run) = run_of(timestamps_ns, next, u.count) else {
                        break;
                    };
                    if run.len() > 1 {
                        let slot = &mut slots[base + pos];
                        if *slot == UNSEEN {
                            let mut frames = [(rule, pos); Self::MAX_DEPTH];
                            frames[1..].copy_from_slice(&tables[t].ancestors);
                            let mut buckets = [0; Self::MAX_DEPTH + 1];
                            for (d, b) in buckets.iter_mut().enumerate().take(depth + 1) {
                                *b = model.bucket(Self::context_key(event, &frames[..depth], d));
                            }
                            *slot = accumulators.len() as u32;
                            accumulators.push(Accumulator {
                                buckets,
                                depth,
                                sum_ns: 0,
                                count: 0,
                            });
                        }
                        accumulators[*slot as usize].credit(run);
                        if recording.is_some() {
                            arena.push((*slot, u.count));
                        }
                    }
                    next += u.count as usize;
                    stack[top].1 += 1;
                }
            }
        }
        debug_assert_eq!(
            next,
            timestamps_ns.len(),
            "timestamp count does not match trace length"
        );
        for acc in &accumulators {
            for &b in &acc.buckets[..=acc.depth] {
                model.credit(b, acc.sum_ns, acc.count);
            }
        }
        model
    }
}

/// The timestamps of the run of `k` events from event `next`, led by the
/// one before it (event 0 has none); `None` once they ran out.
fn run_of(ts: &[u64], next: usize, k: u32) -> Option<&[u64]> {
    debug_assert!(next < ts.len(), "more events than timestamps");
    let end = (next + k as usize).min(ts.len());
    (next < ts.len()).then(|| &ts[next.max(1) - 1..end])
}

/// Most runs one table expansion may record; a longer one is always walked.
const RUN_CAP: usize = 4096;

/// Replay scratch of [`TimingModel::build`]: one rule under its three
/// nearest ancestor frames (innermost first; fewer near the root, the rest
/// padding) — everything a context key of its terminals can see.
struct Table {
    rule: RuleId,
    ancestors: [ContextFrame; TimingModel::MAX_DEPTH - 1],
    /// First of this table's `body.len()` slots.
    base: usize,
    runs: Runs,
}

/// A [`Table`]'s run list: none yet, the arena range `start..end`, or none
/// ever (an expansion outgrew [`RUN_CAP`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Runs {
    Unrecorded,
    Recorded(usize, usize),
    Walked,
}

/// Durations observed at one terminal position of one [`Table`], i.e. in
/// one full context, and the bucket of each of its depths `0..=depth`.
struct Accumulator {
    buckets: [usize; TimingModel::MAX_DEPTH + 1],
    depth: usize,
    sum_ns: u64,
    count: u64,
}

impl Accumulator {
    /// Adds each delta of `run` (from [`run_of`]) on its own: the step the
    /// walk and the replay share.
    fn credit(&mut self, run: &[u64]) {
        if let [before, at] = *run {
            self.sum_ns = self.sum_ns.saturating_add(at.saturating_sub(before));
        } else {
            for w in run.windows(2) {
                self.sum_ns = self.sum_ns.saturating_add(w[1].saturating_sub(w[0]));
            }
        }
        self.count += run.len() as u64 - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::builder::GrammarBuilder;
    use crate::grammar::{Rule, SymbolUse};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// A grammar given as rule bodies (rule 0 is the root); `Err(r)` is a use
    /// of rule `r`, `Ok(t)` one of terminal `t`.
    fn grammar_from(bodies: &[&[(std::result::Result<u32, u32>, u32)]]) -> Grammar {
        let rules = bodies.iter().map(|body| {
            let body = body.iter().map(|&(symbol, count)| {
                let symbol = match symbol {
                    Ok(t) => Symbol::Terminal(e(t)),
                    Err(r) => Symbol::Rule(RuleId(r)),
                };
                SymbolUse::new(symbol, count)
            });
            Some(Rule {
                body: body.collect(),
                refcount: 0,
            })
        });
        Grammar {
            rules: rules.collect(),
            root: RuleId(0),
        }
    }

    /// The definition [`TimingModel::build`] must equal, entry for entry:
    /// one `observe` per event but the first, under that occurrence's
    /// context.
    fn reference(g: &Grammar, ts: &[u64]) -> TimingModel {
        let mut model = TimingModel::new();
        let mut unfold = g.unfold_iter();
        let mut frames = Vec::new();
        for i in 0.. {
            unfold.context_frames(&mut frames);
            let Some(event) = unfold.next() else { break };
            if i > 0 {
                model.observe(event, &frames, ts[i].saturating_sub(ts[i - 1]));
            }
        }
        model
    }

    /// Builds the model and checks it against [`reference`], in order.
    fn checked_build(g: &Grammar, ts: &[u64]) -> TimingModel {
        let model = TimingModel::build(g, ts);
        assert_eq!(model.entries(), reference(g, ts).entries());
        model
    }

    #[test]
    fn replay_matches_unfold() {
        let seq = [0u32, 1, 1, 2, 1, 2, 0, 1, 0, 1, 1, 2];
        let g = grammar_of(&seq);
        let mut unfold = g.unfold_iter();
        let mut frames = Vec::new();
        let mut got = Vec::new();
        loop {
            unfold.context_frames(&mut frames);
            let Some(ev) = unfold.next() else { break };
            // Innermost frame must point at the terminal itself, the
            // outermost into the root.
            let (r, p) = frames[0];
            assert_eq!(g.rule(r).body[p].symbol, Symbol::Terminal(ev));
            assert_eq!(frames.last().unwrap().0, g.root());
            got.push(ev.0);
        }
        assert!(frames.is_empty());
        assert_eq!(got, seq);
    }

    #[test]
    fn replay_empty_grammar() {
        let g = Grammar::new();
        let mut unfold = g.unfold_iter();
        let mut frames = vec![(RuleId(9), 9)];
        unfold.context_frames(&mut frames);
        assert!(frames.is_empty());
        assert!(unfold.next().is_none());
        assert!(checked_build(&g, &[]).is_empty());
    }

    #[test]
    fn single_event_is_never_observed() {
        assert!(checked_build(&grammar_of(&[0]), &[5]).is_empty());
    }

    #[test]
    fn trace_starting_inside_a_run_skips_only_its_first_occurrence() {
        // a^5 b: the first `a` has no predecessor; the other four share
        // one context.
        let g = grammar_of(&[0, 0, 0, 0, 0, 1]);
        assert_eq!(g.rule(g.root()).body.len(), 2);
        let model = checked_build(&g, &[0, 1, 3, 6, 10, 15]);
        let key = |ev, depth| TimingModel::context_key(e(ev), &[(g.root(), ev as usize)], depth);
        let entry = |key, sum_ns, count| TimingEntry { key, sum_ns, count };
        assert_eq!(
            model.entries(),
            [
                entry(key(0, 0), 10, 4),
                entry(key(0, 1), 10, 4),
                entry(key(1, 0), 5, 1),
                entry(key(1, 1), 5, 1),
            ]
        );
    }

    #[test]
    fn nesting_beyond_max_depth_keys_the_innermost_frames_only() {
        // Six levels: R0 -> R1^2, R1 -> R2^2 e1, ... R5 -> e5 e6.
        let g = grammar_from(&[
            &[(Err(1), 2)],
            &[(Err(2), 2), (Ok(1), 1)],
            &[(Err(3), 2), (Ok(2), 1)],
            &[(Err(4), 2), (Ok(3), 1)],
            &[(Err(5), 2), (Ok(4), 1)],
            &[(Ok(5), 1), (Ok(6), 3)],
        ]);
        let ts: Vec<u64> = (0..g.trace_len()).map(|i| i * i).collect();
        let model = checked_build(&g, &ts);
        // One bucket per depth 0..=4 for the innermost terminals, although
        // their paths hold six frames; e1 sits two frames deep.
        let buckets_of = |ev: u32, frames: &[ContextFrame]| {
            (0..=frames.len())
                .filter(|&d| model.mean_ns_at_depth(e(ev), frames, d).is_some())
                .count()
        };
        let path = |rule: u32, pos| {
            let mut frames = vec![(RuleId(rule), pos)];
            frames.extend((0..rule).rev().map(|r| (RuleId(r), 0)));
            frames
        };
        assert_eq!(buckets_of(6, &path(5, 1)), 5);
        assert_eq!(buckets_of(1, &path(1, 1)), 3);
        assert_eq!(model.len(), 2 * 5 + 5 + 5 + 4 + 3);
    }

    #[test]
    fn rule_under_two_parents_shares_shallow_buckets_only() {
        // The paper's "Ab" against "BAb": R3 -> a b is used by R1 and by
        // R2; reaching b costs 10 under R1 and 1000 under R2.
        let g = grammar_from(&[
            &[(Err(1), 1), (Err(2), 1), (Err(1), 1), (Err(2), 1)],
            &[(Ok(7), 1), (Err(3), 1)],
            &[(Ok(8), 1), (Err(3), 1)],
            &[(Ok(0), 1), (Ok(1), 1)],
        ]);
        let deltas = [0, 5, 10, 5, 5, 1000, 5, 5, 10, 5, 5, 1000];
        let ts: Vec<u64> = deltas
            .iter()
            .scan(0, |t, d| {
                *t += d;
                Some(*t)
            })
            .collect();
        let model = checked_build(&g, &ts);
        let under = |parent| [(RuleId(3), 1), (RuleId(parent), 1)];
        assert_eq!(model.mean_ns_at_depth(e(1), &under(1), 1), Some(505.0));
        assert_eq!(model.mean_ns_at_depth(e(1), &under(2), 1), Some(505.0));
        assert_eq!(model.mean_ns_at_depth(e(1), &under(1), 2), Some(10.0));
        assert_eq!(model.mean_ns_at_depth(e(1), &under(2), 2), Some(1000.0));
    }

    #[test]
    fn backward_timestamp_saturates_its_own_delta() {
        // Deltas 10, 0 (not -15), 10: a run is not `last - first`.
        let model = checked_build(&grammar_of(&[0, 0, 0, 0]), &[10, 20, 5, 15]);
        assert_eq!(model.entries()[0].sum_ns, 20);
        assert_eq!(model.entries()[0].count, 3);
    }

    #[test]
    fn delta_sums_saturate() {
        // a^3 b a^2: within the first run, and again where both runs
        // meet in the context-free bucket of `a`.
        let g = grammar_of(&[0, 0, 0, 1, 0, 0]);
        assert_eq!(g.rule(g.root()).body.len(), 3);
        let model = checked_build(&g, &[0, u64::MAX, 0, u64::MAX, 0, u64::MAX]);
        let a = model.entries()[0];
        assert_eq!((a.sum_ns, a.count), (u64::MAX, 4));
        let second_run = model.entries().last().unwrap();
        assert_eq!((second_run.sum_ns, second_run.count), (u64::MAX, 2));
    }

    /// One loop body of a synthetic application: one to four items, each a
    /// terminal or (below `level`) a deeper body, each repeated up to five
    /// times; stops growing past `cap` events.
    fn loop_body(rng: &mut SmallRng, alphabet: u64, level: u32, cap: usize) -> Vec<u32> {
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(1..5) {
            let item = if level == 0 || rng.gen_bool(0.4) {
                vec![rng.gen_range(0..alphabet) as u32]
            } else {
                loop_body(rng, alphabet, level - 1, cap)
            };
            for _ in 0..rng.gen_range(1..6) {
                if out.len() < cap {
                    out.extend(&item);
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The grammar-position replay equals the per-event definition as
        /// an *ordered* entry vector — the order is the wire format's.
        #[test]
        fn build_equals_per_event_definition_in_order(
            seed in 0u64..u64::MAX,
            alphabet in 1u64..9,
            len in 1usize..4_001,
            noise_percent in 0u32..8,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut seq = Vec::new();
            while seq.len() < len {
                seq.extend(loop_body(&mut rng, alphabet, 6, len));
            }
            seq.truncate(len);
            for s in &mut seq {
                if rng.gen_bool(noise_percent as f64 / 100.0) {
                    *s = rng.gen_range(0..alphabet) as u32;
                }
            }
            // Mostly forward, sometimes backward (saturating at 0), now and
            // then a jump near `u64::MAX` and a drop back, so that deltas
            // also saturate inside loops.
            let mut t = 0u64;
            let ts: Vec<u64> = seq
                .iter()
                .map(|_| {
                    t = match rng.gen_range(0..64) {
                        0 => u64::MAX - rng.gen_range(0..1_000),
                        1 => rng.gen_range(0..1_000),
                        2..=5 => t.saturating_sub(rng.gen_range(0..2_000)),
                        _ => t.saturating_add(rng.gen_range(0..3) * rng.gen_range(0..1_000)),
                    };
                    t
                })
                .collect();
            let g = grammar_of(&seq);
            prop_assert_eq!(g.unfold(), seq.iter().map(|&s| e(s)).collect::<Vec<_>>());
            let built = TimingModel::build(&g, &ts);
            let expected = reference(&g, &ts);
            prop_assert_eq!(built.entries(), expected.entries());
        }
    }

    #[test]
    fn build_model_records_all_depths() {
        // a b a b a b with 100ns per step.
        let seq = [0u32, 1, 0, 1, 0, 1];
        let g = grammar_of(&seq);
        let ts: Vec<u64> = (0..seq.len() as u64).map(|i| i * 100).collect();
        let model = TimingModel::build(&g, &ts);
        assert!(!model.is_empty());
        // Depth-0 (context-free) query for event b.
        let mean = model.mean_ns(e(1), &[]).unwrap();
        assert!((mean - 100.0).abs() < 1e-9, "{mean}");
    }

    #[test]
    fn context_distinguishes_durations() {
        // Trace: (a b)^4 where the b after the *first* a in each pair is
        // instant but... simpler: a b c a b d: the a->b delta differs
        // depending on what follows; a context-free mean averages them.
        let seq = [0u32, 1, 2, 0, 1, 3, 0, 1, 2, 0, 1, 3];
        let g = grammar_of(&seq);
        // deltas: b after a costs 10 when c follows, 1000 when d follows.
        let mut ts = Vec::new();
        let mut t = 0u64;
        ts.push(t);
        for i in 1..seq.len() {
            let prev = seq[i - 1];
            let cur = seq[i];
            let delta = if cur == 1 {
                // cost of reaching b depends on which block we are in
                if seq[(i + 1) % seq.len()] == 2 {
                    10
                } else {
                    1000
                }
            } else {
                let _ = prev;
                50
            };
            t += delta;
            ts.push(t);
        }
        let model = TimingModel::build(&g, &ts);
        // The context-free mean for b is between the two extremes.
        let mean0 = model.mean_ns(e(1), &[]).unwrap();
        assert!(mean0 > 10.0 && mean0 < 1000.0);
    }

    #[test]
    fn mean_falls_back_to_shallower_depth() {
        let seq = [0u32, 1, 0, 1];
        let g = grammar_of(&seq);
        let ts = vec![0, 5, 10, 15];
        let model = TimingModel::build(&g, &ts);
        // Query with a bogus deep context: falls back to depth 0.
        let bogus = [(RuleId(7), 3), (RuleId(8), 1)];
        let mean = model.mean_ns(e(1), &bogus).unwrap();
        assert!(mean > 0.0);
        assert_eq!(model.mean_ns_at_depth(e(1), &bogus, 2), None);
    }

    #[test]
    fn unknown_event_has_no_mean() {
        let seq = [0u32, 1];
        let g = grammar_of(&seq);
        let model = TimingModel::build(&g, &[0, 10]);
        assert_eq!(model.mean_ns(e(99), &[]), None);
    }

    #[test]
    fn entries_roundtrip() {
        let seq = [0u32, 1, 0, 1, 0, 1];
        let g = grammar_of(&seq);
        let ts: Vec<u64> = (0..6u64).map(|i| i * 7).collect();
        let model = TimingModel::build(&g, &ts);
        let rebuilt = TimingModel::from_entries(model.entries().to_vec());
        assert_eq!(model.mean_ns(e(1), &[]), rebuilt.mean_ns(e(1), &[]));
    }

    #[test]
    fn no_timestamps_no_model() {
        let g = grammar_of(&[0, 1, 0, 1]);
        let model = TimingModel::build(&g, &[]);
        assert!(model.is_empty());
    }
}
