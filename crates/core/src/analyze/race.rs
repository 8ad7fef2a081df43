//! Happens-before race detection on compressed traces.
//!
//! The sync model is the one the recorded applications actually use:
//! collectives order everything. An event's **epoch** on a rank is the
//! number of collective calls the rank completed before it; two memory
//! accesses to the same object on different ranks are *ordered* iff their
//! epochs differ (the later one is separated from the earlier by at least
//! one collective barrier on both ranks), and **race** iff they share an
//! epoch and at least one of them writes. This is the barrier-interval
//! happens-before of Kini–Mathur–Viswanathan specialized to the
//! collective-synchronized programs PYTHIA records — and unlike full
//! vector-clock HB it admits an *exact* per-rule summary:
//!
//! * The set of epochs at which a rank touches an object is folded into a
//!   union of **arithmetic progressions** ([`Ap`]): a rule body repeated
//!   `k` times shifts each child progression by the body's collective
//!   count per iteration, which composes in closed form (one progression
//!   per child site, not `k`), so a loop of a billion iterations costs the
//!   same as a loop of two. Composition is O(sites), never O(iterations) —
//!   the repetition analogue of [`super::protocol::SeqSummary::repeat`]'s
//!   exponentiation-by-squaring, taken to its limit: the whole power in
//!   one closed-form step.
//! * Each progression also carries the *event index* of the access at each
//!   epoch (itself an arithmetic progression — iteration `j` of a rule
//!   adds `j · expanded_len` to every index), so diagnostics point at the
//!   first offending iteration exactly, not at iteration 0 of the loop.
//! * Two ranks race on an object iff their progressions intersect; the
//!   intersection of two APs is computed with the extended Euclidean
//!   algorithm (CRT), so the verdict is O(progressions²) per object pair,
//!   independent of trace length.
//!
//! [`summary_from_events`] computes the same summary from an expanded
//! stream; `tests/analyze_consistency.rs` proves both agree on random
//! sessions, which is the proof obligation that the compressed sweep never
//! changes a verdict.
//!
//! Accesses are recognized by [`super::protocol::classify`]: events named
//! `load`/`read` (reads) and `store`/`write`/`update` (writes) whose
//! payload is the object identity.

use std::collections::{BTreeMap, BTreeSet};

use crate::event::EventId;
use crate::grammar::{Grammar, Loc, Summary};

use super::protocol::{ClassTable, EventClass};
use super::{Diagnostic, Pass, Severity};

/// One arithmetic progression of epochs at which a rank touches an object,
/// with the event index of the access at each epoch (also a progression).
///
/// Canonical form: `count >= 1`; both strides are `0` iff `count == 1`.
/// For `count > 1` the epoch stride is positive and, because epochs and
/// event indexes both increase along a rank's stream, so is the index
/// stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ap {
    /// First epoch of the progression.
    pub epoch: u64,
    /// Epoch step between consecutive members (`0` iff `count == 1`).
    pub epoch_stride: u64,
    /// Number of members.
    pub count: u64,
    /// Event index of the access at `epoch`.
    pub index: u64,
    /// Index step between consecutive members (`0` iff `count == 1`).
    pub index_stride: u64,
    /// Grammar anchor `(rule, pos)` of the access site, when the summary
    /// came from a grammar (event-stream summaries carry `None`).
    pub site: Option<(u32, usize)>,
}

impl Ap {
    fn singleton(epoch: u64, index: u64, site: Option<(u32, usize)>) -> Self {
        Ap {
            epoch,
            epoch_stride: 0,
            count: 1,
            index,
            index_stride: 0,
            site,
        }
    }

    /// Last epoch of the progression.
    fn last_epoch(&self) -> u64 {
        self.epoch
            .saturating_add(self.epoch_stride.saturating_mul(self.count - 1))
    }

    /// Whether `e` is a member.
    fn contains(&self, e: u64) -> bool {
        if e < self.epoch {
            return false;
        }
        if self.count == 1 || self.epoch_stride == 0 {
            return e == self.epoch;
        }
        let d = e - self.epoch;
        d.is_multiple_of(self.epoch_stride) && d / self.epoch_stride < self.count
    }

    /// Event index of the member at epoch `e` (caller checks membership).
    fn index_at(&self, e: u64) -> u64 {
        if self.count == 1 || self.epoch_stride == 0 {
            return self.index;
        }
        let j = (e - self.epoch) / self.epoch_stride;
        self.index
            .saturating_add(j.saturating_mul(self.index_stride))
    }
}

/// A normalized union of [`Ap`]s: the exact set of (epoch, first event
/// index) pairs at which a rank touches one object one way (read or
/// write).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochSet {
    aps: Vec<Ap>,
}

impl EpochSet {
    /// The progressions (read-only; mainly for tests).
    pub fn aps(&self) -> &[Ap] {
        &self.aps
    }

    /// Appends one access, merging into the trailing progression when it
    /// continues it exactly (the streaming path of
    /// [`summary_from_events`]: consecutive loop iterations collapse into
    /// one progression as they arrive). Accesses must arrive in stream
    /// order (epochs non-decreasing, indexes increasing).
    pub fn push(&mut self, ap: Ap) {
        if let Some(last) = self.aps.last_mut() {
            if ap.count == 1 && try_join(last, &ap) {
                return;
            }
        }
        self.aps.push(ap);
    }

    /// Sorts and greedily re-merges after a batch of appends (the
    /// composition path: child progressions arrive out of epoch order).
    fn normalize(&mut self) {
        if self.aps.len() <= 1 {
            return;
        }
        self.aps.sort_by_key(|a| (a.epoch, a.index));
        let mut out: Vec<Ap> = Vec::with_capacity(self.aps.len());
        for ap in self.aps.drain(..) {
            let joined = match out.last_mut() {
                Some(last) => try_join(last, &ap),
                None => false,
            };
            if !joined {
                out.push(ap);
            }
        }
        self.aps = out;
    }

    /// All members as `(epoch, index)` with the minimum index per epoch —
    /// the ground-truth set the consistency tests compare. O(members):
    /// test-sized sets only.
    pub fn materialize(&self) -> Vec<(u64, u64)> {
        let mut by_epoch: BTreeMap<u64, u64> = BTreeMap::new();
        for ap in &self.aps {
            for j in 0..ap.count {
                let e = ap.epoch + j * ap.epoch_stride;
                let i = ap.index + j * ap.index_stride;
                by_epoch
                    .entry(e)
                    .and_modify(|v| *v = (*v).min(i))
                    .or_insert(i);
            }
        }
        by_epoch.into_iter().collect()
    }

    /// Minimum index over every progression containing epoch `e`, with the
    /// anchor of the progression that provides it.
    fn index_at(&self, e: u64) -> Option<(u64, Option<(u32, usize)>)> {
        self.aps
            .iter()
            .filter(|ap| ap.contains(e))
            .map(|ap| (ap.index_at(e), ap.site))
            .min_by_key(|&(i, _)| i)
    }
}

/// `base + stride·k`, or `None` on overflow (an overflowing candidate can
/// never equal a real epoch/index, so the caller just declines the merge).
fn ext(base: u64, stride: u64, k: u64) -> Option<u64> {
    stride.checked_mul(k).and_then(|d| base.checked_add(d))
}

/// Joins `b` into `a` when doing so provably preserves the denoted set
/// *and* the minimum index per epoch; inputs are ordered by
/// `(epoch, index)` with `a` first. Returns whether `b` was absorbed.
fn try_join(a: &mut Ap, b: &Ap) -> bool {
    if b.count != 1 {
        // AP ⧺ AP: same strides and b starts exactly one step past a's
        // last member.
        return a.count > 1
            && a.epoch_stride == b.epoch_stride
            && a.index_stride == b.index_stride
            && ext(a.epoch, a.epoch_stride, a.count) == Some(b.epoch)
            && ext(a.index, a.index_stride, a.count) == Some(b.index)
            && {
                a.count = a.count.saturating_add(b.count);
                true
            };
    }
    if a.count == 1 {
        if b.epoch == a.epoch {
            // Same epoch: b is redundant iff its index is not smaller.
            return b.index >= a.index;
        }
        if b.epoch > a.epoch && b.index > a.index {
            *a = Ap {
                epoch: a.epoch,
                epoch_stride: b.epoch - a.epoch,
                count: 2,
                index: a.index,
                index_stride: b.index - a.index,
                site: a.site,
            };
            return true;
        }
        return false;
    }
    // Singleton b against a striding a: absorb when covered with an index
    // no smaller than a's, or when it extends a by exactly one step.
    if a.contains(b.epoch) {
        return b.index >= a.index_at(b.epoch);
    }
    if ext(a.epoch, a.epoch_stride, a.count) == Some(b.epoch)
        && ext(a.index, a.index_stride, a.count) == Some(b.index)
    {
        a.count += 1;
        return true;
    }
    false
}

/// Replicates `aps` across `k` iterations of an enclosing loop that adds
/// `epoch_step` epochs and `index_step` events per iteration, in closed
/// form where the combined set is again a progression.
fn repeat(aps: &[Ap], k: u64, epoch_step: u64, index_step: u64) -> Vec<Ap> {
    if k <= 1 {
        return aps.to_vec();
    }
    if epoch_step == 0 {
        // No collective inside the loop: every iteration revisits the same
        // epochs, and iteration 0 has the smallest indexes.
        return aps.to_vec();
    }
    let mut out = Vec::with_capacity(aps.len());
    for a in aps {
        if a.count == 1 {
            out.push(Ap {
                epoch: a.epoch,
                epoch_stride: epoch_step,
                count: k,
                index: a.index,
                index_stride: index_step,
                site: a.site,
            });
        } else if epoch_step == a.epoch_stride.saturating_mul(a.count)
            && index_step == a.index_stride.saturating_mul(a.count)
        {
            // The loop continues exactly where the inner progression ends.
            out.push(Ap {
                count: a.count.saturating_mul(k),
                ..*a
            });
        } else if a.epoch_stride == epoch_step.saturating_mul(k)
            && a.index_stride == index_step.saturating_mul(k)
        {
            // The inner progression strides over whole loop nests.
            out.push(Ap {
                epoch_stride: epoch_step,
                index_stride: index_step,
                count: a.count.saturating_mul(k),
                ..*a
            });
        } else if a.count <= k {
            for j in 0..a.count {
                out.push(Ap {
                    epoch: a.epoch + j * a.epoch_stride,
                    epoch_stride: epoch_step,
                    count: k,
                    index: a.index + j * a.index_stride,
                    index_stride: index_step,
                    site: a.site,
                });
            }
        } else {
            for j in 0..k {
                out.push(Ap {
                    epoch: a.epoch.saturating_add(j.saturating_mul(epoch_step)),
                    index: a.index.saturating_add(j.saturating_mul(index_step)),
                    ..*a
                });
            }
        }
    }
    out
}

/// The race-relevant summary of one rank's event sequence: per-object
/// epoch sets for reads and writes, plus the totals a parent rule needs to
/// place this summary inside its own frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RaceSummary {
    /// Total collective calls (the epoch count of the segment).
    pub collectives: u64,
    /// Total events (the expanded length of the segment).
    pub events: u64,
    /// Epochs at which each object is read.
    pub reads: BTreeMap<i64, EpochSet>,
    /// Epochs at which each object is written.
    pub writes: BTreeMap<i64, EpochSet>,
}

impl Summary for RaceSummary {
    type Context = ClassTable;

    fn leaf(&mut self, classes: &ClassTable, e: EventId, count: u32, at: Loc) {
        self.record(classes.class(e), count as u64, Some((at.rule.0, at.pos)));
    }

    /// `self`'s current totals are the frame offset.
    fn append_scaled(&mut self, other: &RaceSummary, k: u64) {
        for (maps, other_map) in [
            (&mut self.reads, &other.reads),
            (&mut self.writes, &other.writes),
        ] {
            for (&obj, set) in other_map {
                let dst = maps.entry(obj).or_default();
                for ap in repeat(&set.aps, k, other.collectives, other.events) {
                    dst.aps.push(Ap {
                        epoch: ap.epoch.saturating_add(self.collectives),
                        index: ap.index.saturating_add(self.events),
                        ..ap
                    });
                }
            }
        }
        self.collectives = self
            .collectives
            .saturating_add(other.collectives.saturating_mul(k));
        self.events = self.events.saturating_add(other.events.saturating_mul(k));
    }

    fn close(&mut self) {
        for set in self.reads.values_mut().chain(self.writes.values_mut()) {
            set.normalize();
        }
    }
}

impl RaceSummary {
    /// Appends `count` consecutive events of one class. All repetitions
    /// of an access share the epoch and the first has the smallest index,
    /// so one singleton captures the set exactly.
    fn record(&mut self, class: EventClass, count: u64, site: Option<(u32, usize)>) {
        match class {
            EventClass::Access { object, write } => {
                let map = if write {
                    &mut self.writes
                } else {
                    &mut self.reads
                };
                map.entry(object).or_default().push(Ap::singleton(
                    self.collectives,
                    self.events,
                    site,
                ));
            }
            EventClass::Collective { .. } => {
                self.collectives = self.collectives.saturating_add(count)
            }
            _ => {}
        }
        self.events = self.events.saturating_add(count);
    }
}

/// Race summary of an expanded event stream — the ground truth the
/// compressed sweep must agree with (used by the consistency tests and the
/// bench baseline).
pub fn summary_from_events(
    events: impl IntoIterator<Item = EventId>,
    classes: &ClassTable,
) -> RaceSummary {
    let mut s = RaceSummary::default();
    for e in events {
        s.record(classes.class(e), 1, None);
    }
    s
}

/// Race summary of a grammar, computed bottom-up in O(|grammar| · sites)
/// without expanding the trace. The grammar must be a structurally sound
/// DAG (run the linter first).
pub fn summary_from_grammar(g: &Grammar, classes: &ClassTable) -> RaceSummary {
    let mut rules: Vec<RaceSummary> = g.fold(classes);
    std::mem::take(&mut rules[g.root().index()])
}

/// Smallest epoch two progressions share, via CRT (extended Euclid) when
/// both actually stride.
fn ap_first_common(a: &Ap, b: &Ap) -> Option<u64> {
    if a.count == 1 {
        return b.contains(a.epoch).then_some(a.epoch);
    }
    if b.count == 1 {
        return a.contains(b.epoch).then_some(b.epoch);
    }
    let lo = a.epoch.max(b.epoch);
    let hi = a.last_epoch().min(b.last_epoch());
    if lo > hi {
        return None;
    }
    let (s1, s2) = (a.epoch_stride as i128, b.epoch_stride as i128);
    let (b1, b2) = (a.epoch as i128, b.epoch as i128);
    let (g, p, _) = ext_gcd(s1, s2);
    if (b2 - b1) % g != 0 {
        return None;
    }
    let m = s2 / g; // solutions are b1 + s1·t with period m in t
    let t = ((b2 - b1) / g % m * (p % m)) % m;
    let t = (t % m + m) % m;
    let mut e = b1 + s1 * t;
    let l = s1 * m; // lcm of the strides
    let lo = lo as i128;
    if e < lo {
        e += (lo - e + l - 1) / l * l;
    }
    (e <= hi as i128).then_some(e as u64)
}

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`.
fn ext_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = ext_gcd(b, a % b);
        (g, y, x - a / b * y)
    }
}

/// Smallest epoch the two sets share.
fn first_common(a: &EpochSet, b: &EpochSet) -> Option<u64> {
    let mut best: Option<u64> = None;
    for x in &a.aps {
        for y in &b.aps {
            if let Some(e) = ap_first_common(x, y) {
                best = Some(best.map_or(e, |v| v.min(e)));
            }
        }
    }
    best
}

/// Checks every rank pair's summaries against each other and reports one
/// `data-race` diagnostic per conflicting (object, rank pair). Pure over
/// the summaries, so verdicts computed in the compressed and expanded
/// domains coincide iff the summaries denote the same sets.
pub fn detect(summaries: &[RaceSummary]) -> Vec<Diagnostic> {
    let mut objects: BTreeSet<i64> = BTreeSet::new();
    for s in summaries {
        objects.extend(s.reads.keys().copied());
        objects.extend(s.writes.keys().copied());
    }
    let empty = EpochSet::default();
    let mut diags = Vec::new();
    for &obj in &objects {
        for a in 0..summaries.len() {
            for b in a + 1..summaries.len() {
                let wa = summaries[a].writes.get(&obj).unwrap_or(&empty);
                let wb = summaries[b].writes.get(&obj).unwrap_or(&empty);
                let ra = summaries[a].reads.get(&obj).unwrap_or(&empty);
                let rb = summaries[b].reads.get(&obj).unwrap_or(&empty);
                // Earliest conflicting epoch across the three conflict
                // kinds; ties resolve write-write first (determinism).
                let candidates = [
                    (first_common(wa, wb), "write-write", wa, wb),
                    (first_common(wa, rb), "write-read", wa, rb),
                    (first_common(ra, wb), "read-write", ra, wb),
                ];
                let hit = candidates
                    .iter()
                    .filter_map(|(e, kind, sa, sb)| e.map(|e| (e, *kind, *sa, *sb)))
                    .min_by_key(|&(e, ..)| e);
                let Some((epoch, kind, sa, sb)) = hit else {
                    continue;
                };
                let (ia, site_a) = sa.index_at(epoch).unwrap_or((0, None));
                let (ib, _) = sb.index_at(epoch).unwrap_or((0, None));
                let mut d = Diagnostic::new(
                    Severity::Error,
                    Pass::Race,
                    "data-race",
                    format!(
                        "{kind} race on object {obj:#x}: rank {a} (event ~{ia}) and rank {b} \
                         (event ~{ib}) both touch it in barrier epoch {epoch} with no \
                         ordering between them"
                    ),
                )
                .on_thread(a)
                .near_event(ia);
                if let Some((rule, pos)) = site_a {
                    d = d.at(rule, pos);
                }
                diags.push(d);
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventRegistry;
    use crate::grammar::builder::GrammarBuilder;

    fn setup() -> (EventRegistry, ClassTable) {
        let mut reg = EventRegistry::new();
        reg.intern("MPI_Barrier", None);
        reg.intern("store", Some(1));
        reg.intern("load", Some(1));
        reg.intern("compute", None);
        let classes = ClassTable::from_registry(&reg);
        (reg, classes)
    }

    fn grammar_of(events: &[crate::event::EventId]) -> Grammar {
        let mut b = GrammarBuilder::new();
        for &e in events {
            b.push(e);
        }
        b.into_grammar().compact()
    }

    #[test]
    fn epoch_set_collapses_loop_iterations() {
        let (mut reg, _) = setup();
        let bar = reg.intern("MPI_Barrier", None);
        let st = reg.intern("store", Some(1));
        let classes = ClassTable::from_registry(&reg);
        let mut events = Vec::new();
        for _ in 0..64 {
            events.extend([st, bar]);
        }
        let g = grammar_of(&events);
        let s = summary_from_grammar(&g, &classes);
        let w = &s.writes[&1];
        assert!(
            w.aps().len() <= 3,
            "64 loop iterations must stay a handful of progressions, got {:?}",
            w.aps()
        );
        assert_eq!(
            w.materialize(),
            (0..64).map(|j| (j, 2 * j)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn grammar_summary_matches_event_summary() {
        let (mut reg, _) = setup();
        let bar = reg.intern("MPI_Barrier", None);
        let st = reg.intern("store", Some(1));
        let ld = reg.intern("load", Some(2));
        let cp = reg.intern("compute", None);
        let classes = ClassTable::from_registry(&reg);
        let mut events = vec![cp, st];
        for _ in 0..17 {
            events.extend([st, cp, bar, ld, ld, bar]);
        }
        events.extend([bar, st]);
        let g = grammar_of(&events);
        assert!(g.rule_count() > 1);
        let cs = summary_from_grammar(&g, &classes);
        let es = summary_from_events(events, &classes);
        assert_eq!(cs.collectives, es.collectives);
        assert_eq!(cs.events, es.events);
        for (obj, set) in &es.writes {
            assert_eq!(cs.writes[obj].materialize(), set.materialize(), "w{obj}");
        }
        for (obj, set) in &es.reads {
            assert_eq!(cs.reads[obj].materialize(), set.materialize(), "r{obj}");
        }
    }

    #[test]
    fn same_epoch_write_write_races() {
        let (mut reg, _) = setup();
        let bar = reg.intern("MPI_Barrier", None);
        let st = reg.intern("store", Some(7));
        let classes = ClassTable::from_registry(&reg);
        let s0 = summary_from_events([bar, st, bar], &classes);
        let s1 = summary_from_events([bar, st, bar], &classes);
        let diags = detect(&[s0, s1]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, "data-race");
        assert!(diags[0].message.contains("write-write"), "{diags:?}");
        assert!(diags[0].message.contains("epoch 1"), "{diags:?}");
    }

    #[test]
    fn barrier_separated_accesses_do_not_race() {
        let (mut reg, _) = setup();
        let bar = reg.intern("MPI_Barrier", None);
        let st = reg.intern("store", Some(7));
        let classes = ClassTable::from_registry(&reg);
        let s0 = summary_from_events([st, bar, bar], &classes);
        let s1 = summary_from_events([bar, st, bar], &classes);
        assert!(detect(&[s0, s1]).is_empty());
    }

    #[test]
    fn read_read_does_not_race() {
        let (mut reg, _) = setup();
        let ld = reg.intern("load", Some(7));
        let classes = ClassTable::from_registry(&reg);
        let s0 = summary_from_events([ld], &classes);
        let s1 = summary_from_events([ld], &classes);
        assert!(detect(&[s0, s1]).is_empty());
    }

    #[test]
    fn first_common_epoch_is_exact_under_exponents() {
        // Rank 0 writes every epoch 0..10; rank 1 only from epoch 5 on.
        // The first conflict must be epoch 5 and point at iteration 5 on
        // rank 0 (event index 10), not iteration 0.
        let (mut reg, _) = setup();
        let bar = reg.intern("MPI_Barrier", None);
        let st = reg.intern("store", Some(1));
        let classes = ClassTable::from_registry(&reg);
        let mut e0 = Vec::new();
        for _ in 0..10 {
            e0.extend([st, bar]);
        }
        let mut e1 = Vec::new();
        for _ in 0..5 {
            e1.push(bar);
        }
        for _ in 0..5 {
            e1.extend([st, bar]);
        }
        let g0 = grammar_of(&e0);
        let g1 = grammar_of(&e1);
        let diags = detect(&[
            summary_from_grammar(&g0, &classes),
            summary_from_grammar(&g1, &classes),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("epoch 5"), "{diags:?}");
        assert_eq!(diags[0].event_index, Some(10), "{diags:?}");
    }

    #[test]
    fn ap_intersection_uses_crt() {
        // Strides 6 and 10 from offsets 1 and 3: members 1,7,13,… and
        // 3,13,23,… share 13 first.
        let a = Ap {
            epoch: 1,
            epoch_stride: 6,
            count: 100,
            index: 0,
            index_stride: 1,
            site: None,
        };
        let b = Ap {
            epoch: 3,
            epoch_stride: 10,
            count: 100,
            index: 0,
            index_stride: 1,
            site: None,
        };
        assert_eq!(ap_first_common(&a, &b), Some(13));
        // Offsets with no common residue: strides 4 and 6, offsets 0 / 1.
        let c = Ap {
            epoch: 0,
            epoch_stride: 4,
            count: 100,
            ..a
        };
        let d = Ap {
            epoch: 1,
            epoch_stride: 6,
            count: 100,
            ..a
        };
        assert_eq!(ap_first_common(&c, &d), None);
    }

    #[test]
    fn repeat_collapses_doubling() {
        // One site at epoch 0 repeated 1<<20 times with 1 collective per
        // iteration: exactly one progression, no expansion.
        let aps = vec![Ap::singleton(0, 0, None)];
        let r = repeat(&aps, 1 << 20, 1, 3);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].count, 1 << 20);
        assert_eq!(r[0].epoch_stride, 1);
        assert_eq!(r[0].index_stride, 3);
    }
}
