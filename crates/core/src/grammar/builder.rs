//! On-the-fly reduction of an event stream into the trace grammar
//! (PYTHIA-RECORD's core algorithm, paper §II-A and Fig. 3).
//!
//! The algorithm is derived from Sequitur (Nevill-Manning & Witten) extended
//! with consecutive-repetition exponents (as in Cyclitur): every use of a
//! symbol carries a repetition count, and *digrams* — ordered pairs of
//! distinct adjacent symbols — must be unique across the grammar. When a
//! digram appears twice, the shared part `a^k b^m` (with `k`/`m` the minimum
//! exponents of the two occurrences) is factored into a rule, reusing an
//! existing rule whose body is exactly that digram when possible. Rules
//! whose weighted use count drops below two are inlined back (rule utility).
//!
//! ### Implementation notes
//!
//! Rule bodies are flat `Vec<SymbolUse>`s rather than the linked lists of
//! classic Sequitur; bodies stay short once the trace compresses, and the
//! root is only mutated near its tail in the common case. The digram index
//! is a [`DigramTable`] — open addressing over a flat slot array keyed by
//! the exact packed symbol pair, probed linearly from a multiplicative
//! hash, so the per-event lookup is a handful of arithmetic ops and one
//! cache line in the common hit case (no tuple hashing, no bucket
//! indirection). It maps a symbol pair to one location and is repaired
//! lazily: positions may go stale after a splice, so lookups re-validate
//! and rescan the recorded rule when needed. Structural repairs (digram
//! collisions → factoring, boundary merges, rule-utility inlining) are
//! driven by a work queue of *dirty windows* so that no recursive mutation
//! happens while a rule body is being scanned.
//!
//! ### Loop acceleration
//!
//! Steady-state loops are the dominant workload (the paper's traces are
//! overwhelmingly `motif^n`), and the generic machinery pays a full
//! factor→substitute→inline churn cycle per motif repetition just to end
//! up bumping one repetition exponent. The builder therefore runs a *loop
//! cursor*: when the root ends in a rule use `A^k` and the next event
//! matches the first terminal of `A`'s expansion, incoming terminals are
//! appended to the root **raw** (unindexed, no digram work) while the
//! cursor walks `A`'s expansion in lockstep. If the whole expansion
//! matches, the raw tail is truncated and the use becomes `A^{k+1}` — a
//! handful of writes per motif instead of the churn cycle.
//!
//! On a mismatch the raw tail is *settled*: replayed use by use through
//! the digram machinery ([`GrammarBuilder::flush_accel`]). That yields a
//! valid grammar, though not always the one per-event processing builds
//! (a completed cycle bumps an exponent where the digram machine may
//! factor differently). The mismatching event is then offered to a new
//! cursor before the digram path:
//!
//! * **(a) at the next repetition** — if the settle completed one: the
//!   root's last use is the engaged rule or the use before it, with a
//!   grown exponent (`R3^14 R5 | x` settles into `R3^15`; `x` starts the
//!   next `R3`). Re-engaging after *every* mismatch would ride nested
//!   loops out of phase;
//! * **(b) at a phase offset** — else, if the root ends in `A^k B^j`,
//!   `A`'s body starts with `B^m`, `j ≤ m`, and the event continues `A`'s
//!   expansion after `j` repetitions of `B`: `B^j` is adopted as the head
//!   of the raw tail, leaving the digram index. A fold drops its weight
//!   from `B` and runs rule utility; a mismatch replays it like any other
//!   raw use.
//!
//! The grammar is **lossless at every instant** (the raw tail unfolds as
//! part of the root); only the digram index invariants are deferred while
//! a cursor is in flight. Checkpoints and snapshot publication therefore
//! settle a *copy* of the builder, never the live one: the grammar stays
//! a function of the event stream alone, wherever the stream is cut.

use std::collections::VecDeque;

use crate::event::EventId;
use crate::grammar::{Grammar, Loc, Rule, RuleId, Symbol, SymbolUse};

/// Packs a symbol into a collision-free 64-bit code: terminals keep their
/// event id, rules set bit 32 above their id. Both ids are `u32`, so codes
/// never collide and never reach `u64::MAX`.
#[inline]
fn sym_code(s: Symbol) -> u64 {
    match s {
        Symbol::Terminal(e) => e.0 as u64,
        Symbol::Rule(r) => (1u64 << 32) | r.0 as u64,
    }
}

/// Packs an ordered symbol pair into its exact 128-bit key.
#[inline]
fn digram_key(key: (Symbol, Symbol)) -> u128 {
    ((sym_code(key.0) as u128) << 64) | sym_code(key.1) as u128
}

/// Slot sentinel: unreachable as a real key because each packed half is
/// at most `2^33 - 1`.
const EMPTY: u128 = u128::MAX;

/// Open-addressing digram index: exact `u128` keys in one flat slot
/// array, linear probing, back-shift deletion (no tombstones). The hot
/// probe is branch-predictable arithmetic — multiply-mix, mask, compare —
/// instead of `FxHashMap`'s tuple hashing and bucket logic.
#[derive(Debug, Clone)]
struct DigramTable {
    /// Packed pair per slot, `EMPTY` when vacant. Power-of-two length.
    keys: Vec<u128>,
    /// Value per slot (garbage when the slot is vacant).
    vals: Vec<Loc>,
    /// Occupied slots.
    len: usize,
    /// `get`/`insert`/`remove` calls so far (growth rehashes excluded).
    ops: u64,
}

impl DigramTable {
    const MIN_SLOTS: usize = 64;

    fn new() -> Self {
        DigramTable {
            keys: vec![EMPTY; Self::MIN_SLOTS],
            vals: vec![
                Loc {
                    rule: RuleId(0),
                    pos: 0
                };
                Self::MIN_SLOTS
            ],
            len: 0,
            ops: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.keys.len() - 1
    }

    /// Probe start: both key halves multiplied by odd constants and
    /// folded, so adjacent ids spread across the table.
    #[inline]
    fn probe_start(&self, key: u128) -> usize {
        let lo = key as u64;
        let hi = (key >> 64) as u64;
        let mut h = lo.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= hi.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= h >> 32;
        h as usize & self.mask()
    }

    #[inline]
    fn get(&mut self, key: u128) -> Option<Loc> {
        self.ops += 1;
        self.peek(key)
    }

    /// Uncounted lookup.
    #[inline]
    fn peek(&self, key: u128) -> Option<Loc> {
        let mask = self.mask();
        let mut i = self.probe_start(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(self.vals[i]);
            }
            if k == EMPTY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts or overwrites.
    fn insert(&mut self, key: u128, val: Loc) {
        self.ops += 1;
        // Grow at 3/4 load to keep probe runs short.
        if (self.len + 1) * 4 > self.keys.len() * 3 {
            self.grow();
        }
        let mask = self.mask();
        let mut i = self.probe_start(key);
        loop {
            let k = self.keys[i];
            if k == key {
                self.vals[i] = val;
                return;
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `key` if present, back-shifting the following probe run so
    /// no tombstones accumulate (lookups stay probe-run bounded forever).
    fn remove(&mut self, key: u128) {
        self.ops += 1;
        let mask = self.mask();
        let mut i = self.probe_start(key);
        loop {
            let k = self.keys[i];
            if k == EMPTY {
                return;
            }
            if k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        self.len -= 1;
        // Back-shift: any later element of the run whose home slot lies
        // cyclically at or before the vacated slot moves into it.
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let kj = self.keys[j];
            if kj == EMPTY {
                break;
            }
            let home = self.probe_start(kj);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.keys[i] = kj;
                self.vals[i] = self.vals[j];
                i = j;
            }
        }
        self.keys[i] = EMPTY;
    }

    fn grow(&mut self) {
        let new_slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_slots]);
        let old_vals = std::mem::replace(
            &mut self.vals,
            vec![
                Loc {
                    rule: RuleId(0),
                    pos: 0
                };
                new_slots
            ],
        );
        let ops = self.ops;
        self.len = 0;
        for (k, v) in old_keys.into_iter().zip(old_vals) {
            if k != EMPTY {
                self.insert(k, v);
            }
        }
        self.ops = ops; // a rehash is not a digram operation
    }
}

/// Range of pair-start indices (inclusive) of a rule body that must be
/// re-checked for merges / unregistered digrams / digram collisions.
#[derive(Debug, Clone, Copy)]
struct Window {
    rule: RuleId,
    lo: usize,
    hi: usize,
}

/// Incrementally reduces a terminal sequence into a [`Grammar`].
///
/// ```
/// use pythia_core::event::EventId;
/// use pythia_core::grammar::builder::GrammarBuilder;
///
/// let mut b = GrammarBuilder::new();
/// for ev in [0u32, 1, 1, 2, 1, 2, 0, 1] {
///     b.push(EventId(ev));
/// }
/// let g = b.into_grammar();
/// let unfolded: Vec<u32> = g.unfold().into_iter().map(|e| e.0).collect();
/// assert_eq!(unfolded, vec![0, 1, 1, 2, 1, 2, 0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GrammarBuilder {
    g: Grammar,
    digrams: DigramTable,
    free: Vec<RuleId>,
    windows: VecDeque<Window>,
    utility: Vec<RuleId>,
    event_count: u64,
    /// Recycled rule-body buffers: factoring constantly creates short-lived
    /// rules (created on a digram repeat, often inlined away a few events
    /// later), and round-tripping their `Vec`s through the allocator
    /// dominated the record hot path. Bounded so a pathological burst
    /// cannot pin memory.
    body_pool: Vec<Vec<SymbolUse>>,
    /// Scratch buffer for rule-use collection (same motivation).
    sites: Vec<Loc>,
    /// Loop-acceleration cursor (see the module docs).
    accel: AccelCursor,
}

/// Cursor state for loop acceleration: a descent stack walking the
/// engaged rule's expansion terminal by terminal, plus the root-body
/// index where the raw (unindexed) tail starts.
#[derive(Debug, Default, Clone)]
struct AccelCursor {
    /// Whether a raw tail is in flight.
    active: bool,
    /// Root-body index of the first raw use; the raw tail is
    /// `root.body[raw_start..]`.
    raw_start: usize,
    /// Descent stack: `(rule, pos, remaining)` — `remaining` full
    /// repetitions of `rule.body[pos]` not yet consumed. The expansion is
    /// complete when the stack empties. Only valid while `active` (and
    /// during engagement); the grammar is never mutated structurally while
    /// a cursor is in flight, so positions cannot go stale.
    frames: Vec<(RuleId, usize, u32)>,
}

impl Default for GrammarBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl GrammarBuilder {
    /// Creates a builder with an empty grammar.
    pub fn new() -> Self {
        GrammarBuilder {
            g: Grammar::new(),
            digrams: DigramTable::new(),
            free: Vec::new(),
            windows: VecDeque::new(),
            utility: Vec::new(),
            event_count: 0,
            body_pool: Vec::new(),
            sites: Vec::new(),
            accel: AccelCursor::default(),
        }
    }

    /// Takes a recycled body buffer (empty, capacity retained) or a fresh
    /// one.
    fn pooled_body(&mut self) -> Vec<SymbolUse> {
        self.body_pool.pop().unwrap_or_default()
    }

    /// Returns a dead rule's body buffer to the pool.
    fn recycle_body(&mut self, mut body: Vec<SymbolUse>) {
        if self.body_pool.len() < 32 {
            body.clear();
            self.body_pool.push(body);
        }
    }

    /// Appends one terminal event to the trace. The grammar is lossless
    /// when this returns; digram/index invariants may be deferred while a
    /// loop-acceleration cursor is in flight (see the module docs and
    /// [`GrammarBuilder::flush_accel`]).
    pub fn push(&mut self, event: EventId) {
        self.event_count += 1;
        if self.accel.active {
            if self.accel_next_terminal() == Some(event) {
                self.append_raw(event);
                if !self.accel_advance() {
                    self.fold_cycle();
                }
                return;
            }
            self.mismatch(event);
            return;
        } else if self.try_engage(event) {
            return;
        }
        self.append_use(SymbolUse::new(Symbol::Terminal(event), 1));
    }

    /// The per-use digram path: merges `u` into a trailing run of the same
    /// symbol, or appends it and repairs the new boundary.
    fn append_use(&mut self, u: SymbolUse) {
        let root = self.g.root;
        let body = &mut self.g.rule_mut(root).body;
        if let Some(last) = body.last_mut() {
            if last.symbol == u.symbol {
                last.count += u.count;
                return;
            }
        }
        body.push(u);
        let len = body.len();
        if len >= 2 {
            self.push_window(root, len - 2, len - 2);
            self.drain();
        }
    }

    // ------------------------------------------------------------------
    // Loop acceleration
    // ------------------------------------------------------------------

    /// Tries to engage the loop cursor: the root must end in a rule use
    /// whose expansion starts with `event`. On success the event is
    /// appended raw and the cursor is live.
    fn try_engage(&mut self, event: EventId) -> bool {
        let body = &self.g.rule(self.g.root).body;
        let raw_start = body.len();
        let Some(Symbol::Rule(r)) = body.last().map(|u| u.symbol) else {
            return false;
        };
        let frame = (r, 0, self.g.rule(r).body[0].count);
        self.aim(frame, event) && self.engage(raw_start, event)
    }

    /// Phase-offset engagement: the root ends in `A^k B^j`, A's body
    /// starts with `B^m`, `j ≤ m`, and `event` is the next terminal of A's
    /// expansion after `j` repetitions of B. `B^j` is adopted as the head
    /// of the raw tail and the cursor rides A from there.
    fn try_engage_offset(&mut self, event: EventId) -> bool {
        let root = self.g.root;
        let body = &self.g.rule(root).body;
        let len = body.len();
        let [.., a_use, b_use] = body[..] else {
            return false;
        };
        let Symbol::Rule(a) = a_use.symbol else {
            return false;
        };
        let (a_body, j) = (&self.g.rule(a).body, b_use.count);
        if a_body[0].symbol != b_use.symbol || j > a_body[0].count {
            return false;
        }
        let frame = if j < a_body[0].count {
            (a, 0, a_body[0].count - j)
        } else {
            (a, 1, a_body[1].count)
        };
        if !self.aim(frame, event) {
            return false;
        }
        // The adopted use joins the unindexed raw tail.
        self.digrams
            .remove(digram_key((a_use.symbol, b_use.symbol)));
        self.engage(len - 1, event)
    }

    /// Points the cursor at `frame`; true if the expansion continues with
    /// `event` there.
    fn aim(&mut self, frame: (RuleId, usize, u32), event: EventId) -> bool {
        self.accel.frames.clear();
        self.accel.frames.push(frame);
        self.accel_descend() == event
    }

    /// Makes the aimed cursor live with the raw tail starting at
    /// `raw_start` and consumes `event`. Always true.
    fn engage(&mut self, raw_start: usize, event: EventId) -> bool {
        self.accel.raw_start = raw_start;
        self.accel.active = true;
        self.append_raw(event);
        if !self.accel_advance() {
            self.fold_cycle();
        }
        true
    }

    /// A cursor mismatch: settles the raw tail, then offers `event` to a
    /// new cursor — at the next repetition when the settle completed one
    /// (the root's last use is the engaged rule or the one before it, with
    /// a grown exponent), else at a phase offset — and only then to the
    /// per-use digram path.
    #[cold]
    #[inline(never)]
    fn mismatch(&mut self, event: EventId) {
        let (root, raw_start) = (self.g.root, self.accel.raw_start);
        let body = &self.g.rule(root).body;
        let before = [body[raw_start - 1], body[raw_start.saturating_sub(2)]];
        self.deaccelerate();
        let last = self.g.rule(root).body.last().copied();
        let completed = last.is_some_and(|l| {
            let grew = |u: &SymbolUse| u.symbol == l.symbol && u.count < l.count;
            l.symbol.rule().is_some() && before.iter().any(grew)
        });
        if (completed && self.try_engage(event)) || self.try_engage_offset(event) {
            return;
        }
        self.append_use(SymbolUse::new(Symbol::Terminal(event), 1));
    }

    /// Descends from the cursor's top frame to the next terminal of the
    /// expansion and returns it. Precondition: the stack is non-empty and
    /// every frame position is in bounds.
    fn accel_descend(&mut self) -> EventId {
        loop {
            let &(r, pos, _) = self.accel.frames.last().expect("descend on empty cursor");
            match self.g.rule(r).body[pos].symbol {
                Symbol::Terminal(t) => return t,
                Symbol::Rule(rr) => {
                    let c0 = self.g.rule(rr).body[0].count;
                    self.accel.frames.push((rr, 0, c0));
                }
            }
        }
    }

    /// The next terminal the engaged expansion expects, or `None` if the
    /// cursor is exhausted.
    fn accel_next_terminal(&mut self) -> Option<EventId> {
        self.accel.frames.last()?;
        Some(self.accel_descend())
    }

    /// Consumes one occurrence of the cursor's current terminal. Returns
    /// `false` when the engaged unit's expansion is complete.
    fn accel_advance(&mut self) -> bool {
        loop {
            let Some(top) = self.accel.frames.last_mut() else {
                return false; // one full unit consumed
            };
            let (r, pos) = (top.0, top.1);
            top.2 -= 1;
            if top.2 > 0 {
                return true; // more repetitions of the current use
            }
            let body = &self.g.rule(r).body;
            if pos + 1 < body.len() {
                let count = body[pos + 1].count;
                let top = self.accel.frames.last_mut().expect("checked above");
                top.1 = pos + 1;
                top.2 = count;
                return true;
            }
            // This body is complete: that closes one repetition of the
            // parent's current (rule) use — loop to decrement it.
            self.accel.frames.pop();
            if self.accel.frames.is_empty() {
                return false;
            }
        }
    }

    /// Appends a raw (unindexed) terminal to the root tail, merging
    /// trailing runs.
    fn append_raw(&mut self, event: EventId) {
        let root = self.g.root;
        let raw_start = self.accel.raw_start;
        let sym = Symbol::Terminal(event);
        let body = &mut self.g.rule_mut(root).body;
        if body.len() > raw_start {
            if let Some(last) = body.last_mut() {
                if last.symbol == sym {
                    last.count += 1;
                    return;
                }
            }
        }
        body.push(SymbolUse::new(sym, 1));
    }

    /// The engaged expansion matched completely: drop the raw tail and
    /// bump the rule use's repetition exponent instead.
    fn fold_cycle(&mut self) {
        let root = self.g.root;
        let raw_start = self.accel.raw_start;
        let (r, head) = {
            let body = &mut self.g.rule_mut(root).body;
            debug_assert!(raw_start >= 1 && body.len() > raw_start);
            let head = body[raw_start];
            body.truncate(raw_start);
            let unit = &mut body[raw_start - 1];
            let Symbol::Rule(r) = unit.symbol else {
                unreachable!("engaged use must be a rule");
            };
            unit.count = unit
                .count
                .checked_add(1)
                .expect("repetition exponent overflow");
            (r, head)
        };
        // The bumped exponent is one more weighted reference to `r`.
        self.inc_ref(r, 1);
        self.accel.active = false;
        // A rule use heading the raw tail was adopted at a phase offset:
        // its references leave the root with it.
        if let Symbol::Rule(b) = head.symbol {
            self.dec_ref(b, head.count);
            self.drain();
        }
    }

    /// Runs the deferred digram work over the raw tail, restoring every
    /// builder invariant. The tail is detached and replayed one use at a
    /// time through [`Self::append_use`], because the index maintenance
    /// (notably `unregister`'s rule-granular matching) relies on at most
    /// one un-deduplicated digram existing at a time.
    fn deaccelerate(&mut self) {
        self.accel.active = false;
        let root = self.g.root;
        let raw_start = self.accel.raw_start;
        debug_assert!(self.g.rule(root).body.len() > raw_start);
        let mut tail = self.pooled_body();
        tail.extend(self.g.rule_mut(root).body.drain(raw_start..));
        for &u in &tail {
            self.append_use(u);
        }
        self.recycle_body(tail);
    }

    /// Settles any in-flight loop acceleration so all grammar/index
    /// invariants hold (the grammar is lossless either way — the raw tail
    /// is simply not yet folded). Called automatically by
    /// [`GrammarBuilder::into_grammar`]; compaction or validation of a
    /// *live* builder should call it first.
    pub fn flush_accel(&mut self) {
        if self.accel.active {
            self.deaccelerate();
        }
    }

    /// Whether a loop-acceleration cursor is currently in flight (digram
    /// index invariants deferred; the grammar itself is still lossless).
    pub fn accel_active(&self) -> bool {
        self.accel.active
    }

    /// Number of events pushed so far.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// Read access to the grammar under construction.
    pub fn grammar(&self) -> &Grammar {
        &self.g
    }

    /// Finishes the reduction and returns the (non-compacted) grammar.
    pub fn into_grammar(mut self) -> Grammar {
        self.flush_accel();
        debug_assert!(self.windows.is_empty() && self.utility.is_empty());
        self.g
    }

    /// Read-only digram-index lookup (no lazy revalidation); used by the
    /// invariant validator.
    pub(crate) fn digram_entry(&self, key: (Symbol, Symbol)) -> Option<Loc> {
        self.digrams.peek(digram_key(key))
    }

    /// Digram-index operations (lookups, inserts, removals) made so far:
    /// the reduction's work measure, which loop acceleration keeps near
    /// zero per event on steady loops.
    pub fn digram_ops(&self) -> u64 {
        self.digrams.ops
    }

    // ------------------------------------------------------------------
    // Work-queue driver
    // ------------------------------------------------------------------

    fn push_window(&mut self, rule: RuleId, lo: usize, hi: usize) {
        self.windows.push_back(Window { rule, lo, hi });
    }

    /// Adjusts queued windows of `rule` after positions at/after `from`
    /// shifted by `delta`.
    fn shift_windows(&mut self, rule: RuleId, from: usize, delta: isize) {
        if delta == 0 {
            return;
        }
        let apply = |v: usize| -> usize {
            if v >= from {
                (v as isize + delta).max(0) as usize
            } else {
                v
            }
        };
        for w in &mut self.windows {
            if w.rule == rule {
                w.lo = apply(w.lo);
                w.hi = apply(w.hi);
            }
        }
    }

    /// Processes queued repairs until the grammar is stable. Rule-utility
    /// fixes run first (matching the order of the paper's Fig. 3 example).
    fn drain(&mut self) {
        loop {
            if let Some(rid) = self.utility.pop() {
                self.enforce_utility(rid);
                continue;
            }
            if let Some(w) = self.windows.pop_front() {
                self.scan_window(w);
                continue;
            }
            break;
        }
    }

    /// Scans a dirty window for adjacent-equal merges, unindexed digrams,
    /// and digram collisions. Any structural mutation re-queues the
    /// remainder and returns, so mutation never happens inside an active
    /// scan position.
    fn scan_window(&mut self, w: Window) {
        if !self.g.is_live(w.rule) {
            return;
        }
        let mut pos = w.lo.saturating_sub(1);
        let mut hi = w.hi + 1;
        loop {
            let body_len = self.g.rule(w.rule).body.len();
            if body_len < 2 || pos + 1 >= body_len || pos > hi {
                return;
            }
            let (a, b) = {
                let body = &self.g.rule(w.rule).body;
                (body[pos], body[pos + 1])
            };
            if a.symbol == b.symbol {
                // Invariant 3: merge `a^n a^m` into `a^{n+m}`.
                self.merge_at(w.rule, pos);
                hi = hi.saturating_sub(1);
                pos = pos.saturating_sub(1);
                continue;
            }
            let here = Loc { rule: w.rule, pos };
            let key = (a.symbol, b.symbol);
            match self.find_digram(key) {
                None => {
                    self.digrams.insert(digram_key(key), here);
                    pos += 1;
                }
                Some(loc) if loc == here => {
                    pos += 1;
                }
                Some(other) => {
                    // Invariant 2 violated: factor the repeated digram.
                    // Requeue the remainder first; `factor` keeps queued
                    // windows aligned across its splices.
                    self.push_window(w.rule, pos, hi);
                    self.factor(other, here, key);
                    return;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Digram index
    // ------------------------------------------------------------------

    /// The digram (pair of adjacent symbols) starting at `loc`, if any.
    fn digram_at(&self, loc: Loc) -> Option<(Symbol, Symbol)> {
        let rule = self.g.try_rule(loc.rule)?;
        if loc.pos + 1 >= rule.body.len() {
            return None;
        }
        Some((rule.body[loc.pos].symbol, rule.body[loc.pos + 1].symbol))
    }

    /// Looks up a digram with lazy re-validation: positions recorded in the
    /// index may have shifted within their rule after splices; rescan the
    /// rule to fix them, and drop entries whose digram no longer exists.
    fn find_digram(&mut self, key: (Symbol, Symbol)) -> Option<Loc> {
        let packed = digram_key(key);
        let loc = self.digrams.get(packed)?;
        if self.digram_at(loc) == Some(key) {
            return Some(loc);
        }
        // Stale: rescan the recorded rule for the pair.
        if let Some(rule) = self.g.try_rule(loc.rule) {
            for pos in 0..rule.body.len().saturating_sub(1) {
                if (rule.body[pos].symbol, rule.body[pos + 1].symbol) == key {
                    let fixed = Loc {
                        rule: loc.rule,
                        pos,
                    };
                    self.digrams.insert(packed, fixed);
                    return Some(fixed);
                }
            }
        }
        self.digrams.remove(packed);
        None
    }

    /// Removes the index entry for `key` if it points into `loc.rule`
    /// (positions may be stale, so matching on the rule is the reliable
    /// part; a live occurrence elsewhere would have its own entry).
    fn unregister(&mut self, key: (Symbol, Symbol), loc: Loc) {
        let packed = digram_key(key);
        if let Some(entry) = self.digrams.get(packed) {
            if entry.rule == loc.rule {
                self.digrams.remove(packed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Structural mutations
    // ------------------------------------------------------------------

    /// Merges `body[pos]` and `body[pos+1]` (equal symbols) into one use.
    fn merge_at(&mut self, rule: RuleId, pos: usize) {
        let extra = {
            let body = &mut self.g.rule_mut(rule).body;
            debug_assert_eq!(body[pos].symbol, body[pos + 1].symbol);
            let extra = body[pos + 1].count;
            body[pos].count += extra;
            body.remove(pos + 1);
            extra
        };
        let _ = extra; // total exponent preserved: refcounts unchanged
        self.shift_windows(rule, pos + 1, -1);
    }

    fn inc_ref(&mut self, rule: RuleId, by: u32) {
        self.g.rule_mut(rule).refcount += by;
    }

    fn dec_ref(&mut self, rule: RuleId, by: u32) {
        let rc = &mut self.g.rule_mut(rule).refcount;
        *rc = rc.saturating_sub(by);
        if *rc < 2 {
            self.utility.push(rule);
        }
    }

    /// Allocates a rule slot (recycling freed ids).
    fn alloc_rule(&mut self, body: Vec<SymbolUse>) -> RuleId {
        // Creation increments the refcount of every referenced rule.
        for u in &body {
            if let Symbol::Rule(r) = u.symbol {
                self.inc_ref(r, u.count);
            }
        }
        let rule = Rule { body, refcount: 0 };
        if let Some(id) = self.free.pop() {
            self.g.rules[id.index()] = Some(rule);
            id
        } else {
            let id = RuleId(self.g.rules.len() as u32);
            self.g.rules.push(Some(rule));
            id
        }
    }

    /// Factors the digram `key` shared by sites `s1` and `s2` into a rule
    /// (created, or reused when one site is already exactly a whole rule
    /// body), rewriting the non-reused site(s).
    fn factor(&mut self, s1: Loc, s2: Loc, key: (Symbol, Symbol)) {
        debug_assert!(s1 != s2);
        debug_assert_eq!(self.digram_at(s1), Some(key));
        debug_assert_eq!(self.digram_at(s2), Some(key));
        if s1.rule == s2.rule {
            debug_assert!(s1.pos.abs_diff(s2.pos) >= 2, "digram sites overlap");
        }
        let (a, b) = key;
        let (p1, q1) = {
            let body = &self.g.rule(s1.rule).body;
            (body[s1.pos].count, body[s1.pos + 1].count)
        };
        let (p2, q2) = {
            let body = &self.g.rule(s2.rule).body;
            (body[s2.pos].count, body[s2.pos + 1].count)
        };
        let ka = p1.min(p2);
        let kb = q1.min(q2);

        let whole = |s: Loc, p: u32, q: u32| -> bool {
            s.pos == 0
                && s.rule != self.g.root
                && self.g.rule(s.rule).body.len() == 2
                && p == ka
                && q == kb
        };

        if whole(s1, p1, q1) {
            // Reuse s1's rule; only rewrite s2 (paper: "if possible, reuses
            // an existing [non-terminal]", Fig. 3e).
            let n = s1.rule;
            self.substitute(s2, ka, kb, n);
            self.digrams
                .insert(digram_key(key), Loc { rule: n, pos: 0 });
        } else if whole(s2, p2, q2) {
            let n = s2.rule;
            self.substitute(s1, ka, kb, n);
            self.digrams
                .insert(digram_key(key), Loc { rule: n, pos: 0 });
        } else {
            // Create a new rule N -> a^ka b^kb and rewrite both sites.
            let mut nbody = self.pooled_body();
            nbody.push(SymbolUse::new(a, ka));
            nbody.push(SymbolUse::new(b, kb));
            let n = self.alloc_rule(nbody);
            // Same-rule sites: rewrite the later one first so the earlier
            // site's position stays valid.
            if s1.rule == s2.rule && s2.pos > s1.pos {
                self.substitute(s2, ka, kb, n);
                self.substitute(s1, ka, kb, n);
            } else {
                self.substitute(s1, ka, kb, n);
                self.substitute(s2, ka, kb, n);
            }
            self.digrams
                .insert(digram_key(key), Loc { rule: n, pos: 0 });
        }
    }

    /// Replaces `a^ka b^kb` inside the digram at `site` by one use of rule
    /// `n`, keeping the leftover exponents around it:
    /// `… X a^p b^q Y … ⇒ … X a^{p−ka} N b^{q−kb} Y …`.
    fn substitute(&mut self, site: Loc, ka: u32, kb: u32, n: RuleId) {
        let r = site.rule;
        let pos = site.pos;
        let (a_use, b_use, body_len) = {
            let body = &self.g.rule(r).body;
            (body[pos], body[pos + 1], body.len())
        };
        debug_assert!(a_use.count >= ka && b_use.count >= kb);

        // Unregister digrams destroyed by the splice.
        self.unregister((a_use.symbol, b_use.symbol), site);
        if a_use.count == ka && pos > 0 {
            let prev = self.g.rule(r).body[pos - 1].symbol;
            self.unregister(
                (prev, a_use.symbol),
                Loc {
                    rule: r,
                    pos: pos - 1,
                },
            );
        }
        if b_use.count == kb && pos + 2 < body_len {
            let next = self.g.rule(r).body[pos + 2].symbol;
            self.unregister(
                (b_use.symbol, next),
                Loc {
                    rule: r,
                    pos: pos + 1,
                },
            );
        }

        // Reference counts: the exponents absorbed into N leave this body.
        if let Symbol::Rule(ar) = a_use.symbol {
            self.dec_ref(ar, ka);
        }
        if let Symbol::Rule(br) = b_use.symbol {
            self.dec_ref(br, kb);
        }
        self.inc_ref(n, 1);

        // Splice the replacement segment in (stack buffer: at most 3 uses,
        // no heap allocation on this path).
        let mut seg = [SymbolUse::new(Symbol::Rule(n), 1); 3];
        let mut seg_len = 0;
        if a_use.count > ka {
            seg[seg_len] = SymbolUse::new(a_use.symbol, a_use.count - ka);
            seg_len += 1;
        }
        seg[seg_len] = SymbolUse::new(Symbol::Rule(n), 1);
        seg_len += 1;
        if b_use.count > kb {
            seg[seg_len] = SymbolUse::new(b_use.symbol, b_use.count - kb);
            seg_len += 1;
        }
        {
            let body = &mut self.g.rule_mut(r).body;
            body.splice(pos..=pos + 1, seg[..seg_len].iter().copied());
        }
        self.shift_windows(r, pos + 2, seg_len as isize - 2);
        // Re-check boundaries and the spliced interior (merges with equal
        // neighbours, new digrams, possible cascaded collisions).
        self.push_window(r, pos.saturating_sub(1), pos + seg_len);

        // A non-root body reduced to a single unit use is an alias
        // (`Y -> N`): eliminate it.
        if r != self.g.root && self.g.rule(r).body.len() == 1 {
            self.eliminate_alias(r);
        }
    }

    /// Replaces every use of alias rule `y` (whose body is a single
    /// `SymbolUse`) by that use, then deletes `y`.
    fn eliminate_alias(&mut self, y: RuleId) {
        let ybody = std::mem::take(&mut self.g.rule_mut(y).body);
        debug_assert_eq!(ybody.len(), 1);
        let inner = ybody[0];
        self.recycle_body(ybody);
        // Uses of y elsewhere in the grammar.
        let mut sites = std::mem::take(&mut self.sites);
        self.g.collect_rule_uses(y, &mut sites);
        for site in sites.drain(..) {
            let use_count = {
                let body = &mut self.g.rule_mut(site.rule).body;
                let u = &mut body[site.pos];
                debug_assert_eq!(u.symbol, Symbol::Rule(y));
                let c = u.count;
                u.symbol = inner.symbol;
                u.count = c
                    .checked_mul(inner.count)
                    .expect("repetition exponent overflow");
                c
            };
            let _ = use_count;
            if let Symbol::Rule(ir) = inner.symbol {
                let new_count = self.g.rule(site.rule).body[site.pos].count;
                self.inc_ref(ir, new_count);
            }
            // Entries keyed on y at this site become garbage; lazy lookup
            // cleans them. New adjacencies need a re-check.
            self.push_window(site.rule, site.pos.saturating_sub(1), site.pos + 1);
        }
        self.sites = sites;
        // Delete y: its body held `inner.count` references to inner.
        if let Symbol::Rule(ir) = inner.symbol {
            self.dec_ref(ir, inner.count);
        }
        self.g.rules[y.index()] = None;
        self.free.push(y);
    }

    /// Rule-utility enforcement (invariant 1): a non-root rule whose
    /// weighted reference count dropped below 2 is inlined at its single use
    /// (refcount 1) or deleted (refcount 0).
    fn enforce_utility(&mut self, x: RuleId) {
        if x == self.g.root || !self.g.is_live(x) {
            return;
        }
        match self.g.rule(x).refcount {
            0 => self.delete_rule(x),
            1 => {
                let mut sites = std::mem::take(&mut self.sites);
                self.g.collect_rule_uses(x, &mut sites);
                debug_assert_eq!(sites.len(), 1, "refcount 1 rule with != 1 site");
                let site = sites.first().copied();
                self.sites = sites;
                if let Some(site) = site {
                    self.inline_at(x, site);
                }
            }
            _ => {}
        }
    }

    /// Deletes a rule with no remaining uses, releasing its references.
    fn delete_rule(&mut self, x: RuleId) {
        let body = std::mem::take(&mut self.g.rule_mut(x).body);
        for (i, u) in body.iter().enumerate() {
            if i + 1 < body.len() {
                self.unregister((u.symbol, body[i + 1].symbol), Loc { rule: x, pos: i });
            }
            if let Symbol::Rule(r) = u.symbol {
                self.dec_ref(r, u.count);
            }
        }
        self.recycle_body(body);
        self.g.rules[x.index()] = None;
        self.free.push(x);
    }

    /// Inlines rule `x` (single use, count 1) into its use site.
    fn inline_at(&mut self, x: RuleId, site: Loc) {
        let mut xbody = std::mem::take(&mut self.g.rule_mut(x).body);
        debug_assert!(!xbody.is_empty());
        let r = site.rule;
        let pos = site.pos;
        debug_assert_eq!(self.g.rule(r).body[pos], SymbolUse::new(Symbol::Rule(x), 1));

        // Boundary digrams involving X disappear.
        if pos > 0 {
            let prev = self.g.rule(r).body[pos - 1].symbol;
            self.unregister(
                (prev, Symbol::Rule(x)),
                Loc {
                    rule: r,
                    pos: pos - 1,
                },
            );
        }
        if pos + 1 < self.g.rule(r).body.len() {
            let next = self.g.rule(r).body[pos + 1].symbol;
            self.unregister((Symbol::Rule(x), next), Loc { rule: r, pos });
        }

        let xlen = xbody.len();
        // Interior digrams of X move with the body: re-point their entries.
        for i in 0..xlen.saturating_sub(1) {
            let key = (xbody[i].symbol, xbody[i + 1].symbol);
            self.digrams.insert(
                digram_key(key),
                Loc {
                    rule: r,
                    pos: pos + i,
                },
            );
        }
        {
            let body = &mut self.g.rule_mut(r).body;
            body.splice(pos..=pos, xbody.drain(..));
        }
        self.recycle_body(xbody);
        self.shift_windows(r, pos + 1, xlen as isize - 1);
        // Boundary pairs are new; the scan also performs boundary merges.
        self.push_window(r, pos.saturating_sub(1), pos + xlen);

        // X's references moved (not released): delete without dec_ref.
        self.g.rules[x.index()] = None;
        self.free.push(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    fn build(seq: &[u32]) -> GrammarBuilder {
        let mut b = GrammarBuilder::new();
        for &s in seq {
            b.push(e(s));
            b.flush_accel();
            b.check_invariants().unwrap();
        }
        b
    }

    fn unfolded(b: &GrammarBuilder) -> Vec<u32> {
        b.grammar().unfold().into_iter().map(|x| x.0).collect()
    }

    #[test]
    fn empty_builder() {
        let b = GrammarBuilder::new();
        assert_eq!(b.event_count(), 0);
        assert_eq!(unfolded(&b), Vec::<u32>::new());
    }

    #[test]
    fn single_event() {
        let b = build(&[7]);
        assert_eq!(unfolded(&b), vec![7]);
        assert_eq!(b.grammar().rule_count(), 1);
    }

    #[test]
    fn pure_repetition_collapses_to_one_use() {
        let b = build(&[4; 1000]);
        assert_eq!(b.grammar().rule(b.grammar().root()).body.len(), 1);
        assert_eq!(b.grammar().rule(b.grammar().root()).body[0].count, 1000);
        assert_eq!(unfolded(&b), vec![4; 1000]);
    }

    #[test]
    fn paper_fig1_trace() {
        // "abbcbcab" (paper Fig. 1)
        let b = build(&[0, 1, 1, 2, 1, 2, 0, 1]);
        assert_eq!(unfolded(&b), vec![0, 1, 1, 2, 1, 2, 0, 1]);
    }

    #[test]
    fn simple_loop_creates_rule_with_exponent() {
        // (a b)^50, paper Fig. 2: grammar should be a loop of 50 reps of a
        // rule A -> a b.
        let mut seq = Vec::new();
        for _ in 0..50 {
            seq.push(0);
            seq.push(1);
        }
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
        let g = b.grammar();
        // Root should be a single use with exponent 50 of a rule "ab".
        let root = g.rule(g.root());
        assert_eq!(root.body.len(), 1, "{}", g.render(&|x| x.to_string()));
        assert_eq!(root.body[0].count, 50);
        let a = root.body[0].symbol.rule().unwrap();
        assert_eq!(g.rule(a).body.len(), 2);
    }

    #[test]
    fn paper_fig3_cascade() {
        // Reconstructs the Fig. 3 scenario: trace so far unfolds with a
        // grammar containing A -> b^3 c^2, B -> b^2 A, root ending "B b^5",
        // then two more `c`s arrive. We don't force the exact same rule ids,
        // but the final state must contain B -> b^2 A, A -> b^3 c^2 and a
        // root ending with B^2, with no C rule left.
        //
        // Build the prefix: x (b^2 b^3 c^2) (b^2 b^3 c^2) b^5  => that is
        // x A' A' b^5 with A' = b^5 c^2... To get the paper's exact shapes we
        // drive the sequence that produces them:
        //   x b b (b b b c c) ... simpler: verify algebraically through
        // unfold-equality and invariants instead of exact shapes, then check
        // the c^2 suffix folds into a repeated non-terminal.
        let mut seq: Vec<u32> = vec![9];
        let block: Vec<u32> = vec![1, 1, 1, 1, 1, 2, 2]; // b^2 (b^3 c^2)
        seq.extend(&block);
        seq.extend(&block);
        // tail: b^5 then c, c  -> completes a third block
        seq.extend([1, 1, 1, 1, 1]);
        seq.push(2);
        let b1 = build(&seq);
        assert_eq!(unfolded(&b1), seq);
        let mut b2 = b1;
        b2.push(e(2));
        b2.check_invariants().unwrap();
        let mut want = seq.clone();
        want.push(2);
        assert_eq!(unfolded(&b2), want);
        // Three identical blocks must now be folded: the root should be
        // short (x + B-ish structure), and some use must carry exponent >= 2.
        let g = b2.grammar();
        let root = g.rule(g.root());
        assert!(
            root.body.len() <= 3,
            "root not folded: {}",
            g.render(&|x| x.to_string())
        );
        let has_rep = root.body.iter().any(|u| u.count >= 2);
        assert!(has_rep, "{}", g.render(&|x| x.to_string()));
    }

    #[test]
    fn nested_repetition() {
        // ((a b)^3 c)^4
        let mut seq = Vec::new();
        for _ in 0..4 {
            for _ in 0..3 {
                seq.push(0);
                seq.push(1);
            }
            seq.push(2);
        }
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
        // Expect a deeply folded grammar: few rules, root of 1 use.
        let g = b.grammar();
        assert!(g.rule_count() <= 4, "{}", g.render(&|x| x.to_string()));
    }

    #[test]
    fn alternating_long() {
        let mut seq = Vec::new();
        for i in 0..500 {
            seq.push(i % 2);
        }
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
        assert!(b.grammar().rule_count() <= 6);
    }

    #[test]
    fn all_distinct_events() {
        let seq: Vec<u32> = (0..100).collect();
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
        // No repetition: everything stays in the root.
        assert_eq!(b.grammar().rule_count(), 1);
        assert_eq!(b.grammar().rule(b.grammar().root()).body.len(), 100);
    }

    #[test]
    fn runs_with_varying_lengths() {
        // a^3 b a^5 b a^3 b — runs of a with different exponents around a
        // repeated digram.
        let mut seq = Vec::new();
        for run in [3usize, 5, 3] {
            seq.extend(std::iter::repeat_n(0u32, run));
            seq.push(1);
        }
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
    }

    #[test]
    fn interleaved_phases() {
        // Mimics an app with a setup phase, a compute loop, and a teardown.
        let mut seq: Vec<u32> = vec![10, 11, 12];
        for _ in 0..30 {
            seq.extend([0, 1, 2, 2, 3]);
        }
        seq.extend([13, 14]);
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
        assert!(
            b.grammar().rule_count() <= 6,
            "{}",
            b.grammar().render(&|x| x.to_string())
        );
    }

    #[test]
    fn fuzz_small_alphabet() {
        // Deterministic pseudo-random stress with alphabet 3; invariants
        // are checked after every push inside `build`.
        let mut state = 0x12345678u64;
        let mut seq = Vec::new();
        for _ in 0..800 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push(((state >> 33) % 3) as u32);
        }
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
    }

    #[test]
    fn fuzz_medium_alphabet() {
        let mut state = 0xdeadbeefu64;
        let mut seq = Vec::new();
        for _ in 0..800 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push(((state >> 33) % 12) as u32);
        }
        let b = build(&seq);
        assert_eq!(unfolded(&b), seq);
    }

    #[test]
    fn event_count_tracked() {
        let b = build(&[0, 1, 0, 1, 0, 1]);
        assert_eq!(b.event_count(), 6);
        assert_eq!(b.grammar().trace_len(), 6);
    }

    #[test]
    fn digram_table_matches_hashmap_model() {
        // Random insert/overwrite/remove/get churn checked against a
        // HashMap model — exercises growth and back-shift deletion runs.
        use crate::util::FxHashMap;
        let mut table = DigramTable::new();
        let mut model: FxHashMap<u128, Loc> = FxHashMap::default();
        let mut state = 0xfeed_f00du64;
        let mut keys: Vec<u128> = Vec::new();
        for step in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = (state >> 33) as u32;
            // Small id space forces overwrites; clustered ids force probe
            // collisions after the multiplicative mix.
            let key = digram_key((
                Symbol::Terminal(EventId(r % 97)),
                Symbol::Rule(RuleId((r / 97) % 53)),
            ));
            let val = Loc {
                rule: RuleId(r % 7),
                pos: step as usize,
            };
            match r % 4 {
                0 | 1 => {
                    table.insert(key, val);
                    model.insert(key, val);
                    keys.push(key);
                }
                2 => {
                    table.remove(key);
                    model.remove(&key);
                }
                _ => {
                    assert_eq!(table.get(key), model.get(&key).copied(), "step {step}");
                }
            }
        }
        for key in keys {
            assert_eq!(table.get(key), model.get(&key).copied());
        }
        assert_eq!(table.len, model.len());
    }

    #[test]
    fn digram_keys_are_injective() {
        // Terminal n vs rule n must produce distinct codes, and order
        // matters.
        let t = Symbol::Terminal(EventId(5));
        let r = Symbol::Rule(RuleId(5));
        assert_ne!(sym_code(t), sym_code(r));
        assert_ne!(digram_key((t, r)), digram_key((r, t)));
        assert_ne!(digram_key((t, t)), EMPTY);
    }

    // ------------------------------------------------------------------
    // Loop acceleration
    // ------------------------------------------------------------------

    /// Streams `seq` through an accelerating builder and asserts the
    /// settled result is lossless and invariant-clean.
    fn accel_run(seq: &[u32]) -> GrammarBuilder {
        let mut b = GrammarBuilder::new();
        for &s in seq {
            b.push(e(s));
        }
        b.flush_accel();
        b.check_invariants().unwrap();
        assert_eq!(unfolded(&b), seq, "acceleration broke losslessness");
        b
    }

    #[test]
    fn accel_steady_loop_bumps_exponent_without_rule_growth() {
        // (a b c d)^500: after the motif is factored once, every further
        // iteration must ride the cursor — constant rule count, and the
        // repetition must live in an exponent, not a long root.
        let mut seq = Vec::new();
        for _ in 0..500 {
            seq.extend([0u32, 1, 2, 3]);
        }
        let b = accel_run(&seq);
        assert!(
            b.grammar().rule_count() <= 4,
            "steady loop grew {} rules",
            b.grammar().rule_count()
        );
        let root = b.grammar().root;
        assert!(
            b.grammar().rule(root).body.len() <= 4,
            "steady loop left a long root"
        );
        let max_exp = b
            .grammar()
            .iter_rules()
            .flat_map(|(_, r)| r.body.iter())
            .map(|u| u.count)
            .max()
            .unwrap();
        assert!(max_exp >= 400, "exponent {max_exp} — cursor never folded");
    }

    #[test]
    fn accel_engages_on_steady_loops() {
        // White-box: after a few repetitions of a motif the cursor must be
        // the thing carrying the stream (mid-motif the builder reports an
        // in-flight acceleration).
        let mut b = GrammarBuilder::new();
        for _ in 0..8 {
            for s in [0u32, 1, 2, 3] {
                b.push(e(s));
            }
        }
        let mut engaged = false;
        for s in [0u32, 1, 2] {
            b.push(e(s));
            engaged |= b.accel_active();
        }
        assert!(engaged, "cursor never engaged on a steady loop");
    }

    #[test]
    fn accel_mid_cycle_mismatch_stays_lossless() {
        // Break a steady loop mid-motif: the cursor must deaccelerate and
        // hand the partial cycle to the legacy machinery.
        let mut seq = Vec::new();
        for _ in 0..50 {
            seq.extend([0u32, 1, 2, 3]);
        }
        seq.extend([0u32, 1, 9]); // partial cycle, then a surprise
        for _ in 0..30 {
            seq.extend([4u32, 5]);
        }
        accel_run(&seq);
    }

    #[test]
    fn accel_grammar_is_lossless_at_every_event() {
        // The raw tail is part of the root: unfold and trace_len must be
        // exact at *every* instant, cursor in flight or not.
        let mut seq = Vec::new();
        for i in 0..40u32 {
            seq.extend([0u32, 1, 2, 3]);
            if i % 7 == 0 {
                seq.push(10 + (i % 3));
            }
        }
        let mut b = GrammarBuilder::new();
        for (i, &s) in seq.iter().enumerate() {
            b.push(e(s));
            assert_eq!(
                b.grammar().trace_len(),
                (i + 1) as u64,
                "trace_len drifted at event {i}"
            );
            assert_eq!(
                unfolded(&b),
                &seq[..=i],
                "unfold drifted at event {i} (accel={})",
                b.accel_active()
            );
        }
    }

    /// Pushes `iteration` `n` times and returns the digram operations
    /// the last `n - warm` iterations cost.
    fn steady_ops(iteration: &[u32], warm: usize, n: usize) -> u64 {
        let mut b = GrammarBuilder::new();
        let mut before = 0;
        for i in 0..n {
            if i == warm {
                before = b.digram_ops();
            }
            for &s in iteration {
                b.push(e(s));
            }
        }
        b.flush_accel();
        b.check_invariants().unwrap();
        assert_eq!(unfolded(&b), iteration.repeat(n));
        b.digram_ops() - before
    }

    #[test]
    fn accel_reengages_at_the_iteration_boundary() {
        // `x a b c d e x`: consecutive iterations meet in `x x`, so the
        // loop rule opens and closes with `x` and a settle completes the
        // repetition the cursor then re-engages on.
        assert_eq!(steady_ops(&[0, 1, 2, 3, 4, 5, 0], 8, 40), 0);
    }

    #[test]
    fn accel_engages_at_a_phase_offset() {
        // `(abc)^6 e (abc)^114`: the cursor must enter the loop rule
        // inside its leading `(abc)^6` run rather than ride the prefix.
        let mut iteration = [0, 1, 2].repeat(6);
        iteration.push(3);
        iteration.extend([0, 1, 2].repeat(114));
        assert_eq!(steady_ops(&iteration, 4, 12), 0);
    }

    #[test]
    fn accel_noise_matches_reference_compression() {
        // On noise, both the accelerating build and a flush-per-event
        // reference build must be lossless, invariant-clean, and compress
        // comparably. (Bit identity is not promised: a completed cycle
        // folds into an exponent bump where the reference re-factors the
        // motif — different but equally valid grammars.)
        let mut seq = Vec::new();
        let mut x = 7u64;
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push(((x >> 33) % 5) as u32);
        }
        let accel = accel_run(&seq);
        let mut reference = GrammarBuilder::new();
        for &s in &seq {
            reference.push(e(s));
            reference.flush_accel();
        }
        reference.check_invariants().unwrap();
        assert_eq!(unfolded(&reference), seq);
        let (a, r) = (
            accel.grammar().rule_count(),
            reference.grammar().rule_count(),
        );
        assert!(
            a <= r * 2 && r <= a * 2,
            "compression diverged: accel {a} rules vs reference {r}"
        );
    }
}
