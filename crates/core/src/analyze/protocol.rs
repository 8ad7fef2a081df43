//! Cross-rank MPI protocol verification on compressed traces.
//!
//! Every rank's grammar is folded into a [`RankProfile`] — per-peer send and
//! receive counts plus a composable hash of the rank's collective-call
//! sequence — by a single bottom-up sweep over the rule DAG: the profile of
//! a rule body is the concatenation of its children's profiles, and a
//! repetition exponent `k` multiplies counts and repeats the collective
//! hash via binary exponentiation. Cost is O(|grammar| · ranks), never
//! O(|trace|), yet the resulting profile is *exactly* the profile of the
//! expanded event stream (`tests/analyze_consistency.rs` proves this on
//! random sessions).
//!
//! [`verify`] then checks the profiles against each other:
//!
//! * **unmatched point-to-point traffic** — sends with no matching receive
//!   and receives with no matching send (per ordered rank pair), after
//!   `MPI_ANY_SOURCE` wildcard receives have absorbed what they can;
//! * **`MPI_ANY_SOURCE` ambiguity** — a wildcard pool that matched sends
//!   from two or more ranks, i.e. a recorded run whose message order is
//!   not deterministic (warning);
//! * **collective-sequence divergence** — ranks whose collective hash or
//!   length differs from rank 0's (the classic collective-mismatch
//!   deadlock);
//! * **wait-for cycles** — a cycle in the graph of blocked-on-unmatched
//!   traffic edges (potential deadlock);
//! * **rendezvous risk** — matched blocking sends in *both* directions of a
//!   rank pair, which deadlocks under rendezvous protocols (info only: the
//!   bundled applications do this and run fine over eager transports).
//!
//! `verify` is pure over profiles — it looks at nothing else — so verdicts
//! computed in the compressed domain and in the expanded domain coincide
//! iff the profiles do. Divergence *localization* (finding the first
//! differing collective) runs only on the error path and stays in the
//! compressed domain too: a binary search over exponent-aware prefix
//! hashes ([`collective_divergence_point`]), O(|grammar| log n), exact at
//! any repetition depth.

use std::collections::BTreeMap;

use crate::event::{EventId, EventRegistry};
use crate::grammar::{post_order, Grammar, Loc, Summary, Symbol};
use crate::trace::TraceData;

use super::{Diagnostic, Pass, Severity};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// What an event means to the protocol verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// A point-to-point send to `dest`.
    Send {
        /// Destination rank.
        dest: i64,
        /// Whether the call blocks until the message is handed off.
        blocking: bool,
    },
    /// A point-to-point receive from `source` (`-1` = `MPI_ANY_SOURCE`).
    Recv {
        /// Source rank, `-1` for any.
        source: i64,
        /// Whether the call blocks until a message arrives.
        blocking: bool,
    },
    /// `MPI_Sendrecv`: one send to `dest` plus one wildcard receive (the
    /// recorded event does not carry the receive source).
    SendRecv {
        /// Destination rank of the send half.
        dest: i64,
    },
    /// A collective call; `token` hashes the call name and any
    /// order-significant payload (root, reduction operation).
    Collective {
        /// Content hash of the call.
        token: u64,
    },
    /// Request completion (`MPI_Wait`/`MPI_Waitall`).
    Completion,
    /// A memory access to `object` (payload of a `load`/`read`/`store`/
    /// `write`/`update` event) — the race detector's input; the protocol
    /// verifier ignores it.
    Access {
        /// Object identity (the event payload).
        object: i64,
        /// Whether the access writes.
        write: bool,
    },
    /// Anything the verifier has no opinion about.
    Other,
}

/// Classifies one event descriptor by its MPI spelling.
///
/// Communicator-management collectives (`MPI_Comm_split`, `MPI_Comm_dup`)
/// hash by name only: their payload (the split color) legitimately differs
/// across ranks. All other collectives hash name + payload, so differing
/// roots or reduction operations count as divergence.
pub fn classify(name: &str, payload: Option<i64>) -> EventClass {
    match name {
        "MPI_Send" => match payload {
            Some(dest) => EventClass::Send {
                dest,
                blocking: true,
            },
            None => EventClass::Other,
        },
        "MPI_Isend" => match payload {
            Some(dest) => EventClass::Send {
                dest,
                blocking: false,
            },
            None => EventClass::Other,
        },
        "MPI_Recv" => match payload {
            Some(source) => EventClass::Recv {
                source,
                blocking: true,
            },
            None => EventClass::Other,
        },
        "MPI_Irecv" => match payload {
            Some(source) => EventClass::Recv {
                source,
                blocking: false,
            },
            None => EventClass::Other,
        },
        "MPI_Sendrecv" => match payload {
            Some(dest) => EventClass::SendRecv { dest },
            None => EventClass::Other,
        },
        "MPI_Wait" | "MPI_Waitall" => EventClass::Completion,
        "MPI_Barrier" | "MPI_Bcast" | "MPI_Reduce" | "MPI_Allreduce" | "MPI_Alltoall"
        | "MPI_Gather" | "MPI_Allgather" | "MPI_Scatter" | "MPI_Scan" | "MPI_Reduce_scatter" => {
            let mut h = fnv1a(FNV_OFFSET, name.as_bytes());
            if let Some(p) = payload {
                h = fnv1a(h, &p.to_le_bytes());
            }
            EventClass::Collective { token: h }
        }
        "MPI_Comm_dup" | "MPI_Comm_split" => EventClass::Collective {
            token: fnv1a(FNV_OFFSET, name.as_bytes()),
        },
        "load" | "read" => match payload {
            Some(object) => EventClass::Access {
                object,
                write: false,
            },
            None => EventClass::Other,
        },
        "store" | "write" | "update" => match payload {
            Some(object) => EventClass::Access {
                object,
                write: true,
            },
            None => EventClass::Other,
        },
        _ => EventClass::Other,
    }
}

/// Dense `EventId -> EventClass` table, built once per registry.
#[derive(Debug, Clone)]
pub struct ClassTable {
    classes: Vec<EventClass>,
}

impl ClassTable {
    /// Classifies every descriptor in the registry.
    pub fn from_registry(registry: &EventRegistry) -> Self {
        ClassTable {
            classes: registry
                .iter()
                .map(|(_, d)| classify(&d.name, d.payload))
                .collect(),
        }
    }

    /// The class of `event` (`Other` for ids outside the registry).
    #[inline]
    pub fn class(&self, event: EventId) -> EventClass {
        self.classes
            .get(event.index())
            .copied()
            .unwrap_or(EventClass::Other)
    }
}

/// Composable polynomial hash of a token sequence.
///
/// `concat` is associative with `EMPTY` as identity, and
/// `token(t).concat(token(u)) != token(u).concat(token(t))` for `t != u`
/// (order-sensitive), which is exactly what makes per-rule summaries
/// compose: `hash(body₁ body₂) = hash(body₁) ⊙ hash(body₂)` regardless of
/// how the sequence was split. `repeat` handles repetition exponents in
/// O(log k) by binary exponentiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqSummary {
    /// Polynomial hash of the token sequence.
    pub hash: u64,
    /// Number of tokens (saturating).
    pub len: u64,
    /// `BASEⁿ` for the sequence length `n` (wrapping) — the multiplier a
    /// left-hand sequence needs when this one is appended.
    pub pow: u64,
}

impl Default for SeqSummary {
    fn default() -> Self {
        Self::EMPTY
    }
}

impl SeqSummary {
    /// The empty sequence (identity of `concat`).
    pub const EMPTY: SeqSummary = SeqSummary {
        hash: 0,
        len: 0,
        pow: 1,
    };

    /// A one-token sequence.
    pub fn token(t: u64) -> Self {
        SeqSummary {
            hash: t,
            len: 1,
            pow: FNV_PRIME,
        }
    }

    /// The summary of `self` followed by `other`.
    pub fn concat(self, other: Self) -> Self {
        SeqSummary {
            hash: self.hash.wrapping_mul(other.pow).wrapping_add(other.hash),
            len: self.len.saturating_add(other.len),
            pow: self.pow.wrapping_mul(other.pow),
        }
    }

    /// The summary of `self` repeated `k` times (O(log k)).
    pub fn repeat(self, mut k: u64) -> Self {
        let mut acc = Self::EMPTY;
        let mut base = self;
        while k > 0 {
            if k & 1 == 1 {
                acc = acc.concat(base);
            }
            if k > 1 {
                base = base.concat(base);
            }
            k >>= 1;
        }
        acc
    }
}

/// The protocol-relevant summary of one rank's full event sequence.
///
/// `BTreeMap`s keep peer iteration (and equality) deterministic. All counts
/// saturate: a loaded grammar expands to at most `u64::MAX` events (the
/// loader rejects longer ones), but one built in memory is not checked,
/// and the verifier only ever compares counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankProfile {
    /// Sends per destination rank (blocking + nonblocking + sendrecv).
    pub sends: BTreeMap<i64, u64>,
    /// Blocking sends per destination rank (subset of `sends`).
    pub blocking_sends: BTreeMap<i64, u64>,
    /// Directed receives per source rank (source ≥ 0).
    pub recvs: BTreeMap<i64, u64>,
    /// Blocking directed receives per source rank (subset of `recvs`).
    pub blocking_recvs: BTreeMap<i64, u64>,
    /// Wildcard (`MPI_ANY_SOURCE`) receive credits, including the receive
    /// half of every `MPI_Sendrecv`.
    pub any_recvs: u64,
    /// Summary of the rank's collective-call sequence.
    pub collectives: SeqSummary,
}

fn bump(map: &mut BTreeMap<i64, u64>, key: i64, n: u64) {
    let slot = map.entry(key).or_insert(0);
    *slot = slot.saturating_add(n);
}

impl RankProfile {
    /// Folds `k` consecutive occurrences of one event class into the
    /// profile.
    fn add_class(&mut self, class: EventClass, k: u64) {
        match class {
            EventClass::Send { dest, blocking } => {
                bump(&mut self.sends, dest, k);
                if blocking {
                    bump(&mut self.blocking_sends, dest, k);
                }
            }
            EventClass::Recv { source, blocking } => {
                if source < 0 {
                    self.any_recvs = self.any_recvs.saturating_add(k);
                } else {
                    bump(&mut self.recvs, source, k);
                    if blocking {
                        bump(&mut self.blocking_recvs, source, k);
                    }
                }
            }
            EventClass::SendRecv { dest } => {
                bump(&mut self.sends, dest, k);
                bump(&mut self.blocking_sends, dest, k);
                self.any_recvs = self.any_recvs.saturating_add(k);
            }
            EventClass::Collective { token } => {
                self.collectives = self.collectives.concat(SeqSummary::token(token).repeat(k));
            }
            EventClass::Completion | EventClass::Access { .. } | EventClass::Other => {}
        }
    }
}

impl Summary for RankProfile {
    type Context = ClassTable;

    fn leaf(&mut self, classes: &ClassTable, e: EventId, count: u32, _at: Loc) {
        self.add_class(classes.class(e), count as u64);
    }

    fn append_scaled(&mut self, other: &RankProfile, k: u64) {
        for (&dest, &n) in &other.sends {
            bump(&mut self.sends, dest, n.saturating_mul(k));
        }
        for (&dest, &n) in &other.blocking_sends {
            bump(&mut self.blocking_sends, dest, n.saturating_mul(k));
        }
        for (&src, &n) in &other.recvs {
            bump(&mut self.recvs, src, n.saturating_mul(k));
        }
        for (&src, &n) in &other.blocking_recvs {
            bump(&mut self.blocking_recvs, src, n.saturating_mul(k));
        }
        self.any_recvs = self
            .any_recvs
            .saturating_add(other.any_recvs.saturating_mul(k));
        self.collectives = self.collectives.concat(other.collectives.repeat(k));
    }
}

/// Profile of an expanded event stream — the ground truth the compressed
/// sweep must agree with (used by the consistency property test).
pub fn profile_from_events(
    events: impl IntoIterator<Item = EventId>,
    classes: &ClassTable,
) -> RankProfile {
    let mut p = RankProfile::default();
    for e in events {
        p.add_class(classes.class(e), 1);
    }
    p
}

/// Profile of a grammar, computed bottom-up in O(|grammar| · peers) without
/// expanding the trace. The grammar must be a structurally sound DAG (run
/// the linter first).
pub fn profile_from_grammar(g: &Grammar, classes: &ClassTable) -> RankProfile {
    let mut rules: Vec<RankProfile> = g.fold(classes);
    std::mem::take(&mut rules[g.root().index()])
}

fn perr(code: &'static str, message: String) -> Diagnostic {
    Diagnostic::new(Severity::Error, Pass::Protocol, code, message)
}

/// Checks the rank profiles against each other. Pure: looks only at the
/// profiles, so verdicts are identical whether the profiles came from the
/// compressed or the expanded domain.
pub fn verify(profiles: &[RankProfile]) -> Vec<Diagnostic> {
    let n = profiles.len();
    let mut diags = Vec::new();

    // -- peer ranges -------------------------------------------------------
    for (rank, p) in profiles.iter().enumerate() {
        for &dest in p.sends.keys() {
            if dest < 0 || dest as usize >= n {
                diags.push(
                    perr(
                        "peer-out-of-range",
                        format!("send to rank {dest} outside the {n}-rank run"),
                    )
                    .on_thread(rank),
                );
            }
        }
        for &src in p.recvs.keys() {
            if src as usize >= n {
                diags.push(
                    perr(
                        "peer-out-of-range",
                        format!("receive from rank {src} outside the {n}-rank run"),
                    )
                    .on_thread(rank),
                );
            }
        }
    }

    // -- directed point-to-point matching ---------------------------------
    let mut unmatched_send: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut unmatched_recv: BTreeMap<(usize, usize), u64> = BTreeMap::new(); // (receiver, source)
    for (s, p) in profiles.iter().enumerate() {
        for (&dest, &sent) in &p.sends {
            if dest < 0 || dest as usize >= n {
                continue;
            }
            let d = dest as usize;
            let recvd = profiles[d].recvs.get(&(s as i64)).copied().unwrap_or(0);
            if sent > recvd {
                unmatched_send.insert((s, d), sent - recvd);
            }
        }
    }
    for (d, p) in profiles.iter().enumerate() {
        for (&src, &recvd) in &p.recvs {
            if src < 0 || src as usize >= n {
                continue;
            }
            let s = src as usize;
            let sent = profiles[s].sends.get(&(d as i64)).copied().unwrap_or(0);
            if recvd > sent {
                unmatched_recv.insert((d, s), recvd - sent);
            }
        }
    }

    // -- wildcard absorption ----------------------------------------------
    // Each receiver's MPI_ANY_SOURCE pool absorbs leftover sends targeting
    // it, greedily in sender order (deterministic; the count algebra cannot
    // distinguish which wildcard took which message anyway).
    let mut any_left: Vec<u64> = profiles.iter().map(|p| p.any_recvs).collect();
    let mut absorbed_from: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (&(s, d), cnt) in unmatched_send.iter_mut() {
        if any_left[d] == 0 || *cnt == 0 {
            continue;
        }
        let take = (*cnt).min(any_left[d]);
        any_left[d] -= take;
        *cnt -= take;
        absorbed_from[d].push(s);
    }
    unmatched_send.retain(|_, c| *c > 0);

    for (d, senders) in absorbed_from.iter().enumerate() {
        if senders.len() >= 2 {
            diags.push(
                Diagnostic::new(
                    Severity::Warning,
                    Pass::Protocol,
                    "any-source-ambiguity",
                    format!(
                        "MPI_ANY_SOURCE receives on rank {d} matched sends from {} different \
                         ranks {senders:?}: message arrival order is non-deterministic, so a \
                         recorded trace may not predict replays",
                        senders.len()
                    ),
                )
                .on_thread(d),
            );
        }
    }
    for (d, &left) in any_left.iter().enumerate() {
        if left > 0 {
            diags.push(
                perr(
                    "unmatched-any-recv",
                    format!("{left} MPI_ANY_SOURCE receive(s) on rank {d} have no matching send"),
                )
                .on_thread(d),
            );
        }
    }

    // -- unmatched traffic -------------------------------------------------
    for (&(s, d), &cnt) in &unmatched_send {
        diags.push(
            perr(
                "unmatched-send",
                format!("{cnt} send(s) from rank {s} to rank {d} never received"),
            )
            .on_thread(s),
        );
    }
    for (&(d, s), &cnt) in &unmatched_recv {
        diags.push(
            perr(
                "unmatched-recv",
                format!("{cnt} receive(s) on rank {d} from rank {s} never sent"),
            )
            .on_thread(d),
        );
    }

    // -- wait-for cycles ---------------------------------------------------
    // A rank blocked on unmatched traffic waits on its peer: unmatched
    // *blocking* sends wait on the receiver, unmatched blocking receives
    // wait on the sender. A cycle in that graph is a potential deadlock.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(s, d) in unmatched_send.keys() {
        if profiles[s]
            .blocking_sends
            .get(&(d as i64))
            .copied()
            .unwrap_or(0)
            > 0
        {
            edges[s].push(d);
        }
    }
    for &(d, s) in unmatched_recv.keys() {
        if profiles[d]
            .blocking_recvs
            .get(&(s as i64))
            .copied()
            .unwrap_or(0)
            > 0
        {
            edges[d].push(s);
        }
    }
    if let Some(cycle) = find_wait_cycle(&edges) {
        diags.push(perr(
            "wait-cycle",
            format!(
                "wait-for cycle over unmatched blocking traffic: {} (potential deadlock)",
                cycle
                    .iter()
                    .map(|r| format!("rank {r}"))
                    .collect::<Vec<_>>()
                    .join(" -> ")
            ),
        ));
    }

    // -- rendezvous risk ---------------------------------------------------
    for s in 0..n {
        for d in s + 1..n {
            let fwd = profiles[s]
                .blocking_sends
                .get(&(d as i64))
                .copied()
                .unwrap_or(0);
            let bwd = profiles[d]
                .blocking_sends
                .get(&(s as i64))
                .copied()
                .unwrap_or(0);
            if fwd > 0 && bwd > 0 {
                diags.push(
                    Diagnostic::new(
                        Severity::Info,
                        Pass::Protocol,
                        "rendezvous-risk",
                        format!(
                            "ranks {s} and {d} block-send to each other ({fwd} and {bwd} \
                             message(s)): deadlocks under a rendezvous protocol"
                        ),
                    )
                    .on_thread(s),
                );
            }
        }
    }

    // -- collective-sequence divergence -----------------------------------
    for (r, p) in profiles.iter().enumerate().skip(1) {
        if p.collectives != profiles[0].collectives {
            let detail = if p.collectives.len != profiles[0].collectives.len {
                format!(
                    "{} collective call(s) vs {} on rank 0",
                    p.collectives.len, profiles[0].collectives.len
                )
            } else {
                format!(
                    "same count ({}) but different calls or arguments",
                    p.collectives.len
                )
            };
            diags.push(
                perr(
                    "collective-divergence",
                    format!("rank {r}'s collective sequence diverges from rank 0's: {detail}"),
                )
                .on_thread(r),
            );
        }
    }

    diags
}

/// Finds a cycle in the wait-for graph, returned as the node sequence
/// `a -> b -> ... -> a`. Deterministic (lowest start node, edge order).
fn find_wait_cycle(edges: &[Vec<usize>]) -> Option<Vec<usize>> {
    let successors = |r: usize| edges[r].iter().copied();
    post_order(edges.len(), |r| r, 0..edges.len(), successors).err()
}

/// The collective structure of one expansion of a symbol: how many
/// collectives it contains, its expanded length, and the [`SeqSummary`]
/// of its collective-token sequence.
#[derive(Debug, Clone, Copy, Default)]
struct Collectives(u64, u64, SeqSummary);

impl Collectives {
    fn of_event(classes: &ClassTable, e: EventId) -> Self {
        match classes.class(e) {
            EventClass::Collective { token } => Collectives(1, 1, SeqSummary::token(token)),
            _ => Collectives(0, 1, SeqSummary::EMPTY),
        }
    }
}

impl Summary for Collectives {
    type Context = ClassTable;

    fn leaf(&mut self, classes: &ClassTable, e: EventId, count: u32, _at: Loc) {
        self.append_scaled(&Collectives::of_event(classes, e), count as u64);
    }

    fn append_scaled(&mut self, other: &Self, k: u64) {
        self.0 = self.0.saturating_add(other.0.saturating_mul(k));
        self.1 = self.1.saturating_add(other.1.saturating_mul(k));
        self.2 = self.2.concat(other.2.repeat(k));
    }
}

/// Walks `g` from the root towards its collective ordinal `n` (0-based),
/// exponent-aware, with the per-rule [`Collectives`] `memo` of
/// [`Grammar::fold`]: every use wholly before the ordinal goes to `take`
/// with its repetition count, and so do the whole repetitions of a rule
/// use before the walk descends into it. Returns the terminal use holding
/// the ordinal with how many of its repetitions precede it, or `None` when
/// the grammar has `<= n` collectives. O(depth · body width), never O(n).
fn descend(
    g: &Grammar,
    memo: &[Collectives],
    classes: &ClassTable,
    mut n: u64,
    mut take: impl FnMut(Collectives, u64),
) -> Option<(u64, Collectives)> {
    let mut rule = g.root();
    'descend: loop {
        for u in &g.rule(rule).body {
            let reps = u.count as u64;
            let c = match u.symbol {
                Symbol::Terminal(e) => Collectives::of_event(classes, e),
                Symbol::Rule(r) => memo[r.index()],
            };
            let total = c.0.saturating_mul(reps);
            if total <= n {
                take(c, reps);
                n -= total;
                continue;
            }
            match u.symbol {
                // A terminal contributes one collective per repetition.
                Symbol::Terminal(_) => return Some((n, c)),
                Symbol::Rule(r) => {
                    let full = n / c.0;
                    take(c, full);
                    n -= full * c.0;
                    rule = r;
                    continue 'descend;
                }
            }
        }
        return None;
    }
}

/// Finds the first collective ordinal at which two ranks' collective
/// sequences diverge, plus the expanded-stream index of that collective on
/// the *second* rank (its last collective when the second rank is the
/// shorter side). Exact at any depth of repetition exponents — the search
/// binary-searches prefix hashes, O(|grammar| log n) — so the reported
/// index lands on the first offending iteration of an exponentiated rule,
/// not on a capped approximation.
pub fn collective_divergence_point(
    g0: &Grammar,
    gr: &Grammar,
    classes: &ClassTable,
) -> Option<(u64, Option<u64>)> {
    let (m0, mr): (Vec<Collectives>, Vec<Collectives>) = (g0.fold(classes), gr.fold(classes));
    let (len0, lenr) = (m0[g0.root().index()].0, mr[gr.root().index()].0);
    let minlen = len0.min(lenr);
    // Summary of the first `n` collectives of a grammar.
    let prefix = |g: &Grammar, memo: &[Collectives], n: u64| {
        let mut acc = SeqSummary::EMPTY;
        let rest = descend(g, memo, classes, n, |c, k| acc = acc.concat(c.2.repeat(k)));
        rest.map_or(acc, |(r, c)| acc.concat(c.2.repeat(r)))
    };
    // Expanded-stream index of collective ordinal `k` of the second rank.
    let nth_index = |k: u64| {
        let mut idx = 0u64;
        let rest = descend(gr, &mr, classes, k, |c, reps| {
            idx = idx.saturating_add(c.1.saturating_mul(reps))
        });
        rest.map(|(r, _)| idx + r)
    };
    let eq = |n: u64| prefix(g0, &m0, n) == prefix(gr, &mr, n);
    let k = if eq(minlen) {
        if len0 == lenr {
            return None;
        }
        minlen
    } else {
        // Largest prefix length with equal hashes; the collective at that
        // ordinal is the first difference.
        let (mut lo, mut hi) = (0u64, minlen);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if eq(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let index = if k < lenr {
        nth_index(k)
    } else if lenr > 0 {
        nth_index(lenr - 1)
    } else {
        None
    };
    Some((k, index))
}

/// Annotates `collective-divergence` diagnostics with the ordinal and
/// event index of the first divergent collective
/// ([`collective_divergence_point`]).
pub fn localize_collective_divergence(
    trace: &TraceData,
    classes: &ClassTable,
    diags: &mut [Diagnostic],
) {
    for d in diags
        .iter_mut()
        .filter(|d| d.code == "collective-divergence")
    {
        let Some(rank) = d.thread else { continue };
        let (Ok(t0), Ok(tr)) = (trace.thread(0), trace.thread(rank)) else {
            continue;
        };
        if let Some((k, index)) = collective_divergence_point(&t0.grammar, &tr.grammar, classes) {
            d.event_index = index;
            d.message
                .push_str(&format!(" (first divergence at collective #{k})"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::builder::GrammarBuilder;

    fn registry_with(calls: &[(&str, Option<i64>)]) -> EventRegistry {
        let mut r = EventRegistry::new();
        for &(name, payload) in calls {
            r.intern(name, payload);
        }
        r
    }

    fn grammar_of(events: &[EventId]) -> Grammar {
        let mut b = GrammarBuilder::new();
        for &e in events {
            b.push(e);
        }
        b.into_grammar().compact()
    }

    #[test]
    fn seq_summary_concat_is_associative_and_ordered() {
        let (a, b, c) = (
            SeqSummary::token(1),
            SeqSummary::token(2),
            SeqSummary::token(3),
        );
        assert_eq!(a.concat(b).concat(c), a.concat(b.concat(c)));
        assert_ne!(a.concat(b), b.concat(a));
        assert_eq!(SeqSummary::EMPTY.concat(a), a);
        assert_eq!(a.concat(SeqSummary::EMPTY), a);
    }

    #[test]
    fn seq_summary_repeat_matches_naive() {
        let t = SeqSummary::token(7).concat(SeqSummary::token(9));
        for k in 0..20u64 {
            let mut naive = SeqSummary::EMPTY;
            for _ in 0..k {
                naive = naive.concat(t);
            }
            assert_eq!(t.repeat(k), naive, "k={k}");
        }
    }

    #[test]
    fn grammar_profile_matches_event_profile() {
        let mut reg = registry_with(&[]);
        let send = reg.intern("MPI_Send", Some(1));
        let recv = reg.intern("MPI_Recv", Some(1));
        let coll = reg.intern("MPI_Allreduce", Some(0));
        let classes = ClassTable::from_registry(&reg);
        let mut events = Vec::new();
        for _ in 0..37 {
            events.extend([send, recv, recv, coll]);
        }
        let g = grammar_of(&events);
        assert!(g.rule_count() > 1, "grammar must actually compress");
        assert_eq!(
            profile_from_grammar(&g, &classes),
            profile_from_events(events, &classes)
        );
    }

    #[test]
    fn matched_pair_is_clean() {
        let mut reg = EventRegistry::new();
        let s01 = reg.intern("MPI_Send", Some(1));
        let r10 = reg.intern("MPI_Recv", Some(0));
        let bar = reg.intern("MPI_Barrier", None);
        let classes = ClassTable::from_registry(&reg);
        let p0 = profile_from_events([s01, bar], &classes);
        let p1 = profile_from_events([r10, bar], &classes);
        let diags = verify(&[p0, p1]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unmatched_send_and_recv_detected() {
        let mut reg = EventRegistry::new();
        let s01 = reg.intern("MPI_Send", Some(1));
        let r12 = reg.intern("MPI_Recv", Some(2));
        let classes = ClassTable::from_registry(&reg);
        let p0 = profile_from_events([s01], &classes);
        let p1 = profile_from_events([r12], &classes);
        let p2 = RankProfile::default();
        let diags = verify(&[p0, p1, p2]);
        assert!(
            diags.iter().any(|d| d.code == "unmatched-send"),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "unmatched-recv"),
            "{diags:?}"
        );
    }

    #[test]
    fn any_source_absorbs_and_warns_on_ambiguity() {
        let mut reg = EventRegistry::new();
        let s02 = reg.intern("MPI_Send", Some(2));
        let any = reg.intern("MPI_Recv", Some(-1));
        let classes = ClassTable::from_registry(&reg);
        // Ranks 0 and 1 both send to rank 2; rank 2 posts two wildcards.
        let p0 = profile_from_events([s02], &classes);
        let p1 = profile_from_events([s02], &classes);
        let p2 = profile_from_events([any, any], &classes);
        let diags = verify(&[p0, p1, p2]);
        assert!(
            !diags.iter().any(|d| d.severity == Severity::Error),
            "{diags:?}"
        );
        assert!(
            diags.iter().any(|d| d.code == "any-source-ambiguity"),
            "{diags:?}"
        );
    }

    #[test]
    fn leftover_wildcard_is_an_error() {
        let mut reg = EventRegistry::new();
        let any = reg.intern("MPI_Recv", Some(-1));
        let classes = ClassTable::from_registry(&reg);
        let p0 = profile_from_events([any], &classes);
        let diags = verify(&[p0, RankProfile::default()]);
        assert!(
            diags.iter().any(|d| d.code == "unmatched-any-recv"),
            "{diags:?}"
        );
    }

    #[test]
    fn collective_divergence_detected() {
        let mut reg = EventRegistry::new();
        let bar = reg.intern("MPI_Barrier", None);
        let red = reg.intern("MPI_Allreduce", Some(0));
        let classes = ClassTable::from_registry(&reg);
        let p0 = profile_from_events([bar, red], &classes);
        let p1 = profile_from_events([red, bar], &classes);
        let diags = verify(&[p0.clone(), p1]);
        assert!(
            diags.iter().any(|d| d.code == "collective-divergence"),
            "{diags:?}"
        );
        // Same calls, same order: clean.
        let p2 = profile_from_events([bar, red], &classes);
        assert!(verify(&[p0.clone(), p2]).is_empty());
    }

    #[test]
    fn comm_split_color_does_not_diverge() {
        let mut reg = EventRegistry::new();
        let split0 = reg.intern("MPI_Comm_split", Some(0));
        let split1 = reg.intern("MPI_Comm_split", Some(1));
        let classes = ClassTable::from_registry(&reg);
        let p0 = profile_from_events([split0], &classes);
        let p1 = profile_from_events([split1], &classes);
        assert!(verify(&[p0, p1]).is_empty());
    }

    #[test]
    fn wait_cycle_detected() {
        let mut reg = EventRegistry::new();
        let s01 = reg.intern("MPI_Send", Some(1));
        let s10 = reg.intern("MPI_Send", Some(0));
        let r01 = reg.intern("MPI_Recv", Some(1));
        let r10 = reg.intern("MPI_Recv", Some(0));
        let classes = ClassTable::from_registry(&reg);
        // Cross receives that are never satisfied: 0 waits on 1, 1 waits
        // on 0.
        let p0 = profile_from_events([r01], &classes);
        let p1 = profile_from_events([r10], &classes);
        let diags = verify(&[p0, p1]);
        assert!(diags.iter().any(|d| d.code == "wait-cycle"), "{diags:?}");
        // Matched bidirectional blocking sends: rendezvous info, no cycle.
        let q0 = profile_from_events([s01, r01], &classes);
        let q1 = profile_from_events([s10, r10], &classes);
        let diags = verify(&[q0, q1]);
        assert!(!diags.iter().any(|d| d.code == "wait-cycle"), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.code == "rendezvous-risk"),
            "{diags:?}"
        );
        assert!(
            !diags.iter().any(|d| d.severity > Severity::Info),
            "{diags:?}"
        );
    }

    #[test]
    fn divergence_point_is_exact_inside_exponentiated_rules() {
        // Both ranks run [bar red] x 1000, but rank 1's iteration 700
        // calls a divergent reduce. The localization must point at the
        // exact expanded index of that collective — iteration 700, not
        // iteration 0 and not a capped guess.
        let mut reg = EventRegistry::new();
        let bar = reg.intern("MPI_Barrier", None);
        let red = reg.intern("MPI_Allreduce", Some(0));
        let bad = reg.intern("MPI_Allreduce", Some(9));
        let classes = ClassTable::from_registry(&reg);
        let e0: Vec<_> = (0..1000).flat_map(|_| [bar, red]).collect();
        let mut e1 = e0.clone();
        e1[2 * 700 + 1] = bad;
        let g0 = grammar_of(&e0);
        let g1 = grammar_of(&e1);
        assert!(g0.rule_count() > 1, "must exercise exponents");
        let (k, index) =
            collective_divergence_point(&g0, &g1, &classes).expect("sequences diverge");
        assert_eq!(k, 2 * 700 + 1);
        assert_eq!(index, Some(2 * 700 + 1));
        // Naive ground truth: position of collective #k in the stream.
        let naive = e1
            .iter()
            .enumerate()
            .filter(|(_, &e)| matches!(classes.class(e), EventClass::Collective { .. }))
            .nth(k as usize)
            .map(|(i, _)| i as u64);
        assert_eq!(index, naive);
    }

    #[test]
    fn divergence_point_handles_length_mismatch() {
        let mut reg = EventRegistry::new();
        let bar = reg.intern("MPI_Barrier", None);
        let classes = ClassTable::from_registry(&reg);
        let e0: Vec<_> = vec![bar; 64];
        let e1: Vec<_> = vec![bar; 48];
        let g0 = grammar_of(&e0);
        let g1 = grammar_of(&e1);
        let (k, index) = collective_divergence_point(&g0, &g1, &classes).expect("lengths differ");
        assert_eq!(k, 48);
        assert_eq!(
            index,
            Some(47),
            "shorter side anchors at its last collective"
        );
        assert!(collective_divergence_point(&g0, &g0.clone(), &classes).is_none());
    }

    #[test]
    fn peer_out_of_range_detected() {
        let mut reg = EventRegistry::new();
        let s = reg.intern("MPI_Send", Some(40));
        let classes = ClassTable::from_registry(&reg);
        let p0 = profile_from_events([s], &classes);
        let diags = verify(&[p0, RankProfile::default()]);
        assert!(
            diags.iter().any(|d| d.code == "peer-out-of-range"),
            "{diags:?}"
        );
    }
}
