//! One shard: a session slab behind a lock, per-tenant admission
//! control, lock-free stats publication.
//!
//! A shard is a value, not a thread. Its [`SessionSlab`] and breaker
//! gates sit behind the one mutex in [`ShardHandle`], and a request runs
//! to completion on whichever thread brought it — a socket connection
//! thread, the in-process client, recovery — holding that lock for
//! exactly one request and never a second shard's with it. A bounded
//! number of callers may wait for the lock; the next is refused `Busy`
//! without touching the shard. What is shared *between* shards and
//! with readers uses the two epoch-friendly shapes the core provides:
//!
//! - tenant grammars: `Arc<ThreadTrace>` with a prewarmed
//!   `Arc<GrammarIndex>`, immutable and shared by every shard;
//! - shard statistics: an [`Published<ShardStats>`] snapshot that
//!   `Stats` requests read without taking any shard's lock.
//!
//! Admission control is per-(shard, tenant): every tenant has its own
//! [`CircuitBreaker`] scored by observe outcomes (a `Matched` event
//! counts as a correct prediction, `Reseeded`/`Unknown` as wrong). A
//! tenant whose stream has diverged from its reference trace trips its
//! breaker and is served `Degraded` no-advice responses — its sessions
//! stop consuming grammar walks entirely while the breaker is open, so
//! a hot or degraded tenant cannot starve the other tenants sharing the
//! shard. Healthy tenants are untouched: their breakers are separate
//! objects and their predictions remain exactly what a single-process
//! [`Predictor`] would produce.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pythia_core::persist::{read_event_journal, EventJournal};
use pythia_core::predict::{ObserveOutcome, Prediction, Predictor};
use pythia_core::resilience::CircuitBreaker;
use pythia_core::sync::Published;

use crate::proto::{Admission, Request, Response};
use crate::server::ServeConfig;
use crate::session::{Session, SessionId, SessionJournal, SessionSlab};
use crate::tenant::Tenants;

/// Point-in-time counters for one shard, published through
/// [`Published`] so `Stats` requests never take the shard's lock.
///
/// All fields are monotonic counters except `sessions_open`, which is
/// the live session count at publication time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Sessions opened on this shard.
    pub opens: u64,
    /// Opens refused by slab admission (`max_sessions` reached).
    pub rejected_opens: u64,
    /// Sessions open right now.
    pub sessions_open: u64,
    /// Events observed (including events absorbed while degraded).
    pub events: u64,
    /// Events acknowledged without oracle work because the tenant's
    /// breaker was open.
    pub degraded_events: u64,
    /// Predictions computed and served.
    pub predictions: u64,
    /// Predictions answered with the empty no-advice distribution
    /// because the tenant's breaker was not closed.
    pub degraded_predictions: u64,
    /// Total breaker trips summed over this shard's tenant gates.
    pub breaker_trips: u64,
    /// Sessions resurrected from a previous incarnation's journals.
    pub resumed_sessions: u64,
    /// Sessions evicted by the idle-TTL sweeper.
    pub evicted_sessions: u64,
    /// Requests refused with [`Response::Busy`] because too many callers
    /// were already waiting for this shard. Counted outside the lock (the
    /// whole point is that the shard never saw the request) and overlaid
    /// into snapshots.
    pub busy_rejects: u64,
    /// Session-journal IO failures (each one kills that session's
    /// journal; the session keeps serving).
    pub journal_errors: u64,
    /// Served events whose journal append was lost to a dead journal —
    /// the serve-side analogue of `Recorder::dropped_events`: the loss
    /// is observable, never silent.
    pub journal_dropped_events: u64,
}

impl ShardStats {
    /// Number of wire fields; must match [`ShardStats::fields`] and
    /// [`ShardStats::from_fields`].
    pub const FIELDS: usize = 13;

    /// The counters in fixed wire order.
    pub fn fields(&self) -> [u64; Self::FIELDS] {
        [
            self.opens,
            self.rejected_opens,
            self.sessions_open,
            self.events,
            self.degraded_events,
            self.predictions,
            self.degraded_predictions,
            self.breaker_trips,
            self.resumed_sessions,
            self.evicted_sessions,
            self.busy_rejects,
            self.journal_errors,
            self.journal_dropped_events,
        ]
    }

    /// Rebuilds stats from the wire order of [`ShardStats::fields`].
    pub fn from_fields(f: [u64; Self::FIELDS]) -> Self {
        ShardStats {
            opens: f[0],
            rejected_opens: f[1],
            sessions_open: f[2],
            events: f[3],
            degraded_events: f[4],
            predictions: f[5],
            degraded_predictions: f[6],
            breaker_trips: f[7],
            resumed_sessions: f[8],
            evicted_sessions: f[9],
            busy_rejects: f[10],
            journal_errors: f[11],
            journal_dropped_events: f[12],
        }
    }

    /// Element-wise sum, for aggregating across shards.
    pub fn merge(&self, other: &ShardStats) -> ShardStats {
        let a = self.fields();
        let b = other.fields();
        let mut out = [0u64; Self::FIELDS];
        for i in 0..Self::FIELDS {
            out[i] = a[i].wrapping_add(b[i]);
        }
        ShardStats::from_fields(out)
    }
}

/// Per-shard, per-tenant admission gate: the breaker plus its logical
/// clock (time = events this gate has seen, the same convention the
/// resilience facade uses).
struct TenantGate {
    breaker: CircuitBreaker,
    clock: u64,
}

/// A shard as the router holds it: the state behind its lock, and what
/// must be readable without it.
pub(crate) struct ShardHandle {
    index: usize,
    /// The server's configuration, shared by every shard.
    config: Arc<ServeConfig>,
    /// `None` once a panic inside the shard took it down: what the
    /// panic interrupted is dropped, never served from again.
    worker: parking_lot::Mutex<Option<ShardWorker>>,
    /// Callers between admission and getting the lock. A bound, not a
    /// publication: nothing is read on the strength of its value.
    waiters: AtomicUsize,
    stats: Arc<Published<ShardStats>>,
    /// Busy refusals (see [`ShardStats::busy_rejects`]).
    busy: AtomicU64,
}

impl ShardHandle {
    /// `tenant_live` is the live-session count per tenant that every shard
    /// shares: raised by one atomic check-and-add at open/resume, lowered
    /// on close/evict.
    pub fn new(
        index: usize,
        config: &Arc<ServeConfig>,
        tenants: &Arc<Tenants>,
        tenant_live: &Arc<Vec<AtomicU64>>,
    ) -> ShardHandle {
        let stats = Arc::new(Published::new(ShardStats::default()));
        let gates = (0..tenants.len())
            .map(|_| TenantGate {
                breaker: CircuitBreaker::new(config.breaker.clone()),
                clock: 0,
            })
            .collect();
        ShardHandle {
            index,
            config: Arc::clone(config),
            waiters: AtomicUsize::new(0),
            stats: Arc::clone(&stats),
            busy: AtomicU64::new(0),
            worker: parking_lot::Mutex::new(Some(ShardWorker {
                index,
                config: Arc::clone(config),
                tenant_live: Arc::clone(tenant_live),
                tenants: Arc::clone(tenants),
                slab: SessionSlab::default(),
                gates,
                stats: ShardStats::default(),
                published: stats,
                dirty: false,
            })),
        }
    }

    /// The shard's latest snapshot with the busy counter overlaid.
    pub fn snapshot(&self) -> ShardStats {
        let mut s = self.stats.get();
        s.busy_rejects = self.busy.load(Ordering::Relaxed);
        s
    }

    /// Serves one request on the calling thread, start to finish.
    pub fn call(&self, req: Request) -> Response {
        self.run(|shard| {
            let resp = shard.handle(req);
            // Publish *before* replying: once a caller has seen the
            // response, a router-level Stats read reflects it.
            shard.maybe_publish();
            resp
        })
        .unwrap_or_else(|refusal| refusal)
    }

    /// Admission, then `f` on the shard's state under its lock: one
    /// caller runs, `queue_depth` may wait, and the next is refused
    /// `Busy` — load shedding, the caller gets a retry hint instead of a
    /// seat in an unbounded line.
    pub fn run<R>(&self, f: impl FnOnce(&mut ShardWorker) -> R) -> Result<R, Response> {
        if self.waiters.fetch_add(1, Ordering::Relaxed) >= self.config.queue_depth.max(1) {
            self.waiters.fetch_sub(1, Ordering::Relaxed);
            self.busy.fetch_add(1, Ordering::Relaxed);
            return Err(Response::Busy {
                retry_after_ms: self.config.retry_after_ms,
            });
        }
        let mut worker = self.worker.lock();
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        self.guarded(&mut worker, f)
    }

    /// Evicts idle sessions unless the shard is busy: a shard serving a
    /// request is not accumulating idle sessions, and is swept next tick.
    pub fn sweep(&self, now: Instant) {
        if let Some(mut worker) = self.worker.try_lock() {
            let _ = self.guarded(&mut worker, |shard| {
                shard.sweep(now);
                shard.maybe_publish();
            });
        }
    }

    /// Syncs every live session journal, waiting for the lock however
    /// many callers do: the graceful path out must reach every shard.
    pub fn flush_journals(&self) {
        let _ = self.guarded(&mut self.worker.lock(), ShardWorker::flush_journals);
    }

    /// Runs `f` on the locked shard, unless it is down. A panic in `f`
    /// stops here, not in the calling connection thread, and takes the
    /// shard down with it so that no half-updated session is reachable.
    fn guarded<R>(
        &self,
        worker: &mut Option<ShardWorker>,
        f: impl FnOnce(&mut ShardWorker) -> R,
    ) -> Result<R, Response> {
        let message = match worker {
            None => format!("shard {} is down", self.index),
            Some(shard) => match catch_unwind(AssertUnwindSafe(|| f(shard))) {
                Ok(done) => return Ok(done),
                Err(_) => {
                    *worker = None;
                    format!("shard {} dropped the request", self.index)
                }
            },
        };
        Err(Response::Error { message })
    }
}

/// The state behind one shard's lock.
pub(crate) struct ShardWorker {
    index: usize,
    config: Arc<ServeConfig>,
    tenant_live: Arc<Vec<AtomicU64>>,
    tenants: Arc<Tenants>,
    slab: SessionSlab,
    gates: Vec<TenantGate>,
    stats: ShardStats,
    published: Arc<Published<ShardStats>>,
    dirty: bool,
}

/// Path of the journal for session `id` under `dir`: the id is the
/// filename, so recovery can enumerate sessions with a directory scan
/// and no side index.
pub(crate) fn journal_file(dir: &Path, id: SessionId) -> PathBuf {
    dir.join(format!("s{:016x}.sj", id.0))
}

/// Parses a session id back out of a [`journal_file`] name.
pub(crate) fn parse_journal_file(path: &Path) -> Option<SessionId> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix('s')?.strip_suffix(".sj")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok().map(SessionId)
}

impl ShardWorker {
    fn maybe_publish(&mut self) {
        if self.dirty {
            self.stats.sessions_open = self.slab.len() as u64;
            self.published.publish(self.stats);
            self.dirty = false;
        }
    }

    /// Evicts sessions idle past the TTL. Their journals are synced and
    /// *kept*: an evicted durable session is resumable, exactly like one
    /// interrupted by a crash.
    fn sweep(&mut self, now: Instant) {
        let Some(ttl) = self.config.session_ttl else {
            return;
        };
        for (slot, generation) in self.slab.expired(ttl, now) {
            let Some(session) = self.slab.remove(slot, generation) else {
                continue;
            };
            if let SessionJournal::Active(journal, _) = &session.journal {
                let _ = journal.sync();
            }
            self.tenant_release(session.tenant);
            self.stats.evicted_sessions += 1;
            self.dirty = true;
        }
    }

    /// Syncs every live durable session's journal (the drain barrier).
    fn flush_journals(&mut self) {
        let mut errors = 0;
        self.slab.for_each_live(|session| {
            if let SessionJournal::Active(journal, _) = &session.journal {
                if journal.sync().is_err() {
                    errors += 1;
                }
            }
        });
        if errors > 0 {
            self.stats.journal_errors += errors;
            self.dirty = true;
            self.maybe_publish();
        }
    }

    /// Takes a seat under the tenant's cap, or refuses at it. One atomic
    /// step: opens racing on other shards cannot overshoot.
    fn tenant_admit(&self, tenant: usize) -> bool {
        let cap = self.config.max_sessions_per_tenant as u64;
        self.tenant_live[tenant]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                (live < cap).then_some(live + 1)
            })
            .is_ok()
    }

    fn tenant_release(&self, tenant: usize) {
        self.tenant_live[tenant].fetch_sub(1, Ordering::Relaxed);
    }

    fn handle(&mut self, req: Request) -> Response {
        self.dirty = true;
        // The one clock read of a request: it stamps the session for
        // both halves of an `ObservePredict`.
        let now = Instant::now();
        match req {
            Request::Open { tenant, durable } => self.open(&tenant, durable, now),
            Request::Resume { session } => self.resume(session, now),
            Request::Observe { session, events } => match self.advance(session, &events, now) {
                Ok((outcome, admission)) => Response::Advice {
                    outcome,
                    prediction: None,
                    admission,
                },
                Err(resp) => resp,
            },
            Request::Predict { session, distance } => {
                match self.predict(session, distance as usize, now) {
                    Ok((prediction, admission)) => Response::Advice {
                        outcome: None,
                        prediction: Some(prediction),
                        admission,
                    },
                    Err(resp) => resp,
                }
            }
            Request::ObservePredict {
                session,
                distance,
                events,
            } => {
                let (outcome, observe_admission) = match self.advance(session, &events, now) {
                    Ok(r) => r,
                    Err(resp) => return resp,
                };
                match self.predict(session, distance as usize, now) {
                    Ok((prediction, admission)) => Response::Advice {
                        outcome,
                        prediction: Some(prediction),
                        admission: if observe_admission == Admission::Degraded {
                            Admission::Degraded
                        } else {
                            admission
                        },
                    },
                    Err(resp) => resp,
                }
            }
            Request::Close { session } => {
                match self.slab.remove(session.slot(), session.generation()) {
                    Some(closed) => {
                        // An explicit close is the end of the session's
                        // story: its journal has nothing left to
                        // resurrect, so the file goes too.
                        if let Some(path) = closed.journal.path() {
                            let _ = std::fs::remove_file(path);
                        }
                        self.tenant_release(closed.tenant);
                        Response::Closed
                    }
                    None => stale_session(session),
                }
            }
            // Answered by the router from published snapshots; reaching a
            // shard directly is still well-defined.
            Request::Stats => Response::Stats {
                shards: vec![self.snapshot()],
            },
        }
    }

    fn snapshot(&self) -> ShardStats {
        let mut s = self.stats;
        s.sessions_open = self.slab.len() as u64;
        s
    }

    /// Common admission for open/resume: slab capacity, then tenant cap.
    /// On success the tenant's live count is already incremented.
    fn admit(&mut self, tenant_index: usize) -> Option<Response> {
        let max_sessions = self.config.max_sessions_per_shard.max(1);
        if self.slab.len() >= max_sessions {
            self.stats.rejected_opens += 1;
            return Some(Response::Error {
                message: format!("shard {} is full ({} sessions)", self.index, max_sessions),
            });
        }
        if !self.tenant_admit(tenant_index) {
            self.stats.rejected_opens += 1;
            return Some(Response::Error {
                message: format!(
                    "tenant {:?} is at its session cap ({})",
                    self.tenants.spec(tenant_index).name,
                    self.config.max_sessions_per_tenant
                ),
            });
        }
        None
    }

    fn fresh_predictor(&self, tenant_index: usize) -> Predictor {
        let spec = self.tenants.spec(tenant_index);
        Predictor::from_thread_trace(Arc::clone(&spec.thread), self.config.predictor.clone())
    }

    fn open(&mut self, tenant: &str, durable: bool, now: Instant) -> Response {
        let Some(tenant_index) = self.tenants.resolve(tenant) else {
            return Response::Error {
                message: format!("unknown tenant {tenant:?}"),
            };
        };
        let journal_dir = match (durable, &self.config.journal_dir) {
            (false, _) => None,
            (true, Some(dir)) => Some(dir.clone()),
            (true, None) => {
                return Response::Error {
                    message: "durable sessions need a server journal directory".into(),
                }
            }
        };
        if let Some(refusal) = self.admit(tenant_index) {
            return refusal;
        }
        let (slot, generation) = self.slab.insert(Session {
            tenant: tenant_index,
            predictor: self.fresh_predictor(tenant_index),
            events: 0,
            last_used: now,
            journal: SessionJournal::None,
        });
        let id = SessionId::pack(self.index, generation, slot);
        if let Some(dir) = journal_dir {
            let path = journal_file(&dir, id);
            let label = &self.tenants.spec(tenant_index).name;
            match EventJournal::create(&path, label, self.config.faults.clone()) {
                Ok(journal) => {
                    let session = self.slab.get_mut(slot, generation).expect("just inserted");
                    session.journal = SessionJournal::Active(Box::new(journal), path);
                }
                Err(e) => {
                    // A durable open that cannot journal must fail loudly:
                    // the client asked for crash survival it would not get.
                    self.slab.remove(slot, generation);
                    self.tenant_release(tenant_index);
                    self.stats.journal_errors += 1;
                    return Response::Error {
                        message: format!("cannot create session journal: {e}"),
                    };
                }
            }
        }
        self.stats.opens += 1;
        Response::Session { id }
    }

    /// Resurrects a session journaled by a previous server incarnation:
    /// replays the salvaged observe prefix through a fresh predictor
    /// (Sequitur determinism makes the rebuilt state byte-identical to
    /// the pre-crash one), re-journals it under a fresh id, and deletes
    /// the old file. The tenant's breaker gate is *not* replayed —
    /// admission state is process-local and starts healthy; a stream
    /// that is still diverging re-trips it within one scored batch.
    fn resume(&mut self, old: SessionId, now: Instant) -> Response {
        let Some(dir) = self.config.journal_dir.clone() else {
            return Response::Error {
                message: "server has no journal directory to resume from".into(),
            };
        };
        let old_path = journal_file(&dir, old);
        let contents = match read_event_journal(&old_path) {
            Ok(c) => c,
            Err(e) => {
                return Response::Error {
                    message: format!("cannot read session journal {:?}: {e}", old_path),
                }
            }
        };
        let Some(tenant_index) = self.tenants.resolve(&contents.label) else {
            return Response::Error {
                message: format!(
                    "journaled session belongs to unregistered tenant {:?}",
                    contents.label
                ),
            };
        };
        if let Some(refusal) = self.admit(tenant_index) {
            return refusal;
        }
        let mut predictor = self.fresh_predictor(tenant_index);
        predictor.observe_batch(&contents.events);
        // Land strictly above the old generation so the dead id can
        // never alias the resurrected session, even on the same slot.
        let min_gen = (old.generation() + 1) & 0x00FF_FFFF;
        let (slot, generation) = self.slab.insert_with_min_generation(
            Session {
                tenant: tenant_index,
                predictor,
                events: contents.events.len() as u64,
                last_used: now,
                journal: SessionJournal::None,
            },
            min_gen,
        );
        let id = SessionId::pack(self.index, generation, slot);
        debug_assert_ne!(id, old, "resumed session must get a fresh id");
        let new_path = journal_file(&dir, id);
        let journal = EventJournal::create(&new_path, &contents.label, self.config.faults.clone())
            .and_then(|mut j| {
                j.append(&contents.events)?;
                if self.config.fsync_journals {
                    j.sync()?;
                }
                Ok(j)
            });
        match journal {
            Ok(journal) => {
                let session = self.slab.get_mut(slot, generation).expect("just inserted");
                session.journal = SessionJournal::Active(Box::new(journal), new_path);
            }
            Err(e) => {
                // Refuse rather than resume without durability: the old
                // journal stays on disk, so the caller can retry.
                self.slab.remove(slot, generation);
                self.tenant_release(tenant_index);
                self.stats.journal_errors += 1;
                let _ = std::fs::remove_file(&new_path);
                return Response::Error {
                    message: format!("cannot re-journal resumed session: {e}"),
                };
            }
        }
        let _ = std::fs::remove_file(&old_path);
        self.stats.resumed_sessions += 1;
        Response::Session { id }
    }

    /// Observe path: advances the breaker clock per event, then either
    /// feeds the whole batch to the predictor (one amortized walker run)
    /// or — with the breaker open — acknowledges the events without any
    /// oracle work so the tenant cannot monopolize the shard.
    fn advance(
        &mut self,
        id: SessionId,
        events: &[pythia_core::event::EventId],
        now: Instant,
    ) -> std::result::Result<(Option<ObserveOutcome>, Admission), Response> {
        let Some(session) = self.slab.get_mut(id.slot(), id.generation()) else {
            return Err(stale_session(id));
        };
        session.last_used = now;
        let gate = &mut self.gates[session.tenant];
        session.events += events.len() as u64;
        self.stats.events += events.len() as u64;
        for _ in events {
            gate.clock += 1;
            gate.breaker.on_event(gate.clock);
        }
        if !gate.breaker.computes() {
            // Open: the events are acknowledged but not replayed into the
            // grammar. The session's cursor desynchronizes; once the
            // breaker half-opens the next batch re-seeds it (that reseed
            // is scored, so a still-bad stream re-trips immediately).
            // Degraded events are *not* journaled either — the journal
            // mirrors what the predictor consumed, so replay rebuilds the
            // exact predictor state.
            self.stats.degraded_events += events.len() as u64;
            return Ok((None, Admission::Degraded));
        }
        let before = session.predictor.stats();
        let outcome = session.predictor.observe_batch(events);
        let after = session.predictor.stats();
        // Journal before replying: once the client has the ack, the
        // events are recoverable (modulo the page cache, same contract
        // as the recorder's journal).
        if let SessionJournal::Active(journal, _) = &mut session.journal {
            let appended = journal
                .append(events)
                .and_then(|()| {
                    if self.config.fsync_journals {
                        journal.sync()?;
                    }
                    Ok(())
                })
                .is_ok();
            if !appended {
                // Sticky: first failure kills this session's journal; the
                // session keeps serving, the loss is counted.
                let path = session.journal.path().cloned().expect("active has a path");
                session.journal = SessionJournal::Failed(path);
                self.stats.journal_errors += 1;
            }
        }
        if matches!(session.journal, SessionJournal::Failed(_)) {
            self.stats.journal_dropped_events += events.len() as u64;
        }
        // Score the breaker from the outcome mix of this batch: matched
        // events vouch for the oracle, reseeds and unknowns vote against.
        let trips_before = gate.breaker.transitions();
        let correct = after.matched - before.matched;
        let wrong = (after.reseeded - before.reseeded) + (after.unknown - before.unknown);
        for _ in 0..correct {
            gate.breaker.on_scored(true, gate.clock);
        }
        for _ in 0..wrong {
            gate.breaker.on_scored(false, gate.clock);
        }
        self.stats.breaker_trips += gate.breaker.transitions() - trips_before;
        let admission = if gate.breaker.advice_allowed() {
            Admission::Served
        } else {
            Admission::Degraded
        };
        Ok((outcome, admission))
    }

    fn predict(
        &mut self,
        id: SessionId,
        distance: usize,
        now: Instant,
    ) -> std::result::Result<(Prediction, Admission), Response> {
        let Some(session) = self.slab.get_mut(id.slot(), id.generation()) else {
            return Err(stale_session(id));
        };
        session.last_used = now;
        let gate = &mut self.gates[session.tenant];
        if !gate.breaker.advice_allowed() {
            // No-advice fallback: an empty distribution is exactly what the
            // single-process oracle returns when it has lost track, so
            // hosts need no serve-specific handling.
            self.stats.degraded_predictions += 1;
            return Ok((Prediction::default(), Admission::Degraded));
        }
        let prediction = session.predictor.predict(distance);
        gate.breaker.on_query_ok();
        self.stats.predictions += 1;
        Ok((prediction, Admission::Served))
    }
}

fn stale_session(id: SessionId) -> Response {
    Response::Error {
        message: format!("no such session {:#018x} (stale or closed id)", id.0),
    }
}

#[cfg(test)]
impl ShardHandle {
    /// Occupies the shard from the calling thread, as a request would.
    pub fn hold(&self) -> parking_lot::MutexGuard<'_, Option<ShardWorker>> {
        self.worker.lock()
    }

    /// Callers parked, or about to park, at the shard's lock.
    pub fn waiters(&self) -> usize {
        self.waiters.load(Ordering::Relaxed)
    }
}
