//! The instrumented communicator: every MPI call submits a PYTHIA event;
//! blocking calls request predictions (paper §III-B).

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pythia_core::error::{Error, Result};
use pythia_core::event::ConcurrentRegistry;
use pythia_core::oracle::Oracle;
use pythia_core::predict::{PredictStats, PredictorConfig};
use pythia_core::record::RecordConfig;
use pythia_core::resilience::{FaultPlan, HardenedOracle, ResilienceConfig, ResilienceStats};
use pythia_core::trace::{ThreadTrace, TraceData};
use pythia_minimpi::{
    Comm, Communicator, MpiReduce, MpiType, RankFault, ReduceOp, Request, Status, Tag,
};

use crate::events::{EventCache, MpiCall};
use crate::probe::{AccuracyProbe, CostProbe, DistanceAccuracy};

pub use crate::events::SharedRegistry;

/// How the runtime system uses PYTHIA for this execution.
///
/// Constructed once per execution, so the size skew from `Predict`'s
/// inline [`ResilienceConfig`] (which carries the full fault plan) is
/// irrelevant — boxing it would only tax every construction site.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
pub enum MpiMode {
    /// No oracle (baseline "Vanilla" of the paper's tables).
    Vanilla,
    /// Reference execution: record events (PYTHIA-RECORD).
    Record {
        /// Log per-event timestamps (costs memory on huge traces).
        timestamps: bool,
    },
    /// Subsequent execution: load the reference trace and predict
    /// (PYTHIA-PREDICT). Predictions are requested at blocking calls for
    /// every distance in `distances` and scored by the accuracy probe.
    Predict {
        /// The reference trace (thread `i` = rank `i`).
        trace: Arc<TraceData>,
        /// Prediction distances to request and score.
        distances: Vec<usize>,
        /// Map rank `r` to trace thread `r % thread_count` instead of
        /// requiring equal counts — the paper's stated future work
        /// ("predict accurately when the application runs with different
        /// configuration (number of threads, number of processes)").
        /// Symmetric ranks of these kernels behave alike, so the modulo
        /// mapping is a reasonable first approximation.
        map_ranks: bool,
        /// Hardening knobs for the [`HardenedOracle`] facade every rank's
        /// oracle is wrapped in (time budget, watchdog, fault injection).
        resilience: ResilienceConfig,
    },
}

impl MpiMode {
    /// Record mode with timestamps enabled.
    pub fn record() -> Self {
        MpiMode::Record { timestamps: true }
    }

    /// Predict mode scoring only distance 1.
    pub fn predict(trace: Arc<TraceData>) -> Self {
        MpiMode::Predict {
            trace,
            distances: vec![1],
            map_ranks: false,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Predict mode scoring a set of distances (Fig. 8 uses 1..=128).
    pub fn predict_distances(trace: Arc<TraceData>, distances: Vec<usize>) -> Self {
        MpiMode::Predict {
            trace,
            distances,
            map_ranks: false,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Predict mode tolerating a different rank count than the reference
    /// execution (rank `r` follows trace thread `r mod threads`).
    pub fn predict_mapped(trace: Arc<TraceData>, distances: Vec<usize>) -> Self {
        MpiMode::Predict {
            trace,
            distances,
            map_ranks: true,
            resilience: ResilienceConfig::default(),
        }
    }

    /// Predict mode with explicit hardening knobs (time budget, watchdog
    /// thresholds, fault injection) for the per-rank oracle facade.
    pub fn predict_resilient(
        trace: Arc<TraceData>,
        distances: Vec<usize>,
        resilience: ResilienceConfig,
    ) -> Self {
        MpiMode::Predict {
            trace,
            distances,
            map_ranks: false,
            resilience,
        }
    }
}

/// Elastic-world counters of one rank: what the membership/failure
/// surface of the communicator observed during the run, plus how the
/// prediction facade adapted to a world size different from the
/// reference execution. All three are zero in a fault-free,
/// size-matched run — the bench gates on exactly that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ElasticStats {
    /// Rank failures the communicator's world detected (heartbeat
    /// timeouts, supervised aborts, connection loss).
    pub rank_failures_detected: u64,
    /// 1 if this rank is a replacement (incarnation > 0) admitted after
    /// the original died, 0 for a first spawn.
    pub ranks_replaced: u64,
    /// Verifier-validated [`TraceData::remap_ranks`] remaps this rank
    /// performed to predict from a reference trace of a different world
    /// size.
    pub remap_validations: u64,
}

/// Everything one rank accumulated during a run.
#[derive(Debug)]
pub struct RankReport {
    /// This rank's communicator-world rank.
    pub rank: usize,
    /// Total events submitted to the oracle.
    pub events: u64,
    /// Grammar rule count (record mode; 0 otherwise).
    pub rules: usize,
    /// The recorded thread trace (record mode).
    pub thread_trace: Option<ThreadTrace>,
    /// Per-distance accuracy (predict mode).
    pub accuracy: Vec<(usize, DistanceAccuracy)>,
    /// Per-distance prediction latency (predict mode).
    pub cost: CostProbe,
    /// Predictor synchronization statistics (predict mode).
    pub predict_stats: Option<PredictStats>,
    /// Send-aggregation counters (zero unless aggregation was enabled).
    pub aggregation: AggregationStats,
    /// Resilience counters of the rank's hardened oracle facade (panics
    /// caught, deadline misses, quarantine transitions, degraded time).
    pub resilience: ResilienceStats,
    /// Events a durable recorder failed to journal after a sticky IO
    /// error (0 for in-memory recording and predict mode). Non-zero means
    /// the run completed but its crash-recovery sidecars are incomplete.
    pub dropped_events: u64,
    /// Elastic-world counters (failures detected, replacements, remap
    /// validations); all zero in a fault-free, size-matched run.
    pub elastic: ElasticStats,
}

/// Configuration of prediction-driven send aggregation — the optimization
/// the paper names as the MPI runtime's motivation (§III-B: "aggregating
/// multiple successive MPI send messages"): when the oracle predicts that
/// the next event is another `MPI_Isend` to the same destination, the
/// message is buffered and shipped together with the following ones as a
/// single wire transfer.
#[derive(Debug, Clone, Copy)]
pub struct AggregationConfig {
    /// Minimum predicted probability of "another isend to the same peer
    /// follows" required to hold a message back.
    pub min_probability: f64,
    /// Maximum messages per aggregated transfer.
    pub max_batch: usize,
}

impl Default for AggregationConfig {
    fn default() -> Self {
        AggregationConfig {
            min_probability: 0.9,
            max_batch: 16,
        }
    }
}

/// Counters of the aggregation layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AggregationStats {
    /// Nonblocking sends issued by the application.
    pub logical_sends: u64,
    /// Sends that were buffered based on a prediction.
    pub held_back: u64,
    /// Aggregated transfers flushed (each carried >= 2 messages).
    pub batches: u64,
}

struct PendingBatch {
    dest: usize,
    tag: Tag,
    bufs: Vec<bytes::Bytes>,
}

struct AggState {
    config: AggregationConfig,
    stats: AggregationStats,
    pending: Option<PendingBatch>,
}

pub(crate) struct RankState {
    pub(crate) oracle: HardenedOracle,
    cache: EventCache,
    accuracy: Option<AccuracyProbe>,
    cost: CostProbe,
    distances: Vec<usize>,
    events: u64,
    aggregation: Option<AggState>,
    /// Armed rank fault from the `PYTHIA_CHAOS` plan: `(kind, at)` kills
    /// this rank the chosen way once `events` reaches `at`. `None` on
    /// every rank the plan does not target and on replacement
    /// incarnations (or the replacement would die at the same point).
    fault: Option<(RankFault, u64)>,
    /// Validated trace remaps performed while wrapping (see
    /// [`ElasticStats::remap_validations`]).
    remap_validations: u64,
}

/// Single-owner cell carrying a rank's mutable oracle state.
///
/// The contention-free recording model (DESIGN.md §8) gives each rank
/// thread *exclusive ownership* of its recorder: the rank's MPI façade,
/// its split/dup sub-communicators, and its OpenMP bridge listener all
/// run on the rank's own thread, so no lock is needed on the per-event
/// path — this cell replaces the former `Mutex<RankState>` with a plain
/// `UnsafeCell` plus a misuse detector. The `busy` flag is not a lock:
/// it never spins or blocks. It turns any violation of the ownership
/// contract (re-entrant entry, or a second thread entering the cell
/// concurrently) into an immediate panic instead of a data race, for a
/// cost of two uncontended atomic flag operations per entry.
///
/// Cross-thread observers never touch this cell: they read the
/// immutable snapshots the recorder publishes at flush boundaries
/// (`pythia_core::sync::Published`) and the lock-free shared registry.
pub(crate) struct RankCell {
    state: UnsafeCell<RankState>,
    busy: AtomicBool,
}

// SAFETY: the cell is shared across threads only in the ownership sense
// (Arc clones held by sub-communicators and the OMP bridge of the same
// rank); every entry is dynamically checked to be exclusive by `busy`,
// so two threads can never alias the inner state mutably.
unsafe impl Send for RankCell {}
unsafe impl Sync for RankCell {}

impl RankCell {
    fn new(state: RankState) -> Self {
        RankCell {
            state: UnsafeCell::new(state),
            busy: AtomicBool::new(false),
        }
    }

    /// Enters the rank's state exclusively. Panics if the state is
    /// already entered — which only a contract violation (access from a
    /// foreign thread, or re-entrancy) can cause.
    #[inline]
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut RankState) -> R) -> R {
        struct Reset<'a>(&'a AtomicBool);
        impl Drop for Reset<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        assert!(
            !self.busy.swap(true, Ordering::Acquire),
            "rank state entered concurrently: per-rank oracle state is \
             single-owner (one rank thread) by contract"
        );
        let _reset = Reset(&self.busy);
        // SAFETY: the swap above guarantees exclusive entry; the guard
        // releases the flag even if `f` unwinds.
        f(unsafe { &mut *self.state.get() })
    }

    fn into_inner(self) -> RankState {
        self.state.into_inner()
    }
}

impl RankState {
    /// Submits an already-resolved event id into this rank's stream
    /// (shared by the MPI façade and the OpenMP bridge listener).
    pub(crate) fn submit(
        &mut self,
        id: pythia_core::event::EventId,
    ) -> Option<pythia_core::predict::ObserveOutcome> {
        self.events += 1;
        let outcome = self.oracle.event(id);
        if let Some(probe) = self.accuracy.as_mut() {
            probe.on_event(id);
        }
        outcome
    }

    /// Submits a batch of already-resolved event ids through a single
    /// oracle dispatch ([`HardenedOracle::events`]); the accuracy probe
    /// still sees every event. Returns the last event's outcome.
    pub(crate) fn submit_all(
        &mut self,
        ids: &[pythia_core::event::EventId],
    ) -> Option<pythia_core::predict::ObserveOutcome> {
        self.events += ids.len() as u64;
        let outcome = self.oracle.events(ids);
        if let Some(probe) = self.accuracy.as_mut() {
            for &id in ids {
                probe.on_event(id);
            }
        }
        outcome
    }
}

/// Assembles the per-rank recordings of a run into a [`TraceData`] (rank
/// `i` becomes thread `i`), embedding the registry the run interned into —
/// event ids are only meaningful together with that registry.
///
/// Errors with [`Error::OracleUnavailable`] if ranks are missing or a
/// report has no recording (the run was not in record mode, or the rank's
/// recording oracle panicked and was poisoned).
pub fn assemble_trace(reports: Vec<RankReport>, registry: &SharedRegistry) -> Result<TraceData> {
    let mut reports = reports;
    reports.sort_by_key(|r| r.rank);
    for (i, r) in reports.iter().enumerate() {
        if r.rank != i {
            return Err(Error::OracleUnavailable(format!(
                "missing rank {i} in reports"
            )));
        }
    }
    let threads: Vec<ThreadTrace> = reports
        .into_iter()
        .map(|r| {
            let rank = r.rank;
            r.thread_trace
                .ok_or_else(|| Error::OracleUnavailable(format!("rank {rank} has no recording")))
        })
        .collect::<Result<_>>()?;
    Ok(TraceData::from_threads(threads, registry.snapshot()))
}

/// A communicator that notifies PYTHIA of every MPI call.
///
/// Mirrors the [`Comm`] API; sub-communicators from [`PythiaComm::split`]
/// share the rank's oracle (the paper maintains one event stream per
/// process/thread, across all communicators).
///
/// Generic over the transport: any [`Communicator`] backend works — the
/// in-process threads backend ([`Comm`], the default) and the
/// multi-process socket backend run the same facade, so a recording made
/// over one is byte-identical to the same run over the other.
pub struct PythiaComm<C: Communicator = Comm> {
    comm: C,
    state: Arc<RankCell>,
    registry: SharedRegistry,
}

impl<C: Communicator> PythiaComm<C> {
    /// Wraps a world communicator. `registry` must be shared by all ranks
    /// of the run; in predict mode it should start from the trace's
    /// registry (see [`PythiaComm::registry_for`]).
    ///
    /// Never fails: a trace missing this rank's thread (or whose grammar
    /// panics the predictor build) yields a *bypassed* oracle — the rank
    /// runs with default decisions and reports the degradation in its
    /// [`RankReport::resilience`] stats. Use [`PythiaComm::try_wrap`] to
    /// surface such setup problems as errors instead.
    pub fn wrap(comm: C, mode: &MpiMode, registry: SharedRegistry) -> Self {
        let (oracle, accuracy, distances, remaps) = match mode {
            MpiMode::Vanilla => (
                HardenedOracle::off(ResilienceConfig::default()),
                None,
                Vec::new(),
                0,
            ),
            MpiMode::Record { timestamps } => (
                HardenedOracle::new(
                    Oracle::record(RecordConfig {
                        timestamps: *timestamps,
                        validate: false,
                    }),
                    ResilienceConfig::default(),
                ),
                None,
                Vec::new(),
                0,
            ),
            MpiMode::Predict {
                trace,
                distances,
                map_ranks,
                resilience,
            } => {
                let (view, thread, remaps) = Self::world_view(trace, &comm, *map_ranks);
                let oracle = HardenedOracle::predict_or_bypass(
                    &view,
                    thread,
                    PredictorConfig::default(),
                    resilience.clone(),
                );
                (
                    oracle,
                    Some(AccuracyProbe::new(distances.clone())),
                    distances.clone(),
                    remaps,
                )
            }
        };
        Self::from_parts(comm, registry, oracle, accuracy, distances, remaps)
    }

    /// [`PythiaComm::wrap`] that errors instead of degrading when predict
    /// mode cannot build this rank's predictor (missing thread in the
    /// trace, or a hostile grammar that panics the index build).
    pub fn try_wrap(comm: C, mode: &MpiMode, registry: SharedRegistry) -> Result<Self> {
        if let MpiMode::Predict {
            trace,
            distances,
            map_ranks,
            resilience,
        } = mode
        {
            let (view, thread, remaps) = Self::world_view(trace, &comm, *map_ranks);
            let oracle = HardenedOracle::try_predict(
                &view,
                thread,
                PredictorConfig::default(),
                resilience.clone(),
            )?;
            let accuracy = Some(AccuracyProbe::new(distances.clone()));
            let distances = distances.clone();
            return Ok(Self::from_parts(
                comm, registry, oracle, accuracy, distances, remaps,
            ));
        }
        Ok(Self::wrap(comm, mode, registry))
    }

    /// Wraps a communicator around a prebuilt recording oracle — the hook
    /// [`crate::recording::RecordingSession`] uses to hand each rank a
    /// *durable* (journaling) recorder instead of the in-memory one
    /// [`PythiaComm::wrap`] builds.
    pub(crate) fn wrap_recording(
        comm: C,
        registry: SharedRegistry,
        oracle: HardenedOracle,
    ) -> Self {
        Self::from_parts(comm, registry, oracle, None, Vec::new(), 0)
    }

    /// The trace view a rank of this world predicts from: the reference
    /// trace itself when sizes match (or rank mapping is off), else a
    /// verifier-validated [`TraceData::remap_ranks`] of it onto this
    /// world's size — falling back to the paper's modulo thread mapping
    /// when the remap is invalid (indivisible sizes, or the remapped
    /// protocol fails verification). Returns `(trace, thread, remaps)`.
    ///
    /// The remap is deterministic, so every rank computing it arrives at
    /// the same registry extension and grammars —
    /// [`PythiaComm::registry_for_world`] seeds the shared registry from
    /// the same remap so resolved event ids line up with the predictor's.
    fn world_view(
        trace: &Arc<TraceData>,
        comm: &C,
        map_ranks: bool,
    ) -> (Arc<TraceData>, usize, u64) {
        if map_ranks && trace.thread_count() != comm.size() {
            if let Ok(remapped) = trace.remap_ranks(comm.size()) {
                return (Arc::new(remapped), comm.rank(), 1);
            }
        }
        (
            Arc::clone(trace),
            Self::thread_for(comm, trace, map_ranks),
            0,
        )
    }

    fn thread_for(comm: &C, trace: &TraceData, map_ranks: bool) -> usize {
        if map_ranks {
            comm.rank() % trace.thread_count().max(1)
        } else {
            comm.rank()
        }
    }

    /// The rank fault the `PYTHIA_CHAOS` plan (or an explicit plan, see
    /// [`PythiaComm::arm_rank_faults`]) injects into this communicator's
    /// rank: `Some((kind, at))` only on the targeted world rank's first
    /// incarnation — a replacement must not re-die at the same event.
    fn rank_fault_from_plan(comm: &C, plan: &FaultPlan) -> Option<(RankFault, u64)> {
        if !plan.has_rank_faults()
            || comm.world_rank(comm.rank()) != plan.rank_fault_rank
            || comm.incarnation() > 0
        {
            return None;
        }
        if let Some(n) = plan.rank_panic_at {
            return Some((RankFault::Panic, n));
        }
        if let Some(n) = plan.rank_hang_at {
            return Some((RankFault::Hang, n));
        }
        plan.rank_disconnect_at.map(|n| (RankFault::Disconnect, n))
    }

    /// Arms (or clears) this rank's injected fault from an explicit
    /// plan, overriding whatever `PYTHIA_CHAOS` armed at wrap time.
    /// Tests use this to inject deterministic rank faults without
    /// touching process-global environment.
    pub fn arm_rank_faults(&self, plan: &FaultPlan) {
        let fault = Self::rank_fault_from_plan(&self.comm, plan);
        self.state.with(|st| st.fault = fault);
    }

    fn from_parts(
        comm: C,
        registry: SharedRegistry,
        oracle: HardenedOracle,
        accuracy: Option<AccuracyProbe>,
        distances: Vec<usize>,
        remap_validations: u64,
    ) -> Self {
        let fault = FaultPlan::from_env().and_then(|p| Self::rank_fault_from_plan(&comm, &p));
        PythiaComm {
            comm,
            state: Arc::new(RankCell::new(RankState {
                oracle,
                cache: EventCache::new(),
                accuracy,
                cost: CostProbe::new(),
                distances,
                events: 0,
                aggregation: None,
                fault,
                remap_validations,
            })),
            registry,
        }
    }

    /// Rank within the communicator.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Communicator size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The underlying communicator (escape hatch; calls made through it
    /// are invisible to the oracle).
    pub fn inner(&self) -> &C {
        &self.comm
    }

    /// Per-event liveness + chaos hook, run inside the rank's cell entry
    /// before the event is submitted. Unarmed (the common case) it costs
    /// two predictable branches: a throttled [`Communicator::heartbeat`]
    /// — so a rank grinding through a long communication-free stretch
    /// still proves liveness to the hang detector — and the rank-fault
    /// check, which diverges via [`Communicator::fail_self`] when the
    /// `PYTHIA_CHAOS` plan says this rank dies at this event count.
    #[inline]
    fn observe_rank_chaos(&self, st: &mut RankState) {
        if st.events & 0x3FF == 0 {
            self.comm.heartbeat();
        }
        if let Some((kind, at)) = st.fault {
            if st.events >= at {
                self.comm.fail_self(kind);
            }
        }
    }

    fn event(&self, call: MpiCall, payload: Option<i64>) {
        // No lock on the per-event path: the rank's state is entered
        // through its single-owner cell.
        self.state.with(|st| {
            self.observe_rank_chaos(st);
            if st.oracle.is_off() {
                // Vanilla: no oracle work at all (the paper's baseline).
                return;
            }
            let id = st.cache.resolve(&self.registry, call, payload);
            st.submit(id);
            if call.is_blocking_sync() {
                self.request_predictions(st);
            }
        });
    }

    /// At a blocking call, mimic a runtime that uses the synchronization
    /// time to plan an optimization: predict the event `x` ahead for every
    /// configured distance, scoring accuracy and latency.
    fn request_predictions(&self, st: &mut RankState) {
        if st.accuracy.is_none() {
            return;
        }
        for slot in 0..st.distances.len() {
            let d = st.distances[slot];
            let t0 = Instant::now();
            let prediction = st.oracle.predict_event(d);
            let elapsed = t0.elapsed().as_nanos();
            st.cost.add(d, elapsed);
            let predicted = prediction.most_likely();
            if let Some(probe) = st.accuracy.as_mut() {
                probe.on_prediction(slot, predicted);
            }
        }
    }

    /// Finishes the rank: consumes the wrapper and returns the report.
    ///
    /// Errors with [`Error::OracleUnavailable`] if split/dup communicators
    /// sharing this rank's oracle are still alive.
    pub fn finish(self) -> Result<RankReport> {
        self.finish_into().map(|(report, _)| report)
    }

    /// [`PythiaComm::finish`] that also hands back the underlying
    /// communicator — backends with an explicit goodbye (the socket
    /// backend's `bye`) need it after the report is assembled.
    pub fn finish_into(self) -> Result<(RankReport, C)> {
        self.flush_pending();
        let rank = self.comm.rank();
        let elastic = ElasticStats {
            rank_failures_detected: self.comm.failures_detected(),
            ranks_replaced: u64::from(self.comm.incarnation() > 0),
            remap_validations: self.state.with(|st| st.remap_validations),
        };
        let comm = self.comm;
        let state = Arc::try_unwrap(self.state)
            .map_err(|_| {
                Error::OracleUnavailable(format!(
                    "rank {rank} still has live split/dup communicators at finish"
                ))
            })?
            .into_inner();
        let events = state.events;
        let rules = state.oracle.recorder().map_or(0, |r| r.rule_count());
        let dropped_events = state.oracle.recorder().map_or(0, |r| r.dropped_events());
        let predict_stats = state.oracle.predict_stats();
        let resilience = state.oracle.resilience_stats();
        let aggregation = state
            .aggregation
            .as_ref()
            .map(|a| a.stats)
            .unwrap_or_default();
        let accuracy = state
            .accuracy
            .as_ref()
            .map(|a| a.results())
            .unwrap_or_default();
        let thread_trace = state.oracle.finish()?;
        Ok((
            RankReport {
                rank,
                events,
                rules,
                thread_trace,
                accuracy,
                cost: state.cost,
                predict_stats,
                aggregation,
                resilience,
                dropped_events,
                elastic,
            },
            comm,
        ))
    }

    // ------------------------------------------------------------------
    // Instrumented MPI surface
    // ------------------------------------------------------------------

    /// `MPI_Send` (eager semantics: may be buffered, so it participates
    /// in prediction-driven aggregation like `isend`).
    pub fn send<T: MpiType>(&self, buf: &[T], dest: usize, tag: Tag) {
        self.do_send(MpiCall::Send, buf, dest, tag);
    }

    /// `MPI_Recv`.
    pub fn recv<T: MpiType>(&self, src: Option<usize>, tag: Option<Tag>) -> (Vec<T>, Status) {
        self.flush_pending();
        self.event(MpiCall::Recv, Some(src.map_or(-1, |s| s as i64)));
        self.comm.recv(src, tag)
    }

    /// Enables prediction-driven send aggregation (only effective in
    /// predict mode; see [`AggregationConfig`]).
    pub fn enable_aggregation(&self, config: AggregationConfig) {
        self.state.with(|st| {
            st.aggregation = Some(AggState {
                config,
                stats: AggregationStats::default(),
                pending: None,
            });
        });
    }

    /// Ships any buffered messages (one transfer per destination batch).
    fn flush_pending_locked(&self, st: &mut RankState) {
        if let Some(agg) = st.aggregation.as_mut() {
            if let Some(p) = agg.pending.take() {
                if p.bufs.len() >= 2 {
                    agg.stats.batches += 1;
                }
                self.comm.send_batch_raw(p.bufs, p.dest, p.tag);
            }
        }
    }

    /// Flush entry point used before every operation whose semantics
    /// require buffered sends to be visible (ordering and progress).
    fn flush_pending(&self) {
        self.state.with(|st| self.flush_pending_locked(st));
    }

    /// `MPI_Isend`. With aggregation enabled and the oracle predicting
    /// another send to the same peer, the message is buffered and later
    /// shipped as part of one transfer.
    pub fn isend<T: MpiType>(&self, buf: &[T], dest: usize, tag: Tag) -> Request<T> {
        self.do_send(MpiCall::Isend, buf, dest, tag);
        Request::send(dest, tag)
    }

    /// Shared path of `send`/`isend`: submit the event, then either ship
    /// the message or — when the oracle predicts that the next event is
    /// another send to the same peer — buffer it for an aggregated
    /// transfer.
    fn do_send<T: MpiType>(&self, call: MpiCall, buf: &[T], dest: usize, tag: Tag) {
        // The whole decision runs inside the rank's single-owner cell;
        // the send itself is issued after leaving it (the cell is not a
        // lock, but keeping blocking transport calls outside preserves
        // the old lock-discipline shape and keeps entries short).
        let ship = self.state.with(|st| {
            self.observe_rank_chaos(st);
            if st.oracle.is_off() {
                return true;
            }
            // Submit the event (identical to the un-aggregated path).
            let id = st.cache.resolve(&self.registry, call, Some(dest as i64));
            st.submit(id);
            if st.aggregation.is_none() || st.oracle.predictor().is_none() {
                return true;
            }
            // "Another send to this peer follows" — blocking or nonblocking.
            // The prediction is computed before the aggregation state is
            // borrowed (the hardened facade's watchdog mutates on every query);
            // a degraded oracle answers uninformed, so the message ships
            // immediately — aggregation falls back to no-prefetch behavior.
            let send_id = st
                .cache
                .resolve(&self.registry, MpiCall::Send, Some(dest as i64));
            let isend_id = st
                .cache
                .resolve(&self.registry, MpiCall::Isend, Some(dest as i64));
            let prediction = st.oracle.predict_event(1);
            // A pending batch for a different peer must go out first to
            // preserve per-destination ordering.
            let incompatible = st
                .aggregation
                .as_ref()
                .and_then(|a| a.pending.as_ref())
                .is_some_and(|p| p.dest != dest || p.tag != tag);
            if incompatible {
                self.flush_pending_locked(st);
            }
            let Some(agg) = st.aggregation.as_mut() else {
                return true;
            };
            agg.stats.logical_sends += 1;
            let room = agg
                .pending
                .as_ref()
                .is_none_or(|p| p.bufs.len() < agg.config.max_batch);
            let min_p = agg.config.min_probability;
            let more_coming =
                matches!(
                    prediction.most_likely(),
                    Some(m) if m == send_id || m == isend_id
                ) && prediction.probability(send_id) + prediction.probability(isend_id) >= min_p;
            match agg.pending.as_mut() {
                Some(p) => {
                    p.bufs.push(pythia_minimpi::datatype::to_bytes(buf));
                    agg.stats.held_back += 1;
                    if !(more_coming && room) {
                        self.flush_pending_locked(st);
                    }
                    false
                }
                None if more_coming => {
                    agg.pending = Some(PendingBatch {
                        dest,
                        tag,
                        bufs: vec![pythia_minimpi::datatype::to_bytes(buf)],
                    });
                    agg.stats.held_back += 1;
                    false
                }
                None => true,
            }
        });
        if ship {
            self.comm.send(buf, dest, tag);
        }
    }

    /// `MPI_Irecv`.
    pub fn irecv<T: MpiType>(&self, src: Option<usize>, tag: Option<Tag>) -> Request<T> {
        self.event(MpiCall::Irecv, Some(src.map_or(-1, |s| s as i64)));
        self.comm.irecv(src, tag)
    }

    /// `MPI_Wait` (requests predictions).
    pub fn wait<T: MpiType>(&self, request: Request<T>) -> Option<(Vec<T>, Status)> {
        self.flush_pending();
        self.event(MpiCall::Wait, None);
        self.comm.wait(request)
    }

    /// `MPI_Waitall` (requests predictions).
    pub fn waitall<T: MpiType>(&self, requests: Vec<Request<T>>) -> Vec<Option<(Vec<T>, Status)>> {
        self.flush_pending();
        self.event(MpiCall::Waitall, None);
        self.comm.waitall(requests)
    }

    /// `MPI_Barrier` (requests predictions).
    pub fn barrier(&self) {
        self.flush_pending();
        self.event(MpiCall::Barrier, None);
        self.comm.barrier();
    }

    /// `MPI_Bcast` (requests predictions; payload: root).
    pub fn bcast<T: MpiType>(&self, data: &[T], root: usize) -> Vec<T> {
        self.flush_pending();
        self.event(MpiCall::Bcast, Some(root as i64));
        self.comm.bcast(data, root)
    }

    /// `MPI_Reduce` (requests predictions; payload: reduction op).
    pub fn reduce<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp, root: usize) -> Option<Vec<T>> {
        self.flush_pending();
        self.event(MpiCall::Reduce, Some(op.code()));
        self.comm.reduce(contrib, op, root)
    }

    /// `MPI_Allreduce` (requests predictions; payload: reduction op).
    pub fn allreduce<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp) -> Vec<T> {
        self.flush_pending();
        self.event(MpiCall::Allreduce, Some(op.code()));
        self.comm.allreduce(contrib, op)
    }

    /// `MPI_Alltoall` (requests predictions).
    pub fn alltoall<T: MpiType>(&self, sends: &[Vec<T>]) -> Vec<Vec<T>> {
        self.flush_pending();
        self.event(MpiCall::Alltoall, None);
        self.comm.alltoall(sends)
    }

    /// `MPI_Gather` (requests predictions; payload: root).
    pub fn gather<T: MpiType>(&self, contrib: &[T], root: usize) -> Option<Vec<Vec<T>>> {
        self.flush_pending();
        self.event(MpiCall::Gather, Some(root as i64));
        self.comm.gather(contrib, root)
    }

    /// `MPI_Allgather` (requests predictions).
    pub fn allgather<T: MpiType>(&self, contrib: &[T]) -> Vec<Vec<T>> {
        self.flush_pending();
        self.event(MpiCall::Allgather, None);
        self.comm.allgather(contrib)
    }

    /// `MPI_Scatter` (requests predictions; payload: root).
    pub fn scatter<T: MpiType>(&self, chunks: Option<&[Vec<T>]>, root: usize) -> Vec<T> {
        self.flush_pending();
        self.event(MpiCall::Scatter, Some(root as i64));
        self.comm.scatter(chunks, root)
    }

    /// `MPI_Sendrecv` (payload: destination rank; flushes pending
    /// aggregated sends first — it contains a blocking receive).
    pub fn sendrecv<T: MpiType>(
        &self,
        buf: &[T],
        dest: usize,
        src: Option<usize>,
        tag: Tag,
    ) -> (Vec<T>, Status) {
        self.flush_pending();
        self.event(MpiCall::Sendrecv, Some(dest as i64));
        self.comm.sendrecv(buf, dest, src, tag)
    }

    /// `MPI_Scan` (requests predictions; payload: reduction op).
    pub fn scan<T: MpiReduce>(&self, contrib: &[T], op: ReduceOp) -> Vec<T> {
        self.flush_pending();
        self.event(MpiCall::Scan, Some(op.code()));
        self.comm.scan(contrib, op)
    }

    /// `MPI_Reduce_scatter` (requests predictions; payload: reduction op).
    pub fn reduce_scatter<T: MpiReduce>(&self, chunks: &[Vec<T>], op: ReduceOp) -> Vec<T> {
        self.flush_pending();
        self.event(MpiCall::ReduceScatter, Some(op.code()));
        self.comm.reduce_scatter(chunks, op)
    }

    /// `MPI_Comm_dup`: the duplicate shares this rank's oracle.
    pub fn dup(&self) -> PythiaComm<C> {
        self.flush_pending();
        self.event(MpiCall::CommDup, None);
        PythiaComm {
            comm: self.comm.dup(),
            state: Arc::clone(&self.state),
            registry: Arc::clone(&self.registry),
        }
    }

    /// Submits a non-MPI key point (e.g. an OpenMP region boundary of a
    /// hybrid application) into this rank's event stream.
    pub fn custom_event(&self, name: &'static str, payload: Option<i64>) {
        self.event(MpiCall::Custom(name), payload);
    }

    /// Submits several non-MPI key points at once, through a single state
    /// entry and a single oracle dispatch. Instrumentation points that emit
    /// adjacent events (e.g. a phase marker plus a region boundary) should
    /// prefer this over repeated [`PythiaComm::custom_event`] calls.
    pub fn custom_events(&self, events: &[(&'static str, Option<i64>)]) {
        if events.is_empty() {
            return;
        }
        self.state.with(|st| {
            self.observe_rank_chaos(st);
            if st.oracle.is_off() {
                return;
            }
            let ids: Vec<pythia_core::event::EventId> = events
                .iter()
                .map(|&(name, payload)| {
                    st.cache
                        .resolve(&self.registry, MpiCall::Custom(name), payload)
                })
                .collect();
            st.submit_all(&ids);
        });
    }

    /// An [`pythia_minomp::OmpListener`] that feeds an in-rank OpenMP
    /// runtime's region events into this rank's oracle — one grammar per
    /// rank across both runtime systems, as in the paper's hybrid
    /// applications (§III-B). In predict mode, `policy` (if given) turns
    /// the predicted region duration into the team-size choice.
    pub fn omp_listener(
        &self,
        policy: Option<crate::omp_bridge::DurationPolicy>,
    ) -> Box<dyn pythia_minomp::OmpListener> {
        Box::new(crate::omp_bridge::OmpBridgeListener {
            state: Arc::clone(&self.state),
            registry: Arc::clone(&self.registry),
            cache: EventCache::new(),
            policy,
        })
    }

    /// `MPI_Comm_split`: the sub-communicator shares this rank's oracle.
    pub fn split(&self, color: i64, key: i64) -> PythiaComm<C> {
        self.flush_pending();
        self.event(MpiCall::CommSplit, Some(color));
        PythiaComm {
            comm: self.comm.split(color, key),
            state: Arc::clone(&self.state),
            registry: Arc::clone(&self.registry),
        }
    }
}

/// Registry construction is backend-independent; a monomorphic impl so
/// `PythiaComm::registry_for(..)` keeps resolving without a backend
/// type annotation at every call site.
impl PythiaComm {
    /// The registry a run in `mode` should share across ranks: one
    /// seeded from the trace's registry in predict mode (every rank
    /// shares this published snapshot — the registry is never cloned
    /// per rank), a fresh one otherwise.
    pub fn registry_for(mode: &MpiMode) -> SharedRegistry {
        match mode {
            MpiMode::Predict { trace, .. } => {
                Arc::new(ConcurrentRegistry::from_registry(trace.registry()))
            }
            _ => Arc::new(ConcurrentRegistry::new()),
        }
    }

    /// [`PythiaComm::registry_for`] for a run whose world size may differ
    /// from the reference trace: when predict mode maps ranks onto a
    /// resized world, the shared registry must be seeded from the *same*
    /// validated [`TraceData::remap_ranks`] view the per-rank predictors
    /// are built from — the remap appends rewritten peer descriptors, and
    /// seeding from the original registry would let runtime interning
    /// assign those ids in a different order than the remapped grammars
    /// reference. The remap is deterministic, so this seed and every
    /// rank's [`PythiaComm::wrap`]-time remap agree exactly.
    pub fn registry_for_world(mode: &MpiMode, world_size: usize) -> SharedRegistry {
        if let MpiMode::Predict {
            trace,
            map_ranks: true,
            ..
        } = mode
        {
            if trace.thread_count() != world_size {
                if let Ok(remapped) = trace.remap_ranks(world_size) {
                    return Arc::new(ConcurrentRegistry::from_registry(remapped.registry()));
                }
            }
        }
        Self::registry_for(mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_minimpi::World;

    /// Runs a tiny app in the given mode and returns per-rank reports plus
    /// the registry the run interned into.
    fn run_app_with_registry(
        size: usize,
        mode: MpiMode,
        iters: usize,
    ) -> (Vec<RankReport>, SharedRegistry) {
        let registry = PythiaComm::registry_for(&mode);
        let reports = run_app_in(size, mode, iters, &registry);
        (reports, registry)
    }

    fn run_app(size: usize, mode: MpiMode, iters: usize) -> Vec<RankReport> {
        run_app_with_registry(size, mode, iters).0
    }

    fn run_app_in(
        size: usize,
        mode: MpiMode,
        iters: usize,
        registry: &SharedRegistry,
    ) -> Vec<RankReport> {
        World::run(size, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(registry));
            for _ in 0..iters {
                let next = (pc.rank() + 1) % pc.size();
                let prev = (pc.rank() + pc.size() - 1) % pc.size();
                let r1 = pc.isend(&[pc.rank() as u64], next, 0);
                let r2 = pc.irecv::<u64>(Some(prev), Some(0));
                pc.waitall(vec![r1, r2]);
                pc.allreduce(&[1.0f64], ReduceOp::Sum);
            }
            pc.barrier();
            pc.finish().unwrap()
        })
    }

    /// Like [`run_app_in`] but with XOR-pair communication (`rank ^ 1`):
    /// a world of `2n` ranks is exactly `n` independent copies of the
    /// 2-rank world, matching the blockwise semantics of
    /// [`TraceData::remap_ranks`].
    fn run_pairwise_app(
        size: usize,
        mode: &MpiMode,
        iters: usize,
        registry: &SharedRegistry,
    ) -> Vec<RankReport> {
        World::run(size, |comm| {
            let pc = PythiaComm::wrap(comm, mode, Arc::clone(registry));
            for _ in 0..iters {
                let partner = pc.rank() ^ 1;
                let r1 = pc.isend(&[pc.rank() as u64], partner, 0);
                let r2 = pc.irecv::<u64>(Some(partner), Some(0));
                pc.waitall(vec![r1, r2]);
                pc.allreduce(&[1.0f64], ReduceOp::Sum);
            }
            pc.barrier();
            pc.finish().unwrap()
        })
    }

    #[test]
    fn vanilla_records_nothing() {
        let reports = run_app(2, MpiMode::Vanilla, 3);
        for r in reports {
            assert_eq!(r.events, 0);
            assert!(r.thread_trace.is_none());
        }
    }

    #[test]
    fn record_collects_events_and_grammar() {
        let reports = run_app(2, MpiMode::record(), 10);
        for r in &reports {
            // 4 events per iteration + final barrier.
            assert_eq!(r.events, 41);
            assert!(r.rules >= 1);
            let t = r.thread_trace.as_ref().unwrap();
            assert_eq!(t.event_count, 41);
            // Fault-free, size-matched run: every elastic counter is 0.
            assert_eq!(r.elastic, ElasticStats::default());
        }
    }

    #[test]
    fn resized_world_predicts_through_validated_remap() {
        // Record with 2 ranks, predict with 4: the facade remaps the
        // reference trace blockwise onto the larger world instead of
        // falling back to the modulo thread mapping.
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let reports = run_pairwise_app(2, &mode, 20, &registry);
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());

        let mode = MpiMode::predict_mapped(Arc::clone(&trace), vec![1]);
        let registry = PythiaComm::registry_for_world(&mode, 4);
        let reports = run_pairwise_app(4, &mode, 20, &registry);
        for r in reports {
            assert_eq!(r.elastic.remap_validations, 1);
            assert_eq!(r.elastic.rank_failures_detected, 0);
            assert_eq!(r.elastic.ranks_replaced, 0);
            assert!(!r.resilience.poisoned, "remapped predictor failed to build");
            let (_, acc) = r.accuracy[0];
            assert!(
                acc.accuracy() > 0.8,
                "rank {} accuracy {} through remapped trace",
                r.rank,
                acc.accuracy()
            );
        }
    }

    #[test]
    fn indivisible_resize_falls_back_to_modulo_mapping() {
        // 2 → 3 is not a valid blockwise remap; the facade keeps the
        // paper's modulo mapping and reports no remap validation.
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let reports = run_pairwise_app(2, &mode, 10, &registry);
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());

        let mode = MpiMode::predict_mapped(Arc::clone(&trace), vec![1]);
        let registry = PythiaComm::registry_for_world(&mode, 3);
        let reports = World::run(3, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            pc.barrier();
            pc.allreduce(&[1.0f64], ReduceOp::Sum);
            pc.barrier();
            pc.finish().unwrap()
        });
        for r in reports {
            assert_eq!(r.elastic.remap_validations, 0);
            assert!(!r.resilience.poisoned, "modulo fallback must still build");
        }
    }

    #[test]
    fn record_then_predict_is_accurate() {
        let (reports, registry) = run_app_with_registry(2, MpiMode::record(), 20);
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());
        let reports = run_app(2, MpiMode::predict(Arc::clone(&trace)), 20);
        for r in reports {
            assert_eq!(r.accuracy.len(), 1);
            let (d, acc) = r.accuracy[0];
            assert_eq!(d, 1);
            assert!(acc.total() > 0);
            assert!(acc.accuracy() > 0.8, "accuracy {}", acc.accuracy());
            assert!(r.cost.mean_ns(1).is_some());
            let st = r.predict_stats.unwrap();
            assert!(st.matched > 0);
        }
    }

    #[test]
    fn predict_longer_distances_also_scored() {
        let (reports, registry) = run_app_with_registry(2, MpiMode::record(), 30);
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());
        let mode = MpiMode::predict_distances(trace, vec![1, 4, 16]);
        let reports = run_app(2, mode, 30);
        for r in reports {
            assert_eq!(r.accuracy.len(), 3);
            for (d, acc) in &r.accuracy {
                assert!(acc.total() > 0, "distance {d} never scored");
            }
            // Distance-1 accuracy should be at least as good as distance-16.
            let a1 = r.accuracy[0].1.accuracy();
            let a16 = r.accuracy[2].1.accuracy();
            assert!(a1 >= a16 - 0.2, "a1={a1} a16={a16}");
        }
    }

    #[test]
    fn batched_custom_events_match_sequential() {
        // Record with the batched submission path…
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let reports = World::run(1, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            for i in 0..20i64 {
                pc.custom_events(&[("phase", Some(i % 2)), ("step", None)]);
                pc.barrier();
            }
            pc.finish().unwrap()
        });
        assert_eq!(reports[0].events, 60);
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());

        // …then predict over it submitting the same points one by one: the
        // streams must line up (batching is submission-order-preserving).
        let mode = MpiMode::predict(Arc::clone(&trace));
        let registry = PythiaComm::registry_for(&mode);
        let reports = World::run(1, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            for i in 0..20i64 {
                pc.custom_event("phase", Some(i % 2));
                pc.custom_event("step", None);
                pc.barrier();
            }
            pc.finish().unwrap()
        });
        let st = reports[0].predict_stats.unwrap();
        assert_eq!(st.observed, 60);
        assert!(st.matched as f64 / st.observed as f64 > 0.9);
    }

    #[test]
    fn split_shares_event_stream() {
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let reports = World::run(4, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            {
                let row = pc.split((pc.rank() / 2) as i64, pc.rank() as i64);
                row.barrier();
                row.allreduce(&[1u64], ReduceOp::Sum);
            }
            pc.barrier();
            pc.finish().unwrap()
        });
        for r in reports {
            // split + barrier + allreduce + barrier = 4 events.
            assert_eq!(r.events, 4);
        }
    }

    #[test]
    fn finish_with_live_split_is_an_error_not_a_panic() {
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let errors = World::run(2, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            let row = pc.split(0, pc.rank() as i64);
            row.barrier();
            let err = pc.finish().unwrap_err();
            matches!(err, pythia_core::error::Error::OracleUnavailable(_))
        });
        assert!(errors.into_iter().all(|e| e));
    }

    #[test]
    fn panicking_predictor_degrades_rank_to_defaults() {
        use pythia_core::resilience::FaultPlan;

        let (reports, registry) = run_app_with_registry(2, MpiMode::record(), 10);
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());
        let resilience = ResilienceConfig {
            faults: Some(FaultPlan {
                panic_on_predict: true,
                ..FaultPlan::none()
            }),
            ..ResilienceConfig::default()
        };
        let mode = MpiMode::predict_resilient(trace, vec![1], resilience);
        // The session must run to completion — every prediction panics
        // inside the facade's guard, the rank just loses its advice.
        let silent_guard = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let reports = run_app(2, mode, 10);
        std::panic::set_hook(silent_guard);
        for r in reports {
            assert!(r.events > 0);
            assert!(r.resilience.poisoned);
            assert_eq!(r.resilience.panics_caught, 1);
            assert!(r.resilience.quarantine_transitions >= 1);
            assert!(r.resilience.degraded_ns > 0);
            let st = r.predict_stats.unwrap();
            assert_eq!(st.panics_caught, 1);
            // The probe keeps scoring; every answer is the uninformed
            // default, so nothing is correct — but nothing crashed.
            assert!(r.accuracy[0].1.total() > 0);
            assert_eq!(r.accuracy[0].1.accuracy(), 0.0);
        }
    }

    #[test]
    fn missing_thread_degrades_with_wrap_and_errors_with_try_wrap() {
        // Record with 1 rank, predict with 2: rank 1 has no trace thread.
        let (reports, registry) = run_app_with_registry(1, MpiMode::record(), 5);
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());
        let mode = MpiMode::predict(trace);
        let registry = PythiaComm::registry_for(&mode);
        let reports = World::run(2, |comm| {
            let rank = comm.rank();
            let degraded = PythiaComm::try_wrap(comm.dup(), &mode, Arc::clone(&registry)).is_err();
            assert_eq!(degraded, rank == 1, "only rank 1 lacks a trace thread");
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            pc.barrier();
            pc.allreduce(&[1.0f64], ReduceOp::Sum);
            pc.barrier();
            pc.finish().unwrap()
        });
        for r in reports {
            if r.rank == 1 {
                assert!(r.resilience.poisoned, "{:?}", r.resilience);
            } else {
                assert!(!r.resilience.poisoned);
            }
        }
    }
}
