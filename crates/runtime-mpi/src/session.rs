//! The instrumented communicator: every MPI call submits a PYTHIA event;
//! blocking calls request predictions (paper §III-B).
//!
//! [`PythiaComm`] implements [`Communicator`] by forwarding the backend's
//! primitives and overriding one hook, [`Communicator::intercept`], which
//! every provided MPI call invokes exactly once on entry.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use pythia_core::error::{Error, Result};
use pythia_core::event::{ConcurrentRegistry, EventId};
use pythia_core::oracle::Oracle;
use pythia_core::predict::{ObserveOutcome, PredictorConfig};
use pythia_core::record::RecordConfig;
use pythia_core::resilience::{FaultPlan, HardenedOracle, ResilienceConfig};
use pythia_core::trace::TraceData;
use pythia_minimpi::{Comm, Communicator, Message, MpiCall, NetworkStats, RankFault, Tag};

use crate::events::EventCache;
use crate::probe::{AccuracyProbe, CostProbe};

mod aggregation;
mod mode;
mod report;

pub use crate::events::SharedRegistry;
pub use aggregation::{AggregationConfig, AggregationStats};
pub use mode::MpiMode;
pub use report::{assemble_trace, ElasticStats, RankReport};

use aggregation::AggState;

pub(crate) struct RankState<C> {
    pub(crate) oracle: HardenedOracle,
    pub(crate) cache: EventCache,
    accuracy: Option<AccuracyProbe>,
    cost: CostProbe,
    distances: Vec<usize>,
    events: u64,
    aggregation: Option<AggState<C>>,
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
/// (`pythia_core::sync::Published`) and the shared registry.
pub(crate) struct RankCell<C> {
    state: UnsafeCell<RankState<C>>,
    busy: AtomicBool,
}

// SAFETY: the cell is shared across threads only in the ownership sense
// (Arc clones held by sub-communicators and the OMP bridge of the same
// rank); every entry is dynamically checked to be exclusive by `busy`,
// so two threads can never alias the inner state mutably. The only `C`
// inside is a held batch's communicator handle: it is used only by the
// rank's `PythiaComm` handles, which are not `Send` unless `C` is `Sync`,
// and may be dropped wherever the cell is, hence `C: Send`.
unsafe impl<C: Send> Send for RankCell<C> {}
unsafe impl<C: Send> Sync for RankCell<C> {}

impl<C> RankCell<C> {
    fn new(state: RankState<C>) -> Self {
        RankCell {
            state: UnsafeCell::new(state),
            busy: AtomicBool::new(false),
        }
    }

    /// Enters the rank's state exclusively. Panics if the state is
    /// already entered — which only a contract violation (access from a
    /// foreign thread, or re-entrancy) can cause.
    #[inline]
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut RankState<C>) -> R) -> R {
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

    fn into_inner(self) -> RankState<C> {
        self.state.into_inner()
    }
}

impl<C> RankState<C> {
    /// Submits an already-resolved event id into this rank's stream
    /// (shared by the MPI façade and the OpenMP bridge listener).
    pub(crate) fn submit(&mut self, id: EventId) -> Option<ObserveOutcome> {
        self.events += 1;
        let outcome = self.oracle.event(id);
        if let Some(probe) = self.accuracy.as_mut() {
            probe.on_event(id);
        }
        outcome
    }
}

impl<C: Communicator> RankState<C> {
    /// Ships the held aggregation batch, if any: done before every call
    /// whose semantics need buffered sends visible (ordering, progress).
    fn flush_pending(&mut self) {
        if let Some(agg) = self.aggregation.as_mut() {
            agg.flush();
        }
    }

    /// At a blocking call, mimic a runtime that uses the synchronization
    /// time to plan an optimization: predict the event `x` ahead for every
    /// configured distance, scoring accuracy and latency.
    fn request_predictions(&mut self) {
        let Some(probe) = self.accuracy.as_mut() else {
            return;
        };
        for (slot, &d) in self.distances.iter().enumerate() {
            let t0 = Instant::now();
            let prediction = self.oracle.predict_event(d);
            self.cost.add(d, t0.elapsed().as_nanos());
            probe.on_prediction(slot, prediction.most_likely());
        }
    }
}

/// A communicator that notifies PYTHIA of every MPI call.
///
/// Implements [`Communicator`] over any backend `C` — the in-process
/// threads backend ([`Comm`], the default) or the multi-process socket
/// backend — so a recording made over one is byte-identical to the same
/// run over the other. Sub-communicators from `split`/`dup` share the
/// rank's oracle (the paper maintains one event stream per
/// process/thread, across all communicators).
pub struct PythiaComm<C: Communicator = Comm> {
    comm: Arc<C>,
    state: Arc<RankCell<C>>,
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
        let thread = if map_ranks {
            comm.rank() % trace.thread_count().max(1)
        } else {
            comm.rank()
        };
        (Arc::clone(trace), thread, 0)
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
            comm: Arc::new(comm),
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

    /// Per-event liveness + chaos hook, run inside the rank's cell entry
    /// before the event is submitted. Unarmed (the common case) it costs
    /// two predictable branches: a throttled [`Communicator::heartbeat`]
    /// — so a rank grinding through a long communication-free stretch
    /// still proves liveness to the hang detector — and the rank-fault
    /// check, which diverges via [`Communicator::fail_self`] when the
    /// `PYTHIA_CHAOS` plan says this rank dies at this event count.
    #[inline]
    fn observe_rank_chaos(&self, st: &mut RankState<C>) {
        if st.events & 0x3FF == 0 {
            self.comm.heartbeat();
        }
        if let Some((kind, at)) = st.fault {
            if st.events >= at {
                self.comm.fail_self(kind);
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
        self.state.with(|st| st.flush_pending());
        let rank = self.comm.rank();
        let elastic = ElasticStats {
            rank_failures_detected: self.comm.failures_detected(),
            ranks_replaced: u64::from(self.comm.incarnation() > 0),
            remap_validations: self.state.with(|st| st.remap_validations),
        };
        let state = Arc::try_unwrap(self.state)
            .map_err(|_| {
                Error::OracleUnavailable(format!(
                    "rank {rank} still has live split/dup communicators at finish"
                ))
            })?
            .into_inner();
        let comm = Arc::into_inner(self.comm).expect("no held batch outlives the flush");
        let recorder = state.oracle.recorder();
        let report = RankReport {
            rank,
            events: state.events,
            rules: recorder.map_or(0, |r| r.rule_count()),
            dropped_events: recorder.map_or(0, |r| r.dropped_events()),
            predict_stats: state.oracle.predict_stats(),
            resilience: state.oracle.resilience_stats(),
            aggregation: state.aggregation.map(|a| a.stats).unwrap_or_default(),
            accuracy: state.accuracy.map(|a| a.results()).unwrap_or_default(),
            cost: state.cost,
            elastic,
            thread_trace: state.oracle.finish()?,
        };
        Ok((report, comm))
    }

    /// Enables prediction-driven send aggregation (only effective in
    /// predict mode; see [`AggregationConfig`]).
    pub fn enable_aggregation(&self, config: AggregationConfig) {
        self.state
            .with(|st| st.aggregation = Some(AggState::new(config)));
    }

    /// Submits a non-MPI key point (e.g. an OpenMP region boundary of a
    /// hybrid application) into this rank's event stream.
    pub fn custom_event(&self, name: &'static str, payload: Option<i64>) {
        self.custom_events(&[(name, payload)]);
    }

    /// Submits several non-MPI key points at once, through a single state
    /// entry. Instrumentation points that emit adjacent events (e.g. a
    /// phase marker plus a region boundary) should prefer this over
    /// repeated [`PythiaComm::custom_event`] calls.
    pub fn custom_events(&self, events: &[(&'static str, Option<i64>)]) {
        if events.is_empty() {
            return;
        }
        self.state.with(|st| {
            self.observe_rank_chaos(st);
            if st.oracle.is_off() {
                return;
            }
            for &(name, payload) in events {
                let id = st.cache.resolve_custom(&self.registry, name, payload);
                st.submit(id);
            }
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
    ) -> Box<dyn pythia_minomp::OmpListener>
    where
        C: Send + 'static,
    {
        Box::new(crate::omp_bridge::OmpBridgeListener {
            state: Arc::clone(&self.state),
            registry: Arc::clone(&self.registry),
            policy,
        })
    }
}

/// The instrumented call surface: the backend's primitives, forwarded, and
/// the one hook every provided MPI call enters through.
impl<C: Communicator> Communicator for PythiaComm<C> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }
    fn size(&self) -> usize {
        self.comm.size()
    }
    fn id(&self) -> u64 {
        self.comm.id()
    }
    fn world_rank(&self, local: usize) -> usize {
        self.comm.world_rank(local)
    }
    fn incarnation(&self) -> u64 {
        self.comm.incarnation()
    }

    /// Sends pass through aggregation: held back when the oracle predicts
    /// another send to the same peer (see [`AggregationConfig`]).
    fn deposit(&self, dest: usize, msgs: Vec<Message>) {
        let ship = self
            .state
            .with(|st| st.hold(&self.registry, &self.comm, dest, msgs));
        if let Some(msgs) = ship {
            self.comm.deposit(dest, msgs);
        }
    }

    fn take(&self, src: Option<usize>, tag: Option<Tag>) -> Message {
        self.comm.take(src, tag)
    }
    fn deposit_take(
        &self,
        dest: usize,
        msgs: Vec<Message>,
        src: Option<usize>,
        tag: Option<Tag>,
    ) -> Message {
        self.comm.deposit_take(dest, msgs, src, tag)
    }
    fn try_take(&self, src: Option<usize>, tag: Option<Tag>) -> Option<Message> {
        self.comm.try_take(src, tag)
    }
    fn probe(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        self.comm.probe(src, tag)
    }
    fn exchange(&self, mine: Vec<Bytes>) -> Arc<Vec<Vec<Bytes>>> {
        self.comm.exchange(mine)
    }
    fn next_split_seq(&self) -> u64 {
        self.comm.next_split_seq()
    }

    /// The sub-communicator shares this rank's oracle.
    fn register_split(&self, seq: u64, color: i64, members: Vec<usize>, my_rank: usize) -> Self {
        PythiaComm {
            comm: Arc::new(self.comm.register_split(seq, color, members, my_rank)),
            state: Arc::clone(&self.state),
            registry: Arc::clone(&self.registry),
        }
    }

    fn network_stats(&self) -> NetworkStats {
        self.comm.network_stats()
    }
    fn poisoned(&self) -> Option<usize> {
        self.comm.poisoned()
    }
    fn failures_detected(&self) -> u64 {
        self.comm.failures_detected()
    }
    fn heartbeat(&self) {
        self.comm.heartbeat()
    }
    fn fail_self(&self, fault: RankFault) -> ! {
        self.comm.fail_self(fault)
    }

    /// Flushes held sends (except at `send`, `isend` and `irecv`), submits
    /// the call's event, and requests predictions at blocking calls.
    fn intercept(&self, call: MpiCall) {
        self.state.with(|st| {
            if !matches!(
                call,
                MpiCall::Send(_) | MpiCall::Isend(_) | MpiCall::Irecv(_)
            ) {
                st.flush_pending();
            }
            self.observe_rank_chaos(st);
            if st.oracle.is_off() {
                // Vanilla: no oracle work at all (the paper's baseline).
                return;
            }
            let id = st.cache.resolve(&self.registry, call);
            st.submit(id);
            if call.is_blocking_sync() {
                st.request_predictions();
            }
        });
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
    use pythia_minimpi::{ReduceOp, World};

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

    /// A cell around a vanilla rank's state.
    fn vanilla_cell() -> RankCell<Comm> {
        RankCell::new(RankState {
            oracle: HardenedOracle::off(ResilienceConfig {
                faults: Some(FaultPlan::none()),
                ..ResilienceConfig::default()
            }),
            cache: EventCache::new(),
            accuracy: None,
            cost: CostProbe::new(),
            distances: Vec::new(),
            events: 0,
            aggregation: None,
            fault: None,
            remap_validations: 0,
        })
    }

    #[test]
    fn rank_cell_refuses_a_reentrant_entry() {
        let cell = vanilla_cell();
        let reentered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.with(|_| cell.with(|_| ()));
        }));
        assert!(reentered.is_err(), "a re-entrant `with` must panic");
        // The flag is released on unwind: the owner enters again.
        assert_eq!(cell.with(|st| st.events), 0);
    }

    #[test]
    fn rank_cell_refuses_a_second_thread() {
        let cell = &vanilla_cell();
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (leave_tx, leave_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let owner = s.spawn(move || {
                cell.with(|_| {
                    entered_tx.send(()).unwrap();
                    leave_rx.recv().unwrap();
                })
            });
            entered_rx.recv().unwrap();
            let intruder = s.spawn(|| cell.with(|_| ())).join();
            leave_tx.send(()).unwrap();
            owner.join().unwrap();
            assert!(
                intruder.is_err(),
                "an entry while another thread holds the cell must panic"
            );
        });
        assert_eq!(cell.with(|st| st.events), 0);
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
