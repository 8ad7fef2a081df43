//! Crash-consistent multi-rank recording sessions.
//!
//! [`MpiMode::Record`](crate::session::MpiMode) keeps each rank's
//! recording purely in memory: a crash at 99% of a long reference run
//! loses everything. A [`RecordingSession`] instead owns the on-disk
//! identity of the run — each rank wraps its communicator through
//! [`RecordingSession::wrap`], which hands it a *durable* recorder
//! ([`Recorder::durable`]): every event is journaled to
//! `<trace>.r<rank>.journal`, the grammar is checkpointed on a cadence,
//! and new registry descriptors are journaled as deltas (see
//! [`pythia_core::persist`] for budgets and the bounded-loss guarantee).
//!
//! When every rank finished, [`RecordingSession::finalize`] assembles the
//! per-rank recordings, atomically saves the checksummed trace file, and
//! removes the now-redundant sidecars. If the run dies first — a rank
//! panics, the process is `kill -9`ed — the recorder's drop guard
//! journals each unwinding rank's buffered tail, and the sidecar files
//! survive regardless: [`RecordingSession::recover`] (or the
//! `pythia-analyze recover` CLI) then assembles the recording from the
//! surviving ranks, losing at most one flush budget of trailing events
//! per rank.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use pythia_core::error::{Error, Result};
use pythia_core::event::ConcurrentRegistry;
use pythia_core::oracle::Oracle;
use pythia_core::persist::{remove_sidecars, salvage_rank_events, PersistConfig, RecoverReport};
use pythia_core::record::{RecordConfig, RecordSnapshot, Recorder};
use pythia_core::resilience::{HardenedOracle, ResilienceConfig};
use pythia_core::sync::Published;
use pythia_core::trace::TraceData;
use pythia_minimpi::Communicator;

use crate::session::{assemble_trace, PythiaComm, RankReport, SharedRegistry};

/// A crash-consistent reference-execution recording, tied to the trace
/// file it will finalize into. Shared by reference across the rank
/// threads of a run.
pub struct RecordingSession {
    trace_path: PathBuf,
    registry: SharedRegistry,
    timestamps: bool,
    persist: PersistConfig,
    /// Highest rank + 1 ever wrapped: [`RecordingSession::finalize`]
    /// refuses to assemble fewer reports than ranks that recorded
    /// (a silently truncated trace would defeat the whole durability
    /// story — the missing rank's data is still in its sidecars).
    wrapped: AtomicUsize,
    /// Per-rank publication slots ([`Recorder::share_snapshot`]),
    /// registered once at [`RecordingSession::wrap`] time. The mutex
    /// guards only this registration vector; reading a rank's live
    /// progress through a slot never waits for the recording rank's work.
    progress: Mutex<Vec<Option<Arc<Published<RecordSnapshot>>>>>,
}

impl RecordingSession {
    /// A session finalizing into `trace_path`, with timestamps on and the
    /// default durability budgets ([`PersistConfig::default`]).
    pub fn new(trace_path: impl Into<PathBuf>) -> Self {
        Self::with_persist(trace_path, true, PersistConfig::default())
    }

    /// A session with explicit timestamping and durability budgets. The
    /// session's shared registry is journaled alongside the events (any
    /// [`PersistConfig::registry`] handle in `persist` is replaced).
    pub fn with_persist(
        trace_path: impl Into<PathBuf>,
        timestamps: bool,
        persist: PersistConfig,
    ) -> Self {
        RecordingSession {
            trace_path: trace_path.into(),
            registry: Arc::new(ConcurrentRegistry::new()),
            timestamps,
            persist,
            wrapped: AtomicUsize::new(0),
            progress: Mutex::new(Vec::new()),
        }
    }

    /// The trace file this session finalizes into.
    pub fn path(&self) -> &Path {
        &self.trace_path
    }

    /// The registry shared by every rank of this session.
    pub fn registry(&self) -> &SharedRegistry {
        &self.registry
    }

    /// Live progress of rank `rank`'s recording: the immutable snapshot
    /// it published at its most recent checkpoint boundary (see
    /// [`pythia_core::sync::Published`]). Reading never waits for the
    /// recording rank's work and never observes a half-built grammar.
    /// `None` if the rank was never wrapped.
    pub fn progress(&self, rank: usize) -> Option<RecordSnapshot> {
        let slot = self.progress.lock().get(rank).cloned().flatten()?;
        Some(slot.get())
    }

    /// Wraps rank `comm.rank()`'s communicator around a durable recorder:
    /// the rank's events are journaled to
    /// `<trace>.r<rank>.journal` as it runs. Errors if the journal cannot
    /// be created.
    pub fn wrap<C: Communicator>(&self, comm: C) -> Result<PythiaComm<C>> {
        let recorder = self.durable_recorder(comm.rank())?;
        Ok(self.finish_wrap(comm, recorder))
    }

    /// [`RecordingSession::wrap`] for worlds that may admit *replacement*
    /// ranks (elastic worlds): a first-incarnation rank wraps normally; a
    /// replacement (`comm.incarnation() > 0`) first salvages the dead
    /// incarnation's journaled prefix ([`salvage_rank_events`]) and
    /// replays it through a fresh durable recorder — Sequitur is
    /// deterministic, so the rebuilt predictor state is byte-identical to
    /// the dead rank's at its last flush — then re-journals as it goes.
    ///
    /// Returns the wrapper plus the number of recovered events `n`: the
    /// application must fast-forward past its first `n` logical events
    /// (they are already recorded; the communication they performed
    /// already happened — the world's mailboxes survive a rank's death).
    pub fn wrap_or_resume<C: Communicator>(&self, comm: C) -> Result<(PythiaComm<C>, u64)> {
        if comm.incarnation() == 0 {
            return Ok((self.wrap(comm)?, 0));
        }
        let rank = comm.rank();
        // Salvage BEFORE building the recorder: creating the durable
        // journal truncates the dead incarnation's file. An unsalvageable
        // rank (died before journaling anything) resumes from zero.
        let salvaged = match salvage_rank_events(&self.trace_path, rank) {
            Ok(s) => s.events,
            Err(_) => Vec::new(),
        };
        let mut recorder = self.durable_recorder(rank)?;
        for &(e, ts) in &salvaged {
            recorder.record_at(e, ts);
        }
        Ok((self.finish_wrap(comm, recorder), salvaged.len() as u64))
    }

    fn durable_recorder(&self, rank: usize) -> Result<Recorder> {
        self.wrapped.fetch_max(rank + 1, Ordering::SeqCst);
        let mut persist = self.persist.clone();
        persist.registry = Some(Arc::clone(&self.registry));
        Recorder::durable(
            RecordConfig {
                timestamps: self.timestamps,
                validate: false,
            },
            &self.trace_path,
            rank,
            persist,
        )
    }

    fn finish_wrap<C: Communicator>(&self, comm: C, mut recorder: Recorder) -> PythiaComm<C> {
        let rank = comm.rank();
        let slot = recorder.share_snapshot();
        {
            let mut progress = self.progress.lock();
            if progress.len() <= rank {
                progress.resize(rank + 1, None);
            }
            progress[rank] = Some(slot);
        }
        let oracle = HardenedOracle::new(Oracle::Record(recorder), ResilienceConfig::default());
        PythiaComm::wrap_recording(comm, Arc::clone(&self.registry), oracle)
    }

    /// Assembles the per-rank reports into the final trace, atomically
    /// saves it to [`RecordingSession::path`], and removes the recovery
    /// sidecars (they are redundant once the checksummed final file is
    /// durable).
    ///
    /// Errors if ranks are missing or a rank has no recording
    /// ([`assemble_trace`]) or if the save fails — in both cases the
    /// sidecars are left in place, so [`RecordingSession::recover`] can
    /// still salvage the run.
    pub fn finalize(self, reports: Vec<RankReport>) -> Result<TraceData> {
        let expected = self.wrapped.load(Ordering::SeqCst);
        if reports.len() < expected {
            return Err(Error::OracleUnavailable(format!(
                "only {} of {expected} recorded ranks reported: missing rank(s); \
                 sidecars kept for recovery",
                reports.len()
            )));
        }
        let trace = assemble_trace(reports, &self.registry)?;
        trace.save(&self.trace_path)?;
        remove_sidecars(&self.trace_path);
        Ok(trace)
    }

    /// Rebuilds an interrupted recording from whatever survived at
    /// `trace_path`: the final file if it is intact, otherwise the
    /// newest valid checkpoint plus journal suffix of every rank that
    /// left sidecars (see [`TraceData::recover`]).
    pub fn recover(trace_path: impl AsRef<Path>) -> Result<(TraceData, RecoverReport)> {
        TraceData::recover(trace_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_minimpi::World;

    fn session_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pythia-recsess-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn finalize_saves_trace_and_removes_sidecars() {
        let dir = session_dir("ok");
        let path = dir.join("run.pythia");
        let session = RecordingSession::with_persist(
            &path,
            true,
            PersistConfig {
                flush_events: 4,
                ..PersistConfig::default()
            },
        );
        let reports = World::run(2, |comm| {
            let pc = session.wrap(comm).unwrap();
            for i in 0..30i64 {
                pc.custom_event("step", Some(i % 3));
            }
            pc.barrier();
            pc.finish().unwrap()
        });
        // Journals exist while the run is un-finalized.
        assert!(pythia_core::persist::journal_path(&path, 0).exists());
        let trace = session.finalize(reports).unwrap();
        assert_eq!(trace.thread_count(), 2);
        assert!(path.exists());
        assert!(!pythia_core::persist::journal_path(&path, 0).exists());
        assert!(!pythia_core::persist::journal_path(&path, 1).exists());
        // The saved file loads strictly (checksummed) and matches.
        let loaded = TraceData::load(&path).unwrap();
        assert_eq!(loaded.thread(0).unwrap().event_count, 31);
        assert!(loaded.registry().lookup("step", Some(2)).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_exposes_live_recording_state() {
        let dir = session_dir("progress");
        let path = dir.join("run.pythia");
        let session = RecordingSession::with_persist(
            &path,
            false,
            PersistConfig {
                flush_events: 4,
                snapshot_events: 16,
                ..PersistConfig::default()
            },
        );
        assert!(session.progress(0).is_none());
        let reports = World::run(2, |comm| {
            let rank = comm.rank();
            let pc = session.wrap(comm).unwrap();
            for i in 0..200i64 {
                pc.custom_event("step", Some(i % 3));
                // Poll the *other* rank's published progress while it is
                // still recording: lock-free for the recording rank, and
                // every observed snapshot is self-consistent.
                if let Some(snap) = session.progress(1 - rank) {
                    assert_eq!(snap.grammar.unfold().len() as u64, snap.event_count);
                }
            }
            pc.finish().unwrap()
        });
        // finish published each rank's final state.
        for rank in 0..2 {
            let snap = session.progress(rank).unwrap();
            assert_eq!(snap.event_count, 200);
        }
        let trace = session.finalize(reports).unwrap();
        assert_eq!(trace.thread(0).unwrap().event_count, 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_run_recovers_from_survivors() {
        let dir = session_dir("crash");
        let path = dir.join("run.pythia");
        let session = RecordingSession::with_persist(
            &path,
            false,
            PersistConfig {
                flush_events: 4,
                snapshot_events: 32,
                ..PersistConfig::default()
            },
        );
        // Rank 1 "dies" before finishing: its communicator is dropped
        // mid-run, the recorder's drop guard journals the buffered tail.
        // No finalize ever happens, so no final trace file exists.
        let survivors: Vec<Option<RankReport>> = World::run(2, |comm| {
            let rank = comm.rank();
            let pc = session.wrap(comm).unwrap();
            for i in 0..101i64 {
                pc.custom_event("step", Some(i % 5));
            }
            if rank == 0 {
                Some(pc.finish().unwrap())
            } else {
                None
            }
        });
        assert!(survivors[0].is_some() && survivors[1].is_none());
        assert!(!path.exists());

        let (trace, report) = RecordingSession::recover(&path).unwrap();
        assert!(!report.used_final_file);
        assert_eq!(trace.thread_count(), 2);
        // Nothing submitted was lost: rank 0 flushed at finish, rank 1's
        // drop guard flushed its pending tail.
        assert_eq!(trace.thread(0).unwrap().event_count, 101);
        assert_eq!(trace.thread(1).unwrap().event_count, 101);
        // Registry deltas were journaled: recovered events keep names.
        assert!(trace.registry().lookup("step", Some(4)).is_some());
        // The recovered trace finalizes like a normal one.
        trace.save(&path).unwrap();
        remove_sidecars(&path);
        let (_, report) = RecordingSession::recover(&path).unwrap();
        assert!(report.used_final_file);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finalize_with_missing_rank_keeps_sidecars() {
        let dir = session_dir("missing");
        let path = dir.join("run.pythia");
        let session = RecordingSession::with_persist(
            &path,
            false,
            PersistConfig {
                flush_events: 2,
                ..PersistConfig::default()
            },
        );
        let mut reports: Vec<RankReport> = World::run(2, |comm| {
            let pc = session.wrap(comm).unwrap();
            for _ in 0..10 {
                pc.custom_event("tick", None);
            }
            pc.finish().unwrap()
        });
        reports.remove(1);
        let err = session.finalize(reports).unwrap_err();
        assert!(err.to_string().contains("missing rank"), "{err}");
        // The failed finalization left the sidecars: recovery still works.
        let (trace, _) = TraceData::recover(&path).unwrap();
        assert_eq!(trace.thread_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
