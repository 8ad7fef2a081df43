//! Durability layer: write-ahead journaling, incremental grammar
//! checkpoints, atomic checksummed trace files, and recovery of
//! interrupted reference runs.
//!
//! PYTHIA's value hinges on the *reference execution* completing — a
//! crash at 99% of a long run must not lose the recording. This module
//! gives the [`crate::record::Recorder`] a bounded-loss guarantee:
//!
//! * every submitted event is buffered and appended to a per-thread
//!   **write-ahead journal** ([`journal`]) in CRC32-framed chunks, flushed
//!   whenever [`PersistConfig::flush_events`] or
//!   [`PersistConfig::flush_bytes`] is reached — so a `kill -9` loses at
//!   most one flush budget of trailing events;
//! * every [`PersistConfig::snapshot_events`] events the current grammar
//!   is serialized to an atomically-replaced **checkpoint**
//!   ([`checkpoint`]), after which the journal is truncated — so recovery
//!   replays a short suffix, not the whole run;
//! * [`crate::trace::TraceData::recover`] (also `pythia-analyze recover`)
//!   loads the newest valid checkpoint, replays the journal suffix
//!   through a normal recorder — rebuilding the *exact* grammar, by
//!   Sequitur's determinism — and cleanly truncates a torn tail frame.
//!
//! Fault injection for all of this rides on PR 3's
//! [`crate::resilience::FaultPlan`] (`torn-write` / `short-write` /
//! `rename-fail` via `PYTHIA_CHAOS`), applied deterministically by
//! [`IoFaultInjector`].

mod checkpoint;
pub mod crc;
mod io;
mod journal;
mod recover;
mod session_log;

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::event::ConcurrentRegistry;
use crate::grammar::Grammar;
use crate::resilience::FaultPlan;

pub use io::{atomic_write, atomic_write_with, IoFaultInjector};
pub use recover::{salvage_rank_events, RankRecovery, RankSalvage, RecoverReport};
pub use session_log::{read_event_journal, EventJournal, EventJournalContents};

pub(crate) use recover::recover_trace;

/// A registry shared by all recording threads of a process, journaled
/// alongside the events so recovery can name them. The persistence layer
/// reads it once per journal flush (the new descriptors) and once per
/// checkpoint (a snapshot). The MPI runtime integration re-exports this
/// type, so a recording session hands the same handle to the journal.
pub type SharedRegistry = Arc<ConcurrentRegistry>;

/// Durability knobs for a [`crate::record::Recorder`].
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// Flush the journal after this many buffered events.
    pub flush_events: usize,
    /// Flush the journal after this many buffered payload bytes.
    pub flush_bytes: usize,
    /// Write a checkpoint (and truncate the journal) every this many
    /// events; 0 disables checkpointing (journal-only durability).
    pub snapshot_events: u64,
    /// fsync the journal on every flush. Off by default: a flushed frame
    /// sits in the OS page cache, which survives the *process* dying (the
    /// crash recovery is designed for — `kill -9`, a panic, an abort) at a
    /// fraction of the overhead. Turn on to extend the bounded-loss
    /// guarantee to kernel panics and power loss. Checkpoints and the
    /// final trace file are always fsynced regardless.
    pub fsync: bool,
    /// Registry whose new descriptors are journaled as deltas and
    /// snapshotted into checkpoints, so recovered events keep their
    /// names. Without it, recovery falls back to placeholder descriptors.
    pub registry: Option<SharedRegistry>,
    /// IO fault injection; `None` consults `PYTHIA_CHAOS`.
    pub faults: Option<FaultPlan>,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            flush_events: 1024,
            flush_bytes: 64 << 10,
            snapshot_events: 1 << 18,
            fsync: false,
            registry: None,
            faults: None,
        }
    }
}

/// Sidecar journal path for rank/thread `rank` of the trace at `trace`.
pub fn journal_path(trace: &Path, rank: usize) -> PathBuf {
    io::sibling(trace, &format!(".r{rank}.journal"))
}

/// Sidecar checkpoint path for rank/thread `rank` of the trace at
/// `trace`.
pub fn checkpoint_path(trace: &Path, rank: usize) -> PathBuf {
    io::sibling(trace, &format!(".r{rank}.ckpt"))
}

/// Removes every recovery sidecar of `trace` (after a successful
/// finalization made them redundant). Best-effort: missing files are
/// fine, the scan stops at the first rank with no sidecars.
pub fn remove_sidecars(trace: &Path) {
    for rank in 0.. {
        let j = journal_path(trace, rank);
        let c = checkpoint_path(trace, rank);
        let tmp = io::sibling(&c, ".tmp");
        let any = j.exists() || c.exists() || tmp.exists();
        if !any {
            break;
        }
        std::fs::remove_file(&j).ok();
        std::fs::remove_file(&c).ok();
        std::fs::remove_file(&tmp).ok();
    }
}

/// The per-recorder durability state machine: buffers events, appends
/// journal frames, writes checkpoints. IO errors are *sticky*: the first
/// one stops all further persistence (the in-memory recording continues)
/// and surfaces from [`crate::record::Recorder::finish_thread`].
#[derive(Debug)]
pub(crate) struct PersistState {
    journal: journal::JournalWriter,
    ckpt_path: PathBuf,
    snapshot_events: u64,
    /// Event count at which the next checkpoint is due (`u64::MAX` when
    /// checkpointing is disabled); advanced by each snapshot.
    snapshot_due: u64,
    fsync: bool,
    timestamps: bool,
    registry: Option<SharedRegistry>,
    injector: IoFaultInjector,
    /// Absolute index (in the thread's event stream) of the first event
    /// currently staged in the journal's frame buffer.
    pending_first: u64,
    /// Registry descriptors already persisted (journal deltas or the
    /// latest checkpoint snapshot).
    registry_written: usize,
    /// First IO error; stops persistence, reported by `finalize`.
    error: Option<Error>,
    /// Events whose journal frames were discarded because of the sticky
    /// error (the in-memory recording kept them, but recovery would not).
    /// Surfaced as [`crate::record::Recorder::dropped_events`] so the
    /// loss is observable instead of silent.
    dropped: u64,
}

impl PersistState {
    pub fn create(
        trace_path: &Path,
        rank: usize,
        config: PersistConfig,
        timestamps: bool,
    ) -> Result<Box<PersistState>> {
        let mut injector = match config.faults {
            Some(plan) => IoFaultInjector::new(plan),
            None => IoFaultInjector::from_env(),
        };
        if let Some(dir) = trace_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let journal = journal::JournalWriter::create(
            &journal_path(trace_path, rank),
            timestamps,
            &mut injector,
        )?;
        Ok(Box::new(PersistState {
            journal,
            ckpt_path: checkpoint_path(trace_path, rank),
            snapshot_events: config.snapshot_events,
            snapshot_due: if config.snapshot_events > 0 {
                config.snapshot_events
            } else {
                u64::MAX
            },
            fsync: config.fsync,
            timestamps,
            registry: config.registry,
            injector,
            pending_first: 0,
            registry_written: 0,
            error: None,
            dropped: 0,
        }))
    }

    /// Whether the snapshot cadence says a checkpoint is due at
    /// `event_count` total events.
    #[inline]
    pub fn wants_snapshot(&self, event_count: u64) -> bool {
        event_count >= self.snapshot_due && self.error.is_none()
    }

    /// Writes a checkpoint covering the whole recording so far, then
    /// truncates the journal (buffered events are covered by the
    /// checkpoint and never hit the journal at all).
    pub fn snapshot(&mut self, grammar: &Grammar, event_count: u64, timestamps_ns: &[u64]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.try_snapshot(grammar, event_count, timestamps_ns) {
            self.error = Some(e);
        }
    }

    fn try_snapshot(
        &mut self,
        grammar: &Grammar,
        event_count: u64,
        timestamps_ns: &[u64],
    ) -> Result<()> {
        let reg_snapshot = self
            .registry
            .as_ref()
            .map(|r| r.snapshot())
            .unwrap_or_default();
        let ts = if self.timestamps {
            Some(&timestamps_ns[..event_count as usize])
        } else {
            None
        };
        checkpoint::write_checkpoint(
            &self.ckpt_path,
            event_count,
            grammar,
            ts,
            &reg_snapshot,
            &mut self.injector,
        )?;
        // Checkpoint is durable (atomic_write fsyncs file + dir); the
        // journal prefix — and anything the recorder still has staged —
        // is now covered by it.
        self.journal.truncate_frames()?;
        if self.fsync {
            self.journal.sync()?;
        }
        self.registry_written = reg_snapshot.len();
        self.snapshot_due = event_count + self.snapshot_events;
        self.pending_first = event_count;
        Ok(())
    }

    /// Journals the recorder's staged payload (`count` events, already in
    /// wire format) as one frame, preceded by any registry deltas. The
    /// stage is consumed either way: after a sticky error the data is
    /// dropped (persistence is dead, the in-memory recording continues)
    /// — but never *silently*: every event discarded this way is counted
    /// in [`PersistState::dropped_events`]. The frame whose commit
    /// failed is counted too (it may be torn on disk, so recovery cannot
    /// rely on it). Never panics — safe to call from a drop guard during
    /// unwind.
    pub fn commit_stage(&mut self, stage: &mut Vec<u8>, count: &mut usize) {
        match self.error {
            None => {
                if let Err(e) = self.try_commit(stage, *count) {
                    self.error = Some(e);
                    self.dropped += *count as u64;
                }
            }
            Some(_) => self.dropped += *count as u64,
        }
        stage.clear();
        *count = 0;
    }

    /// Events discarded by [`PersistState::commit_stage`] after the
    /// sticky IO error stopped persistence.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    fn try_commit(&mut self, payload: &[u8], count: usize) -> Result<()> {
        // Registry deltas first: an event frame must never name a
        // descriptor the journal has not yet defined.
        if let Some(reg) = self.registry.clone() {
            let descs = reg.descs_from(self.registry_written);
            if !descs.is_empty() {
                self.journal
                    .append_registry(self.registry_written, &descs, &mut self.injector)?;
                self.registry_written += descs.len();
            }
        }
        if count > 0 {
            self.journal
                .append_payload(self.pending_first, count, payload, &mut self.injector)?;
            self.pending_first += count as u64;
        }
        if self.fsync {
            self.journal.sync()?;
        }
        Ok(())
    }

    /// Surfaces the sticky error, if any. Called by
    /// `Recorder::finish_thread` after the final `commit_stage`.
    pub fn finalize(&mut self) -> Result<()> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}
