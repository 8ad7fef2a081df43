//! PYTHIA-RECORD: capturing the behavior of the reference execution
//! (paper §II-A).
//!
//! A [`Recorder`] accepts the event stream of **one thread** and reduces it
//! on the fly into a grammar through
//! [`crate::grammar::builder::GrammarBuilder`]; it can also
//! log a timestamp per event so that a [`TimingModel`] is derived when the
//! recording finishes. Multi-threaded applications create one `Recorder`
//! per thread (the paper maintains one grammar per thread) and assemble the
//! results into a single [`crate::trace::TraceData`].
//!
//! A recorder built with [`Recorder::durable`] additionally journals every
//! event to a crash-safe sidecar and checkpoints its grammar on a
//! configurable cadence (see [`crate::persist`]), so an interrupted
//! reference run recovers via [`crate::trace::TraceData::recover`] with
//! bounded loss. IO errors on that path are *sticky* — recording continues
//! in memory — and surface from [`Recorder::finish_thread`] /
//! [`Recorder::finish`], which therefore return `Result`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::error::Result;
use crate::event::{EventId, EventRegistry};
use crate::grammar::builder::GrammarBuilder;
use crate::grammar::Grammar;
use crate::persist::{PersistConfig, PersistState};
use crate::sync::Published;
use crate::timing::TimingModel;
use crate::trace::{ThreadTrace, TraceData};

/// Immutable view of a recording in progress, published through a
/// [`Published`] slot at flush/checkpoint boundaries so cross-thread
/// observers (progress watchdogs, diagnostics) can inspect a live
/// recording without taking any lock and without ever seeing a
/// half-built grammar. Obtain the slot with [`Recorder::share_snapshot`].
#[derive(Debug, Clone, Default)]
pub struct RecordSnapshot {
    /// Compacted grammar as of the publication point.
    pub grammar: Grammar,
    /// Events recorded as of the publication point.
    pub event_count: u64,
}

/// Configuration of a [`Recorder`].
#[derive(Debug, Clone)]
pub struct RecordConfig {
    /// Log a timestamp per event and build a [`TimingModel`] at the end.
    /// Costs 8 bytes per event; disable for very long traces when only
    /// event prediction (not duration prediction) is needed.
    pub timestamps: bool,
    /// Check all grammar invariants after every event (very slow; meant for
    /// tests and debugging of the reduction algorithm). A validating
    /// recorder settles loop acceleration after every event, so its
    /// grammar is the per-use digram machine's alone and may differ from
    /// a non-validating recording of the same stream.
    pub validate: bool,
}

impl Default for RecordConfig {
    fn default() -> Self {
        RecordConfig {
            timestamps: true,
            validate: false,
        }
    }
}

/// Records the event stream of one thread of the reference execution.
#[derive(Debug)]
pub struct Recorder {
    builder: GrammarBuilder,
    config: RecordConfig,
    epoch: Instant,
    timestamps_ns: Vec<u64>,
    persist: Option<Box<PersistState>>,
    /// Encoded journal payload for the frame being committed. Filled by
    /// [`Recorder::encode_stage`] at flush boundaries only: the per-event
    /// durable path just appends the raw id/timestamp to the staging
    /// arrays below; the varint wire format (identical to what a
    /// per-event encoder would produce) is batch-encoded with the SWAR
    /// spread of [`encode_varint_swar`] once per frame.
    stage: Vec<u8>,
    /// Raw event ids staged since the last flush.
    stage_ids: Vec<u32>,
    /// Raw timestamps staged since the last flush (empty when timestamps
    /// are disabled). Deltas are taken at encode time.
    stage_ts: Vec<u64>,
    /// Events currently staged.
    stage_count: usize,
    /// Timestamp of the last staged event — only used to account the
    /// exact encoded size of each event's timestamp delta as it is
    /// staged. Reset to 0 at each frame boundary (frames decode
    /// standalone).
    stage_prev_ts: u64,
    /// Exact number of bytes the staged events will encode to.
    stage_bytes: usize,
    /// Staged-event count that triggers a flush
    /// ([`PersistConfig::flush_events`]; `usize::MAX` for in-memory
    /// recorders).
    stage_threshold: usize,
    /// Staged payload size that triggers a flush
    /// ([`PersistConfig::flush_bytes`]).
    stage_byte_threshold: usize,
    /// Epoch-publication slot for cross-thread readers; created lazily by
    /// [`Recorder::share_snapshot`]. `None` costs nothing on the hot
    /// path; when present, a fresh [`RecordSnapshot`] is published at
    /// checkpoint boundaries (durable recorders) and on
    /// [`Recorder::publish_snapshot`].
    published: Option<Arc<Published<RecordSnapshot>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new(RecordConfig::default())
    }
}

impl Recorder {
    /// Creates an in-memory recorder; the timestamp epoch is the creation
    /// instant.
    pub fn new(config: RecordConfig) -> Self {
        Recorder {
            builder: GrammarBuilder::new(),
            config,
            epoch: Instant::now(),
            timestamps_ns: Vec::new(),
            persist: None,
            stage: Vec::new(),
            stage_ids: Vec::new(),
            stage_ts: Vec::new(),
            stage_count: 0,
            stage_prev_ts: 0,
            stage_bytes: 0,
            stage_threshold: usize::MAX,
            stage_byte_threshold: usize::MAX,
            published: None,
        }
    }

    /// Creates a durable recorder for rank/thread `rank` of the trace
    /// that will be finalized at `trace_path`: events are journaled to
    /// `<trace_path>.r<rank>.journal` and the grammar checkpointed to
    /// `<trace_path>.r<rank>.ckpt` per `persist`'s budgets. Errors if the
    /// journal cannot be created.
    pub fn durable(
        config: RecordConfig,
        trace_path: impl AsRef<Path>,
        rank: usize,
        persist: PersistConfig,
    ) -> Result<Self> {
        let events = persist.flush_events.max(1);
        let bytes = persist.flush_bytes.max(1);
        let state = PersistState::create(trace_path.as_ref(), rank, persist, config.timestamps)?;
        Ok(Recorder {
            builder: GrammarBuilder::new(),
            config,
            epoch: Instant::now(),
            timestamps_ns: Vec::new(),
            persist: Some(state),
            stage: Vec::new(),
            stage_ids: Vec::new(),
            stage_ts: Vec::new(),
            stage_count: 0,
            stage_prev_ts: 0,
            stage_bytes: 0,
            stage_threshold: events,
            stage_byte_threshold: bytes,
            published: None,
        })
    }

    /// Returns (creating on first use) this recorder's publication slot.
    ///
    /// The slot always holds a complete, immutable [`RecordSnapshot`];
    /// readers on other threads consult it with [`Published::read`] /
    /// [`Published::get`] — entirely lock-free against this recorder. The
    /// snapshot is refreshed at every checkpoint boundary of a durable
    /// recorder, at [`Recorder::finish_thread`], and whenever
    /// [`Recorder::publish_snapshot`] is called explicitly (the only
    /// option for in-memory recorders, which have no flush cadence).
    pub fn share_snapshot(&mut self) -> Arc<Published<RecordSnapshot>> {
        if self.published.is_none() {
            self.published = Some(Arc::new(Published::new(self.snapshot_now())));
        }
        Arc::clone(self.published.as_ref().expect("just created"))
    }

    /// Publishes the current recording state to the slot returned by
    /// [`Recorder::share_snapshot`] (no-op if that was never called).
    /// Costs a grammar compaction — call at natural boundaries, not per
    /// event.
    pub fn publish_snapshot(&mut self) {
        if let Some(slot) = &self.published {
            slot.publish(self.snapshot_now());
        }
    }

    fn snapshot_now(&self) -> RecordSnapshot {
        RecordSnapshot {
            grammar: self.settled_grammar(),
            event_count: self.builder.event_count(),
        }
    }

    /// The compacted grammar with loop acceleration settled, so it
    /// satisfies the full invariant set (the load-path linter rejects
    /// deferred-index shapes). A copy is settled, never the live builder:
    /// the recording stays a function of the event stream alone, so a
    /// durable recording equals the in-memory one and what
    /// [`TraceData::recover`] rebuilds.
    fn settled_grammar(&self) -> Grammar {
        let mut copy = self.builder.clone();
        copy.flush_accel();
        copy.grammar().compact()
    }

    /// Pre-reserves capacity for `n` further events in every per-event
    /// buffer (timestamps and journal staging), so a steady-state
    /// recording loop performs **zero heap allocations per event** until
    /// the reservation is consumed (flush-boundary encoding may still
    /// grow the encode buffer once).
    pub fn reserve(&mut self, n: usize) {
        if self.config.timestamps {
            self.timestamps_ns.reserve(n);
        }
        if self.persist.is_some() {
            let frame = n.min(self.stage_threshold);
            self.stage_ids.reserve(frame);
            if self.config.timestamps {
                self.stage_ts.reserve(frame);
            }
            // Worst case per event: 5-byte id varint + 10-byte delta
            // varint, plus the 8-byte SWAR slack.
            self.stage.reserve(frame.saturating_mul(15) + 8);
        }
    }

    /// Whether this recorder journals its events (built with
    /// [`Recorder::durable`]).
    pub fn is_durable(&self) -> bool {
        self.persist.is_some()
    }

    /// Records one event, stamped with the current time.
    pub fn record(&mut self, event: EventId) {
        let ns = if self.config.timestamps {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        };
        self.record_at(event, ns);
    }

    /// Records one event with an explicit timestamp (nanoseconds since an
    /// arbitrary per-recorder epoch; must be monotonically non-decreasing).
    /// Used by simulations and tests that run on virtual time.
    pub fn record_at(&mut self, event: EventId, ns: u64) {
        if self.config.timestamps {
            self.timestamps_ns.push(ns);
        }
        self.builder.push(event);
        if self.persist.is_some() {
            // Stage the raw id/timestamp — two array appends and exact
            // byte accounting; the varint encoding happens per frame in
            // `encode_stage`, not per event.
            self.stage_ids.push(event.0);
            let mut n = varint_len(event.0 as u64);
            if self.config.timestamps {
                self.stage_ts.push(ns);
                n += varint_len(ns.wrapping_sub(self.stage_prev_ts));
                self.stage_prev_ts = ns;
            }
            self.stage_bytes += n;
            self.stage_count += 1;
            if self.stage_count >= self.stage_threshold
                || self.stage_bytes >= self.stage_byte_threshold
            {
                self.persist_tick();
            }
        }
        if self.config.validate {
            // Validation needs the full digram/index invariants, which loop
            // acceleration defers; settle first (disables acceleration for
            // validating recorders, which trade speed for checking anyway).
            self.builder.flush_accel();
            if let Err(msg) = self.builder.check_invariants() {
                panic!("grammar invariant violated after event {event}: {msg}");
            }
        }
    }

    /// Batch-encodes the staged raw events into the journal wire format
    /// (varint event id + varint frame-local timestamp delta — byte
    /// identical to a per-event encoder). One SWAR spread per varint, no
    /// per-byte loop for the ubiquitous short values.
    fn encode_stage(&mut self) {
        debug_assert!(self.stage.is_empty());
        self.stage.reserve(self.stage_bytes + 8);
        if self.config.timestamps {
            let mut prev = 0u64; // frames decode standalone
            for (&id, &ts) in self.stage_ids.iter().zip(&self.stage_ts) {
                encode_varint_swar(&mut self.stage, id as u64);
                encode_varint_swar(&mut self.stage, ts.wrapping_sub(prev));
                prev = ts;
            }
        } else {
            for &id in &self.stage_ids {
                encode_varint_swar(&mut self.stage, id as u64);
            }
        }
        debug_assert_eq!(self.stage.len(), self.stage_bytes);
        self.stage_ids.clear();
        self.stage_ts.clear();
        self.stage_bytes = 0;
        self.stage_prev_ts = 0;
    }

    /// Flushes the staged journal payload and, when the checkpoint
    /// cadence is due, snapshots the grammar. Out of the per-event path on
    /// purpose: it runs once per flush budget.
    fn persist_tick(&mut self) {
        self.encode_stage();
        let p = self.persist.as_mut().expect("persist_tick without persist");
        p.commit_stage(&mut self.stage, &mut self.stage_count);
        let count = self.builder.event_count();
        if self
            .persist
            .as_ref()
            .expect("checked")
            .wants_snapshot(count)
        {
            let grammar = self.settled_grammar();
            let p = self.persist.as_mut().expect("checked");
            p.snapshot(&grammar, count, &self.timestamps_ns);
            // Reuse the compacted grammar for the epoch publication: the
            // checkpoint cadence is exactly the "flush boundary" at which
            // cross-thread readers are promised a fresh immutable view.
            if let Some(slot) = &self.published {
                slot.publish(RecordSnapshot {
                    grammar,
                    event_count: count,
                });
            }
        }
    }

    /// Number of events recorded so far.
    pub fn event_count(&self) -> u64 {
        self.builder.event_count()
    }

    /// Number of events whose journal frames were discarded after a
    /// sticky persistence error (always 0 for in-memory recorders and for
    /// durable recorders that never hit an IO error). The in-memory
    /// recording still holds these events, but a crash before
    /// [`Recorder::finish_thread`] would lose them — runtime integrations
    /// surface this counter (e.g. `RankReport::dropped_events`) so the
    /// reduced durability is visible instead of silent.
    pub fn dropped_events(&self) -> u64 {
        self.persist.as_ref().map_or(0, |p| p.dropped_events())
    }

    /// The grammar built so far (not compacted).
    pub fn grammar(&self) -> &Grammar {
        self.builder.grammar()
    }

    /// Number of rules in the current grammar (Table I's "# rules").
    pub fn rule_count(&self) -> usize {
        self.builder.grammar().rule_count()
    }

    /// Finishes this thread's recording: compacts the grammar and replays
    /// the timestamps into a [`TimingModel`] (paper §II-C).
    ///
    /// For a durable recorder, flushes and fsyncs the journal tail first;
    /// a journal/checkpoint IO error — including one that happened
    /// mid-recording (they are sticky, persistence stops but the
    /// in-memory recording continues) — surfaces here. In-memory
    /// recorders cannot fail.
    pub fn finish_thread(mut self) -> Result<ThreadTrace> {
        if let Some(mut p) = self.persist.take() {
            self.encode_stage();
            p.commit_stage(&mut self.stage, &mut self.stage_count);
            p.finalize()?;
        }
        let event_count = self.builder.event_count();
        let grammar = std::mem::take(&mut self.builder).into_grammar().compact();
        if let Some(slot) = &self.published {
            slot.publish(RecordSnapshot {
                grammar: grammar.clone(),
                event_count,
            });
        }
        let timing = TimingModel::build(&grammar, &self.timestamps_ns);
        Ok(ThreadTrace::new(grammar, timing, event_count))
    }

    /// Convenience for single-threaded programs: wraps the single thread
    /// trace into a complete [`TraceData`]. Fails like
    /// [`Recorder::finish_thread`].
    pub fn finish(self, registry: &EventRegistry) -> Result<TraceData> {
        Ok(TraceData::from_threads(
            vec![self.finish_thread()?],
            registry.clone(),
        ))
    }
}

/// Exact LEB128 length of `v` in bytes (1–10).
#[inline]
fn varint_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Appends the LEB128 varint of `v` to `out`.
///
/// For values up to 8 encoded bytes (`v < 2^56` — every event id and any
/// realistic timestamp delta), the encode is a branchless SWAR spread:
/// each 7-bit group is shifted into its own byte lane of one `u64`, the
/// continuation bits are OR-ed in with a single mask, and the whole
/// 8-byte little-endian word is written at once (the buffer keeps 8 bytes
/// of slack; only the exact length is kept). Larger values take the
/// classic per-byte loop.
#[inline]
fn encode_varint_swar(out: &mut Vec<u8>, v: u64) {
    let n = varint_len(v);
    if n <= 8 {
        let x = (v & 0x7f)
            | ((v & (0x7f << 7)) << 1)
            | ((v & (0x7f << 14)) << 2)
            | ((v & (0x7f << 21)) << 3)
            | ((v & (0x7f << 28)) << 4)
            | ((v & (0x7f << 35)) << 5)
            | ((v & (0x7f << 42)) << 6)
            | ((v & (0x7f << 49)) << 7);
        let cont = 0x8080_8080_8080_8080u64 & ((1u64 << (8 * (n - 1))) - 1);
        let len = out.len();
        out.extend_from_slice(&(x | cont).to_le_bytes());
        out.truncate(len + n);
    } else {
        let mut v = v;
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
}

impl Drop for Recorder {
    /// Best-effort drop guard: a recorder dropped without `finish_thread`
    /// (a panicking rank, an aborted session) still journals its staged
    /// tail, so recovery loses nothing that was submitted.
    fn drop(&mut self) {
        if self.stage_count > 0 && self.persist.is_some() {
            self.encode_stage();
            let p = self.persist.as_mut().expect("checked above");
            p.commit_stage(&mut self.stage, &mut self.stage_count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(n: u32) -> EventId {
        EventId(n)
    }

    #[test]
    fn record_roundtrip() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: true,
            validate: true,
        });
        let seq = [0u32, 1, 2, 0, 1, 2, 0, 1, 2];
        let mut t = 0;
        for &s in &seq {
            t += 10;
            rec.record_at(e(s), t);
        }
        assert_eq!(rec.event_count(), 9);
        let thread = rec.finish_thread().unwrap();
        assert_eq!(thread.event_count, 9);
        let got: Vec<u32> = thread.grammar.unfold().into_iter().map(|x| x.0).collect();
        assert_eq!(got, seq);
        assert!(!thread.timing.is_empty());
    }

    #[test]
    fn timestamps_disabled_gives_empty_timing() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        for _ in 0..10 {
            rec.record(e(0));
            rec.record(e(1));
        }
        let thread = rec.finish_thread().unwrap();
        assert!(thread.timing.is_empty());
        assert_eq!(thread.event_count, 20);
    }

    #[test]
    fn wall_clock_timestamps_are_monotonic() {
        let mut rec = Recorder::default();
        for _ in 0..5 {
            rec.record(e(0));
        }
        let w = rec.timestamps_ns.windows(2).all(|w| w[0] <= w[1]);
        assert!(w);
    }

    #[test]
    fn finish_embeds_registry() {
        let mut registry = EventRegistry::new();
        let a = registry.intern("a", None);
        let mut rec = Recorder::default();
        rec.record(a);
        let trace = rec.finish(&registry).unwrap();
        assert_eq!(trace.registry().lookup("a", None), Some(a));
        assert_eq!(trace.thread_count(), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn durable_recorder_matches_in_memory_result() {
        let dir = std::env::temp_dir().join(format!("pythia-rec-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pythia");
        let persist = PersistConfig {
            flush_events: 8,
            snapshot_events: 64,
            ..PersistConfig::default()
        };
        let mut durable = Recorder::durable(
            RecordConfig {
                timestamps: true,
                validate: false,
            },
            &path,
            0,
            persist,
        )
        .unwrap();
        let mut plain = Recorder::new(RecordConfig {
            timestamps: true,
            validate: false,
        });
        assert!(durable.is_durable() && !plain.is_durable());
        let mut t = 0;
        for i in 0..500u32 {
            t += 5;
            durable.record_at(e(i % 7), t);
            plain.record_at(e(i % 7), t);
        }
        let a = durable.finish_thread().unwrap();
        let b = plain.finish_thread().unwrap();
        // Journaling must not perturb the recording itself.
        assert_eq!(a.grammar.unfold(), b.grammar.unfold());
        assert_eq!(a.event_count, b.event_count);
        crate::persist::remove_sidecars(&path);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reference LEB128 encoder (the classic per-byte loop).
    fn encode_varint_loop(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    #[test]
    fn swar_varint_matches_loop_encoder() {
        let mut cases: Vec<u64> = vec![0, 1, 0x7f, 0x80, 0x3fff, 0x4000, u64::MAX];
        for k in 1..64 {
            cases.push((1u64 << k) - 1);
            cases.push(1u64 << k);
            cases.push((1u64 << k) + 1);
        }
        let mut state = 0x5ca1ab1eu64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            cases.push(state >> (state % 60));
        }
        for v in cases {
            let mut want = Vec::new();
            encode_varint_loop(&mut want, v);
            let mut got = Vec::new();
            encode_varint_swar(&mut got, v);
            assert_eq!(got, want, "value {v:#x}");
            assert_eq!(want.len(), varint_len(v), "length of {v:#x}");
        }
    }

    #[test]
    fn swar_varint_appends_after_existing_bytes() {
        // The 8-byte word write must not clobber bytes already in the
        // buffer, and consecutive encodes must pack back to back.
        let mut buf = vec![0xAA, 0xBB];
        encode_varint_swar(&mut buf, 300);
        encode_varint_swar(&mut buf, 5);
        let mut want = vec![0xAA, 0xBB];
        encode_varint_loop(&mut want, 300);
        encode_varint_loop(&mut want, 5);
        assert_eq!(buf, want);
    }

    #[test]
    fn share_snapshot_publishes_on_demand_and_at_finish() {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: false,
            validate: false,
        });
        let slot = rec.share_snapshot();
        assert_eq!(slot.read(|s| s.event_count), 0);
        for _ in 0..6 {
            rec.record_at(e(1), 0);
            rec.record_at(e(2), 0);
        }
        // Nothing republished yet: the slot still holds the initial view.
        assert_eq!(slot.read(|s| s.event_count), 0);
        rec.publish_snapshot();
        let snap = slot.get();
        assert_eq!(snap.event_count, 12);
        assert_eq!(snap.grammar.unfold().len(), 12);
        rec.record_at(e(3), 0);
        rec.finish_thread().unwrap();
        // finish_thread publishes the final state.
        assert_eq!(slot.read(|s| s.event_count), 13);
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn durable_recorder_publishes_at_checkpoint_boundaries() {
        let dir = std::env::temp_dir().join(format!("pythia-rec-pub-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pythia");
        let persist = PersistConfig {
            flush_events: 8,
            snapshot_events: 32,
            ..PersistConfig::default()
        };
        let mut rec = Recorder::durable(RecordConfig::default(), &path, 0, persist).unwrap();
        let slot = rec.share_snapshot();
        // A concurrent reader polls the slot while the recorder runs:
        // every view it observes must be internally consistent (the
        // grammar unfolds to exactly `event_count` events) — the epoch
        // protocol never exposes a half-published snapshot.
        std::thread::scope(|s| {
            let reader_slot = Arc::clone(&slot);
            let reader = s.spawn(move || {
                let mut seen_nonzero = false;
                for _ in 0..10_000 {
                    reader_slot.read(|snap| {
                        assert_eq!(snap.grammar.unfold().len() as u64, snap.event_count);
                        seen_nonzero |= snap.event_count > 0;
                    });
                }
                seen_nonzero
            });
            for i in 0..400u32 {
                rec.record(e(i % 5));
            }
            rec.finish_thread().unwrap();
            reader.join().unwrap();
        });
        // After finish, the slot holds the complete recording.
        assert_eq!(slot.read(|s| s.event_count), 400);
        crate::persist::remove_sidecars(&path);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Stages `ids`/`ts` exactly as `record_at` would (including the
    /// exact-byte accounting) and runs the batch SWAR encoder over them,
    /// returning the encoded frame payload.
    fn encode_frame_swar(ids: &[u32], ts: Option<&[u64]>) -> Vec<u8> {
        let mut rec = Recorder::new(RecordConfig {
            timestamps: ts.is_some(),
            validate: false,
        });
        rec.stage_ids = ids.to_vec();
        let mut prev = 0u64;
        let mut bytes = 0usize;
        for (i, &id) in ids.iter().enumerate() {
            bytes += varint_len(id as u64);
            if let Some(ts) = ts {
                bytes += varint_len(ts[i].wrapping_sub(prev));
                prev = ts[i];
            }
        }
        if let Some(ts) = ts {
            rec.stage_ts = ts.to_vec();
        }
        rec.stage_bytes = bytes;
        rec.stage_prev_ts = prev;
        rec.encode_stage();
        std::mem::take(&mut rec.stage)
    }

    /// Scalar reference encoder for one journal frame: per event, the
    /// LEB128 id followed by the LEB128 frame-local timestamp delta
    /// (`wrapping_sub`, previous timestamp starting at 0 — frames decode
    /// standalone). This is the format contract `encode_stage` must hit
    /// byte for byte.
    fn encode_frame_scalar(ids: &[u32], ts: Option<&[u64]>) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev = 0u64;
        for (i, &id) in ids.iter().enumerate() {
            encode_varint_loop(&mut out, id as u64);
            if let Some(ts) = ts {
                encode_varint_loop(&mut out, ts[i].wrapping_sub(prev));
                prev = ts[i];
            }
        }
        out
    }

    mod proptests {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Differential test of the SWAR batch journal encode against
            /// the scalar reference across extreme delta widths: ids and
            /// timestamps derived by shifting full-range u64s (so frames
            /// mix 1-byte and 10-byte varints), timestamps deliberately
            /// **non-monotonic** (wrapping deltas near `u64::MAX` take
            /// the encoder's loop fallback), and 1-event frames included
            /// via the vector's lower bound.
            #[test]
            fn swar_batch_encode_matches_scalar_reference(
                raw in vec((0u64..u64::MAX, 0u32..64, 0u32..33), 1..120),
            ) {
                let mut ids: Vec<u32> = raw
                    .iter()
                    .map(|&(v, _, s)| ((v >> 31) as u32).wrapping_shr(s))
                    .collect();
                let mut ts: Vec<u64> = raw.iter().map(|&(v, s, _)| v >> s).collect();
                // Pin the extremes regardless of what the generator drew.
                ids.extend([0, 1, u32::MAX]);
                ts.extend([u64::MAX, 0, u64::MAX - 1]);

                // Timestamped frames (id + delta interleave)…
                prop_assert_eq!(
                    encode_frame_swar(&ids, Some(&ts)),
                    encode_frame_scalar(&ids, Some(&ts))
                );
                // …and id-only frames (timestamps disabled).
                prop_assert_eq!(
                    encode_frame_swar(&ids, None),
                    encode_frame_scalar(&ids, None)
                );
                // 1-event frames: each event encoded alone must also
                // match (the frame-local delta resets to the raw value).
                for (i, &id) in ids.iter().enumerate() {
                    prop_assert_eq!(
                        encode_frame_swar(&[id], Some(&ts[i..i + 1])),
                        encode_frame_scalar(&[id], Some(&ts[i..i + 1]))
                    );
                }
            }

            /// Settling loop acceleration at `publish_snapshot`
            /// boundaries must not perturb the recording: a recorder
            /// whose `flush_accel` fires at arbitrary mid-stream
            /// publication points finishes into a trace byte-identical
            /// to one recorded without any snapshot boundary.
            #[test]
            fn snapshot_boundaries_keep_traces_byte_identical(
                seq in vec(0u32..6, 1..250),
                cuts in vec(0usize..250, 0..8),
            ) {
                let config = RecordConfig {
                    timestamps: true,
                    validate: false,
                };
                let mut with = Recorder::new(config.clone());
                let slot = with.share_snapshot();
                let mut without = Recorder::new(config);
                let mut t = 0u64;
                for (i, &s) in seq.iter().enumerate() {
                    t += 50;
                    with.record_at(e(s), t);
                    without.record_at(e(s), t);
                    if cuts.contains(&i) {
                        with.publish_snapshot();
                        // Every published view is internally consistent.
                        slot.read(|snap| {
                            assert_eq!(
                                snap.grammar.unfold().len() as u64,
                                snap.event_count
                            );
                        });
                    }
                }
                let reg = EventRegistry::new();
                let a = with.finish(&reg).unwrap().to_bytes();
                let b = without.finish(&reg).unwrap().to_bytes();
                prop_assert_eq!(a, b);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn sticky_journal_error_surfaces_at_finish() {
        use crate::resilience::FaultPlan;
        let dir = std::env::temp_dir().join(format!("pythia-rec-sticky-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pythia");
        let persist = PersistConfig {
            flush_events: 4,
            snapshot_events: 0,
            faults: Some(FaultPlan {
                // Write 1 is the journal header; write 2 (the first
                // frame) tears.
                torn_write_every: 2,
                ..FaultPlan::none()
            }),
            ..PersistConfig::default()
        };
        let mut rec = Recorder::durable(RecordConfig::default(), &path, 0, persist).unwrap();
        assert_eq!(rec.dropped_events(), 0);
        for i in 0..32u32 {
            rec.record(e(i % 3));
        }
        // Recording itself kept working; the error surfaces at finish,
        // and every event whose frame was discarded after the sticky
        // error is accounted — the torn first frame included (it cannot
        // be trusted on disk).
        assert_eq!(rec.event_count(), 32);
        assert_eq!(rec.dropped_events(), 32);
        assert!(rec.finish_thread().is_err());
        crate::persist::remove_sidecars(&path);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn healthy_durable_recorder_drops_nothing() {
        let dir = std::env::temp_dir().join(format!("pythia-rec-drop0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pythia");
        let persist = PersistConfig {
            flush_events: 4,
            snapshot_events: 0,
            ..PersistConfig::default()
        };
        let mut rec = Recorder::durable(RecordConfig::default(), &path, 0, persist).unwrap();
        for i in 0..32u32 {
            rec.record(e(i % 3));
        }
        assert_eq!(rec.dropped_events(), 0);
        rec.finish_thread().unwrap();
        crate::persist::remove_sidecars(&path);
        std::fs::remove_dir_all(&dir).ok();
    }
}
