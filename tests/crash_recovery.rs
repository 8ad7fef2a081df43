//! End-to-end crash-recovery tests: a reference run that dies — process
//! killed between flushes, journal tail torn mid-write, writer killed in
//! the middle of the final save — must recover to exactly the grammar a
//! fresh recording of the journaled prefix would produce, losing at most
//! one flush budget of trailing events. (The multi-rank variant, a
//! durable `RecordingSession` crashed at chosen event counts and rebuilt
//! by `pythia-analyze recover`, is
//! `crates/bench/tests/analyze_cli.rs::crashed_recording_recovers_and_analyzes_clean`.)

use std::path::PathBuf;

use pythia::core::error::Error;
use pythia::core::event::{EventId, EventRegistry};
use pythia::core::persist::{atomic_write_with, journal_path, IoFaultInjector, PersistConfig};
use pythia::core::record::{RecordConfig, Recorder};
use pythia::core::resilience::FaultPlan;
use pythia::core::trace::{ThreadTrace, TraceData};

const FLUSH_EVENTS: usize = 8;
const SNAPSHOT_EVENTS: u64 = 64;

fn test_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pythia-crashrec-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Tight budgets, faults pinned off (tests never read `PYTHIA_CHAOS`).
fn tight_persist() -> PersistConfig {
    PersistConfig {
        flush_events: FLUSH_EVENTS,
        flush_bytes: 1 << 20,
        snapshot_events: SNAPSHOT_EVENTS,
        fsync: true,
        registry: None,
        faults: Some(FaultPlan::none()),
    }
}

/// A loop-structured event stream (what a stencil solver submits), long
/// enough to cross several checkpoint boundaries.
fn stream(len: usize) -> Vec<EventId> {
    (0..len)
        .map(|i| match i % 5 {
            0 => EventId(1),                      // compute
            1 | 2 => EventId(2 + (i % 3) as u32), // exchange with a peer
            3 => EventId(5),                      // reduce
            _ => EventId(6),                      // advance
        })
        .collect()
}

/// The ground truth: record `events` through a plain in-memory recorder
/// with the same deterministic timestamps the durable run used.
fn rerecord(events: &[EventId]) -> ThreadTrace {
    let mut rec = Recorder::new(RecordConfig::default());
    for (i, &e) in events.iter().enumerate() {
        rec.record_at(e, (i as u64 + 1) * 100);
    }
    rec.finish_thread().expect("in-memory recorder cannot fail")
}

/// Serialized form used for byte-identity comparison: the binary encoding
/// of a one-thread trace, which holds the grammar, the ordered timing
/// entries and the event count (the lazy query index is derived data).
fn fingerprint(t: &ThreadTrace) -> Vec<u8> {
    TraceData::from_threads(vec![t.clone()], EventRegistry::new())
        .to_bytes()
        .to_vec()
}

/// A process killed between flushes (neither `finish_thread` nor the drop
/// guard runs) recovers every journaled event, loses at most one flush
/// budget, and the recovered thread is byte-identical to re-recording the
/// journaled prefix from scratch.
#[test]
#[cfg_attr(miri, ignore)]
fn kill_between_flushes_recovers_journaled_prefix_byte_identically() {
    let dir = test_dir("kill");
    let path = dir.join("run.pythia");
    let events = stream(777);
    let mut rec = Recorder::durable(RecordConfig::default(), &path, 0, tight_persist()).unwrap();
    for (i, &e) in events.iter().enumerate() {
        rec.record_at(e, (i as u64 + 1) * 100);
    }
    // kill -9: no finish, no drop guard. (Leaks the journal handle — the
    // OS would reclaim it in the real crash this models.)
    std::mem::forget(rec);

    let (trace, report) = TraceData::recover(&path).unwrap();
    assert!(!report.used_final_file);
    let recovered = report.ranks[0].recovered_events;
    let lost = events.len() as u64 - recovered;
    assert!(
        lost <= FLUSH_EVENTS as u64,
        "lost {lost} events, flush budget is {FLUSH_EVENTS}"
    );
    // Checkpoints actually participated (not a journal-only replay).
    assert!(
        report.ranks[0].checkpoint_events > 0,
        "{:?}",
        report.ranks[0]
    );
    let expected = rerecord(&events[..recovered as usize]);
    assert_eq!(
        fingerprint(trace.thread(0).unwrap()),
        fingerprint(&expected)
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn journal tail (crash mid-`write(2)`) is truncated to the last
/// intact frame; every truncation point recovers cleanly and
/// byte-identically to a fresh recording of the surviving prefix.
#[test]
#[cfg_attr(miri, ignore)]
fn torn_journal_tail_truncates_to_last_good_frame() {
    let dir = test_dir("torn");
    let path = dir.join("run.pythia");
    let events = stream(300);
    let mut rec = Recorder::durable(RecordConfig::default(), &path, 0, tight_persist()).unwrap();
    for (i, &e) in events.iter().enumerate() {
        rec.record_at(e, (i as u64 + 1) * 100);
    }
    rec.finish_thread().unwrap();
    std::fs::remove_file(&path).ok(); // keep only the sidecars

    let journal = journal_path(&path, 0);
    let full = std::fs::read(&journal).unwrap();
    let mut last_recovered = u64::MAX;
    for cut in [full.len() - 1, full.len() - 7, full.len() / 2] {
        std::fs::write(&journal, &full[..cut]).unwrap();
        let (trace, report) = TraceData::recover(&path).unwrap();
        let r = &report.ranks[0];
        // The first two cuts provably tear the final frame; a mid-journal
        // cut may land exactly on a frame boundary (no torn bytes then).
        if cut > full.len() - 8 {
            assert!(r.torn_tail_bytes > 0, "cut at {cut}: {r:?}");
        }
        assert!(r.recovered_events <= last_recovered);
        last_recovered = r.recovered_events;
        let expected = rerecord(&events[..r.recovered_events as usize]);
        assert_eq!(
            fingerprint(trace.thread(0).unwrap()),
            fingerprint(&expected),
            "cut at {cut}"
        );
    }
    // Shorter cuts can only fall back to the checkpoint, never below it.
    assert!(last_recovered >= SNAPSHOT_EVENTS);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a writer killed in the middle of `Trace::save`
/// over an existing trace (torn tmp write, failed rename) leaves the old
/// file byte-identical and loadable.
#[test]
#[cfg_attr(miri, ignore)]
fn writer_killed_mid_save_leaves_old_trace_intact() {
    let dir = test_dir("midsave");
    let path = dir.join("run.pythia");
    let old = rerecord(&stream(100));
    TraceData::from_threads(vec![old], EventRegistry::new())
        .save(&path)
        .unwrap();
    let old_bytes = std::fs::read(&path).unwrap();

    let replacement = TraceData::from_threads(vec![rerecord(&stream(250))], EventRegistry::new());
    for plan in [
        FaultPlan {
            torn_write_every: 1,
            ..FaultPlan::none()
        },
        FaultPlan {
            rename_fail_every: 1,
            ..FaultPlan::none()
        },
    ] {
        let mut inj = IoFaultInjector::new(plan.clone());
        let err = atomic_write_with(&path, &replacement.to_bytes(), &mut inj).unwrap_err();
        assert!(err.to_string().contains("injected"), "{plan:?}: {err}");
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes, "{plan:?}");
        let loaded = TraceData::load(&path).unwrap();
        assert_eq!(loaded.total_events(), 100, "{plan:?}");
    }

    // A *lying* disk (short write reported as success) slips past the
    // rename, but the whole-payload CRC refuses the torn file at load.
    let mut inj = IoFaultInjector::new(FaultPlan {
        short_write_every: 1,
        ..FaultPlan::none()
    });
    atomic_write_with(&path, &replacement.to_bytes(), &mut inj).unwrap();
    assert!(matches!(
        TraceData::load(&path).unwrap_err(),
        Error::Corrupt(_)
    ));
    std::fs::remove_dir_all(&dir).ok();
}

/// A final trace file torn by a lying disk is not the end of the run:
/// with the sidecars still on disk, `recover` rejects the corrupt final
/// file and rebuilds from checkpoint + journal.
#[test]
#[cfg_attr(miri, ignore)]
fn corrupt_final_file_falls_back_to_sidecars() {
    let dir = test_dir("fallback");
    let path = dir.join("run.pythia");
    let events = stream(200);
    let mut rec = Recorder::durable(RecordConfig::default(), &path, 0, tight_persist()).unwrap();
    for (i, &e) in events.iter().enumerate() {
        rec.record_at(e, (i as u64 + 1) * 100);
    }
    let thread = rec.finish_thread().unwrap();
    let trace = TraceData::from_threads(vec![thread], EventRegistry::new());

    // Finalization dies on a lying disk: short write + successful rename.
    let mut inj = IoFaultInjector::new(FaultPlan {
        short_write_every: 1,
        ..FaultPlan::none()
    });
    atomic_write_with(&path, &trace.to_bytes(), &mut inj).unwrap();
    assert!(TraceData::load(&path).is_err());

    let (recovered, report) = TraceData::recover(&path).unwrap();
    assert!(!report.used_final_file);
    assert_eq!(report.total_events(), 200);
    assert_eq!(
        fingerprint(recovered.thread(0).unwrap()),
        fingerprint(trace.thread(0).unwrap())
    );
    std::fs::remove_dir_all(&dir).ok();
}
