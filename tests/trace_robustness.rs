//! Failure-injection tests of the trace file format with real application
//! traces: a PYTHIA deployment reloads trace files across runs, so a
//! corrupt or truncated file must produce a clean error, never a panic,
//! hang, or huge allocation.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use pythia::apps::harness::record_trace;
use pythia::apps::work::WorkScale;
use pythia::apps::{find_app, WorkingSet};
use pythia::core::analyze::analyze_trace;
use pythia::core::event::EventId;
use pythia::core::persist::{checkpoint_path, journal_path, PersistConfig};
use pythia::core::record::{RecordConfig, Recorder};
use pythia::core::resilience::faults::corrupt_bytes;
use pythia::core::resilience::FaultPlan;
use pythia::core::trace::TraceData;

fn sample_bytes() -> Vec<u8> {
    let app = find_app("MG").unwrap();
    let trace = record_trace(app.as_ref(), 4, WorkingSet::Small, WorkScale::ZERO);
    trace.to_bytes().to_vec()
}

/// One recorded trace shared across all fuzz cases (recording is the
/// expensive part; mutation and parsing are cheap).
fn shared_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(sample_bytes)
}

/// Every single-byte corruption either round-trips to a loadable trace
/// (the flip hit a don't-care bit such as a timing value) or fails with a
/// clean error. Exhaustive over positions with a stride, full coverage of
/// the header.
#[test]
fn single_byte_flips_never_panic() {
    let bytes = sample_bytes();
    let positions: Vec<usize> = (0..bytes.len().min(64))
        .chain((64..bytes.len()).step_by(7))
        .collect();
    for pos in positions {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            // Must return, not panic; both Ok and Err are acceptable.
            let result = std::panic::catch_unwind(|| TraceData::from_bytes(&corrupt));
            assert!(
                result.is_ok(),
                "panic while parsing flip {flip:#x} at byte {pos}"
            );
        }
    }
}

/// Truncations of a real multi-thread application trace all fail cleanly.
#[test]
fn truncations_of_app_trace_fail_cleanly() {
    let bytes = sample_bytes();
    for cut in (0..bytes.len()).step_by(11) {
        let result = TraceData::from_bytes(&bytes[..cut]);
        assert!(result.is_err(), "truncation at {cut} accepted");
    }
}

/// A corrupt length field must not cause a massive allocation: parsing a
/// tiny buffer claiming millions of rules returns promptly with an error.
#[test]
fn huge_length_fields_rejected_promptly() {
    let bytes = sample_bytes();
    let mut corrupt = bytes.clone();
    // The registry count is the u32 right after magic (8) + version (4).
    corrupt[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    let t0 = std::time::Instant::now();
    let result = TraceData::from_bytes(&corrupt);
    assert!(result.is_err());
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(2),
        "corrupt length field parsed too slowly"
    );
}

/// Loading a file that is not a trace at all (here: the JSON analysis
/// report of one) fails with BadMagic, not garbage parsing.
#[test]
fn wrong_format_detected() {
    let app = find_app("EP").unwrap();
    let trace = record_trace(app.as_ref(), 2, WorkingSet::Small, WorkScale::ZERO);
    let report = analyze_trace(&trace, &Default::default()).to_json();
    let err = TraceData::from_bytes(report.to_string().as_bytes()).unwrap_err();
    assert!(matches!(err, pythia::core::error::Error::BadMagic));
}

// ----------------------------------------------------------------------
// Property-based fuzzing: the directed tests above pick corruptions by
// hand; these sample the corruption space at random (deterministically
// seeded) over the same real application trace.
// ----------------------------------------------------------------------

// ----------------------------------------------------------------------
// Recovery-path fuzzing: `TraceData::recover` reads whatever a crash left
// behind — a torn final file, damaged journal/checkpoint sidecars — so it
// gets the same treatment as the strict loaders: every truncation offset
// and random corruption, never a panic.
// ----------------------------------------------------------------------

/// Fresh recovery sidecars (journal + checkpoint, no final file) from a
/// durable recording with tight budgets, in a directory private to the
/// calling test.
fn make_sidecars(name: &str) -> (PathBuf, u64) {
    let dir = std::env::temp_dir().join(format!("pythia-robust-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.pythia");
    let persist = PersistConfig {
        flush_events: 8,
        snapshot_events: 64,
        registry: None,
        faults: Some(FaultPlan::none()),
        ..PersistConfig::default()
    };
    let mut rec = Recorder::durable(RecordConfig::default(), &path, 0, persist).unwrap();
    for i in 0..400u64 {
        rec.record_at(EventId(1 + (i % 6) as u32), (i + 1) * 50);
    }
    rec.finish_thread().unwrap();
    (path, 400)
}

/// Truncating the *final* trace file at any offset (a crash during a
/// non-atomic copy of it, say) never panics recovery: with no sidecars it
/// is a clean error, and never a silently shorter trace.
#[test]
#[cfg_attr(miri, ignore)]
fn recover_of_truncated_final_file_never_panics() {
    let bytes = shared_bytes();
    let dir = std::env::temp_dir().join(format!("pythia-robust-final-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("mg.pythia");
    for cut in (0..bytes.len()).step_by(101) {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let outcome = std::panic::catch_unwind(|| TraceData::recover(&path).is_ok());
        assert!(outcome.is_ok(), "panic recovering truncation at {cut}");
        assert!(!outcome.unwrap(), "truncation at {cut} recovered");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every truncation offset of the journal sidecar recovers cleanly (torn
/// tails are expected crash debris) or errors — and never yields more
/// events than were recorded.
#[test]
#[cfg_attr(miri, ignore)]
fn recover_survives_journal_truncation_at_every_offset() {
    let (path, total) = make_sidecars("journal-trunc");
    let journal = journal_path(&path, 0);
    let full = std::fs::read(&journal).unwrap();
    for cut in 0..full.len() {
        std::fs::write(&journal, &full[..cut]).unwrap();
        let outcome = std::panic::catch_unwind(|| {
            if let Ok((trace, _)) = TraceData::recover(&path) {
                assert!(
                    trace.total_events() <= total,
                    "truncation at {cut} invented events"
                );
            }
        });
        assert!(
            outcome.is_ok(),
            "panic recovering journal truncation at {cut}"
        );
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// Every truncation offset of the checkpoint sidecar either falls back
/// (journal-only replay, an older state) or errors — never a panic.
#[test]
#[cfg_attr(miri, ignore)]
fn recover_survives_checkpoint_truncation_at_every_offset() {
    let (path, total) = make_sidecars("ckpt-trunc");
    let ckpt = checkpoint_path(&path, 0);
    let full = std::fs::read(&ckpt).unwrap();
    for cut in (0..full.len()).step_by(7) {
        std::fs::write(&ckpt, &full[..cut]).unwrap();
        let outcome = std::panic::catch_unwind(|| {
            if let Ok((trace, _)) = TraceData::recover(&path) {
                assert!(trace.total_events() <= total);
            }
        });
        assert!(outcome.is_ok(), "panic recovering ckpt truncation at {cut}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Clustered multi-byte corruption (the chaos helper used in fault
    /// injection) never panics the binary parser: every mutated buffer
    /// either loads or fails with a clean error.
    #[test]
    fn fuzz_clustered_mutations_never_panic((seed, n) in (0u64..1 << 48, 1usize..16)) {
        let mutated = corrupt_bytes(shared_bytes(), seed, n);
        let outcome = std::panic::catch_unwind(|| TraceData::from_bytes(&mutated).is_ok());
        prop_assert!(outcome.is_ok(), "panic for corruption seed {seed} ({n} mutations)");
    }

    /// Scattered independent byte flips at random positions never panic.
    #[test]
    fn fuzz_scattered_flips_never_panic(muts in vec((0u64..u64::MAX, 1u32..256), 1..12)) {
        let mut bytes = shared_bytes().to_vec();
        let len = bytes.len() as u64;
        for &(pos, flip) in &muts {
            bytes[(pos % len) as usize] ^= flip as u8;
        }
        let outcome = std::panic::catch_unwind(|| TraceData::from_bytes(&bytes).is_ok());
        prop_assert!(outcome.is_ok(), "panic for flips {muts:?}");
    }

    /// Every proper prefix of a valid trace is an error — a partially
    /// written file (crash mid-save) must never load as a shorter trace.
    #[test]
    fn fuzz_truncations_always_err(cut in 0u64..u64::MAX) {
        let bytes = shared_bytes();
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(
            TraceData::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut}/{} accepted",
            bytes.len()
        );
    }

    /// Random single-byte corruption anywhere in the recovery sidecars —
    /// journal or checkpoint — never panics `TraceData::recover`: CRC
    /// framing downgrades journal damage to a truncated tail, checkpoint
    /// damage to a journal-only replay, and anything else to a clean
    /// error. Never more events than were recorded.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn fuzz_sidecar_corruption_never_panics(
        (which, pos, flip) in (0u8..2, 0u64..u64::MAX, 1u32..256),
    ) {
        let in_journal = which == 0;
        static SIDECARS: OnceLock<(PathBuf, Vec<u8>, Vec<u8>)> = OnceLock::new();
        let (path, journal, ckpt) = SIDECARS.get_or_init(|| {
            let (path, _) = make_sidecars("sidecar-fuzz");
            let j = std::fs::read(journal_path(&path, 0)).unwrap();
            let c = std::fs::read(checkpoint_path(&path, 0)).unwrap();
            (path, j, c)
        });
        let (mut j, mut c) = (journal.clone(), ckpt.clone());
        let target = if in_journal { &mut j } else { &mut c };
        let idx = (pos % target.len() as u64) as usize;
        target[idx] ^= flip as u8;
        std::fs::write(journal_path(path, 0), &j).unwrap();
        std::fs::write(checkpoint_path(path, 0), &c).unwrap();
        let outcome = std::panic::catch_unwind(|| match TraceData::recover(path) {
            Ok((trace, _)) => trace.total_events() <= 400,
            Err(_) => true,
        });
        prop_assert!(
            outcome.is_ok(),
            "panic for flip {flip:#x} at {idx} in {}",
            if in_journal { "journal" } else { "checkpoint" }
        );
        prop_assert!(outcome.unwrap(), "corruption invented events");
    }

    /// A valid header followed by random garbage neither panics nor
    /// stalls in a giant allocation: every announced count is checked
    /// against the bytes actually remaining, so parsing random tails
    /// returns promptly.
    #[test]
    fn fuzz_random_tails_bounded(tail in vec(0u32..256, 0..96)) {
        let mut bytes = shared_bytes()[..12].to_vec(); // magic + version
        bytes.extend(tail.iter().map(|&b| b as u8));
        let t0 = std::time::Instant::now();
        let outcome = std::panic::catch_unwind(|| {
            let _ = TraceData::from_bytes(&bytes);
        });
        prop_assert!(outcome.is_ok(), "panic for random tail {tail:?}");
        prop_assert!(
            t0.elapsed() < std::time::Duration::from_secs(2),
            "random tail parsed too slowly"
        );
    }
}
