//! A durable recording is the in-memory recording: checkpoints must not
//! perturb the grammar.
//!
//! Each rank stream of the 13 applications (large working set, at 1 and 8
//! ranks, repeated) is recorded on virtual time three ways — by an
//! in-memory recorder, by a durable recorder checkpointing every 64 and
//! every 4096 events, and by `TraceData::recover` rebuilding from the
//! durable run's sidecars with the final file never saved. All three must
//! be byte-identical. Loop acceleration defers digram work across
//! checkpoint boundaries, so a recorder that settled its live builder to
//! write a checkpoint would fold the stream differently from one that
//! never checkpointed.

mod common;

use std::path::{Path, PathBuf};

use pythia_apps::{all_apps, WorkingSet};
use pythia_core::event::{EventId, EventRegistry};
use pythia_core::persist::{self, PersistConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::FaultPlan;
use pythia_core::trace::{ThreadTrace, TraceData};

/// Times each rank stream is repeated: enough loop iterations for the
/// cursor to be in flight at many checkpoint boundaries.
const REPEATS: usize = 2;

/// Serialized form used for byte-identity comparison: the binary encoding
/// of a one-thread trace, which holds the grammar, the ordered timing
/// entries and the event count.
fn fingerprint(t: &ThreadTrace) -> Vec<u8> {
    TraceData::from_threads(vec![t.clone()], EventRegistry::new())
        .to_bytes()
        .to_vec()
}

fn record(mut rec: Recorder, events: &[EventId]) -> ThreadTrace {
    for (i, &e) in events.iter().enumerate() {
        rec.record_at(e, (i as u64 + 1) * 100);
    }
    rec.finish_thread().expect("fault-free recorder")
}

/// The durable recording of `events` at checkpoint cadence `snapshot_events`
/// and what recovery rebuilds from its sidecars.
fn durable_and_recovered(
    path: &Path,
    events: &[EventId],
    snapshot_events: u64,
) -> (ThreadTrace, ThreadTrace) {
    let config = PersistConfig {
        snapshot_events,
        faults: Some(FaultPlan::none()),
        ..PersistConfig::default()
    };
    let rec = Recorder::durable(RecordConfig::default(), path, 0, config).expect("create journal");
    let durable = record(rec, events);
    let (trace, report) = TraceData::recover(path).expect("recover from sidecars");
    assert!(!report.used_final_file);
    let recovered = ThreadTrace::clone(trace.thread(0).expect("one thread"));
    persist::remove_sidecars(path);
    (durable, recovered)
}

#[test]
#[cfg_attr(miri, ignore)]
fn durable_in_memory_and_recovered_recordings_are_identical() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pythia-durable-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.pythia");
    let mut differ = Vec::new();
    for app in all_apps() {
        for ranks in [1, 8] {
            for (rank, stream) in common::rank_streams(app.as_ref(), ranks, WorkingSet::Large)
                .into_iter()
                .enumerate()
            {
                let events = stream.repeat(REPEATS);
                let memory = fingerprint(&record(Recorder::default(), &events));
                for cadence in [64, 4096] {
                    let (durable, recovered) = durable_and_recovered(&path, &events, cadence);
                    for (way, got) in [("durable", durable), ("recovered", recovered)] {
                        if fingerprint(&got) != memory {
                            differ.push(format!(
                                "{} {ranks} ranks, rank {rank}, cadence {cadence}: {way}",
                                app.name()
                            ));
                        }
                    }
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        differ.is_empty(),
        "{} recordings differ from in memory:\n{}",
        differ.len(),
        differ.join("\n")
    );
}
