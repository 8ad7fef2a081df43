//! Rank faults on the elastic threads backend: a rank that panics, hangs
//! or disconnects mid-recording is replaced by a new incarnation that
//! salvages its journal and resumes, and the finalized trace is
//! byte-identical to the fault-free run's.
//!
//! The hang is caught only by heartbeat detection, which
//! `PYTHIA_RANK_TIMEOUT_MS` arms for every world created after it is set;
//! this binary holds this one test so that setting it touches nothing
//! else. Each world runs behind a watchdog: a world that wedges fails
//! the test instead of hanging it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use pythia_core::persist::PersistConfig;
use pythia_core::resilience::FaultPlan;
use pythia_minimpi::{Communicator, PoisonedWorld, World, RANK_TIMEOUT_ENV};
use pythia_runtime_mpi::RecordingSession;

/// Events each rank records before its closing barrier.
const EVENTS: i64 = 120;

/// How long one world may take before the watchdog declares it wedged.
const WATCHDOG: Duration = Duration::from_secs(60);

/// What one recorded world left behind.
struct Outcome {
    /// The finalized trace file.
    trace: Vec<u8>,
    /// Replacement ranks the world admitted.
    replaced: u64,
    /// The furthest any rank resumed from salvaged journal events.
    resumed: u64,
}

/// Records a 3-rank elastic world into `path`, arming `plan`'s rank fault.
fn record(path: &Path, plan: Option<FaultPlan>) -> Outcome {
    let session = RecordingSession::with_persist(
        path,
        false,
        PersistConfig {
            // Flush every event: the replacement must recover the dead
            // rank's complete prefix for byte identity.
            flush_events: 1,
            ..PersistConfig::default()
        },
    );
    let furthest_resume = AtomicU64::new(0);
    let (reports, stats) = World::run_elastic(3, |comm| {
        let (pc, resumed) = session.wrap_or_resume(comm).unwrap();
        furthest_resume.fetch_max(resumed, Ordering::Relaxed);
        if let Some(p) = &plan {
            pc.arm_rank_faults(p);
        }
        // Fast-forward: the first `resumed` events are already recorded
        // (and their communication already happened).
        for i in resumed as i64..EVENTS {
            pc.custom_event("step", Some(i % 7));
        }
        pc.barrier();
        pc.finish().unwrap()
    })
    .unwrap();
    let replaced: u64 = reports.iter().map(|r| r.elastic.ranks_replaced).sum();
    assert_eq!(replaced, stats.ranks_replaced);
    session.finalize(reports).unwrap();
    Outcome {
        trace: std::fs::read(path).unwrap(),
        replaced: stats.ranks_replaced,
        resumed: furthest_resume.into_inner(),
    }
}

/// [`record`] on its own thread, failing the test if the world does not
/// finish within [`WATCHDOG`].
fn record_watched(path: &Path, plan: Option<&str>) -> Outcome {
    let (tx, rx) = mpsc::channel();
    let (path, parsed) = (path.to_path_buf(), plan.map(FaultPlan::parse));
    let world = std::thread::spawn(move || {
        let _ = tx.send(record(&path, parsed));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(outcome) => {
            world.join().expect("the world thread sent its outcome");
            outcome
        }
        // A wedged world cannot be joined: fail and leave it behind.
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("elastic world wedged under {plan:?}"),
        // The sender dropped unsent: `record` panicked; report its panic.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(world.join().expect_err("the world thread panicked"))
        }
    }
}

#[test]
fn rank_faults_resume_byte_identical() {
    std::env::set_var(RANK_TIMEOUT_ENV, "500");
    // The injected faults unwind rank threads: keep them off the output,
    // and every other panic on it.
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let injected = payload.is::<PoisonedWorld>()
            || payload
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected rank fault"));
        if !injected {
            report(info);
        }
    }));
    let dir = std::env::temp_dir().join(format!("pythia-elastic-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let clean = record_watched(&dir.join("free.pythia"), None);
    assert_eq!((clean.replaced, clean.resumed), (0, 0));

    // Rank 1 fails after recording 40 events; the replacement must
    // salvage those 40 from the journal, resume at event 40, and end with
    // a trace byte-identical to the fault-free run.
    for kind in ["rank-panic", "rank-hang", "rank-disconnect"] {
        let plan = format!("{kind}=40,rank-fault-rank=1");
        let path = dir.join(format!("{kind}.pythia"));
        let faulty = record_watched(&path, Some(&plan));
        assert_eq!(faulty.replaced, 1, "{kind}: no single replacement rank");
        assert_eq!(faulty.resumed, 40, "{kind}: replacement resumed elsewhere");
        assert!(
            clean.trace == faulty.trace,
            "{kind}: recovered trace differs from the fault-free run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
