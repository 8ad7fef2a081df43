//! Golden event sequences of the 13 applications: "same events, same
//! order, same payloads" as a test.
//!
//! Every app of [`all_apps`] is recorded at 4 ranks on the small working
//! set with zero compute; each rank's unfolded stream is pinned by its
//! event count and an FNV-1a hash of its `name|payload` sequence. A change
//! to the instrumented call surface that adds, drops, reorders or re-keys
//! an event on any rank fails here. On a mismatch the actual lines are
//! written to the system temp dir.

use pythia_apps::harness::run_app;
use pythia_apps::work::WorkScale;
use pythia_apps::{all_apps, WorkingSet};
use pythia_runtime_mpi::MpiMode;

const RANKS: usize = 4;

/// 64-bit FNV-1a, defined here so the pin does not depend on std's
/// unspecified `DefaultHasher`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One line per app: its name, then `count:hash` per rank in rank order.
fn golden_line(app: &dyn pythia_apps::MpiApp) -> String {
    let run = run_app(
        app,
        RANKS,
        WorkingSet::Small,
        MpiMode::Record { timestamps: false },
        WorkScale::ZERO,
    );
    let mut line = app.name().to_owned();
    for report in &run.reports {
        let trace = report.thread_trace.as_ref().expect("record mode");
        let events = trace.grammar.unfold();
        let mut hash = Fnv1a::new();
        for &id in &events {
            let desc = run.registry.describe(id).expect("interned event");
            hash.write(desc.name.as_bytes());
            hash.write(b"|");
            match desc.payload {
                Some(p) => hash.write(p.to_string().as_bytes()),
                None => hash.write(b"-"),
            }
            hash.write(b"\n");
        }
        line.push_str(&format!(" {}:{:016x}", events.len(), hash.0));
    }
    line
}

#[test]
fn app_event_sequences_match_golden() {
    let actual: String = all_apps()
        .iter()
        .map(|app| golden_line(app.as_ref()) + "\n")
        .collect();
    let golden = include_str!("golden/app_events_4ranks_small.txt");
    if actual != golden {
        let path = std::env::temp_dir().join("app_events_4ranks_small.actual.txt");
        std::fs::write(&path, &actual).unwrap();
        panic!(
            "event sequences differ from the golden file; actual written to {}\n{actual}",
            path.display()
        );
    }
}
