//! Deterministic benchmark inputs.
//!
//! The 13 application skeletons are run once (8 ranks, no compute) at the
//! small and the large working set and each rank's event stream is
//! unfolded. Event ids as recorded are not reproducible — eight rank
//! threads intern descriptors in racy order — so ids are reassigned per
//! application by first appearance (small streams, then large, in rank
//! order). The small streams are then re-recorded single-threaded into the
//! reference traces; the large streams are the replay input (the paper's
//! Fig. 8 setting: predict a large run from a small one).
//!
//! A digest of the canonical streams is pinned in `expected.json`; if the
//! skeletons ever produce different streams, numbers are no longer
//! comparable and the run aborts.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use pythia_apps::harness::{run_app, run_app_in_registry};
use pythia_apps::work::WorkScale;
use pythia_apps::{all_apps, MpiApp, WorkingSet};
use pythia_core::event::{EventId, EventRegistry};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::trace::{ThreadTrace, TraceData};
use pythia_runtime_mpi::{MpiMode, PythiaComm};

/// Ranks every application is recorded on.
pub const RANKS: usize = 8;

/// Virtual nanoseconds between consecutive recorded events.
pub const TICK_NS: u64 = 100;

/// How often the large streams are repeated for the long recordings
/// (`record_apps`, `analyze_apps`): 16× the events, a near-identical
/// grammar.
pub const LONG_REPEAT: usize = 16;

/// SplitMix64, kept here so the seed → input mapping never changes with
/// the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator; `stream` separates independent uses of one
    /// seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is irrelevant
    /// at these bounds).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// One application's inputs.
pub struct AppInput {
    /// Application name as the paper spells it.
    pub name: &'static str,
    /// Canonical registry: id `k` is the `k`-th descriptor to appear.
    pub registry: EventRegistry,
    /// Per-rank large-working-set streams (what is replayed).
    pub large: Vec<Vec<EventId>>,
    /// The reference trace file: the small-working-set streams, recorded.
    pub reference: PathBuf,
    /// A recording of the large streams repeated [`LONG_REPEAT`] times
    /// (only when long traces were asked for).
    pub long_trace: Option<PathBuf>,
    /// Reference trace of a 1-rank small-working-set run (only when
    /// asked for).
    pub solo: Option<PathBuf>,
}

/// What to generate beyond the streams and reference traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct Want {
    /// The long recordings `analyze_apps` reads.
    pub long_traces: bool,
    /// The 1-rank references `mpi_apps` predicts from.
    pub solo: bool,
}

/// Everything the workloads read.
pub struct Inputs {
    /// The 13 applications, in `pythia_apps::all_apps()` (Table I) order.
    pub apps: Vec<AppInput>,
    /// FNV-1a digest of every canonical stream.
    pub digest: u64,
    /// Events over all large streams.
    pub large_events: u64,
    /// Seconds spent generating.
    pub seconds: f64,
}

/// Runs `app` once in record mode and unfolds every rank's stream.
fn unfolded(
    app: &dyn MpiApp,
    ws: WorkingSet,
    registry: &pythia_runtime_mpi::SharedRegistry,
) -> Vec<Vec<EventId>> {
    let run = run_app_in_registry(
        app,
        RANKS,
        ws,
        MpiMode::record(),
        WorkScale::ZERO,
        Arc::clone(registry),
    );
    run.reports
        .iter()
        .map(|r| {
            r.thread_trace
                .as_ref()
                .expect("record mode yields a thread trace")
                .grammar
                .unfold()
        })
        .collect()
}

/// Records `stream` repeated `repeat` times on virtual time, in memory.
pub fn record_stream(stream: &[EventId], repeat: usize) -> ThreadTrace {
    let mut rec = Recorder::new(RecordConfig {
        timestamps: true,
        validate: false,
    });
    let mut t = 0;
    for _ in 0..repeat {
        for &e in stream {
            t += TICK_NS;
            rec.record_at(e, t);
        }
    }
    rec.finish_thread()
        .expect("in-memory recorders cannot fail")
}

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash = (*hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

impl Inputs {
    /// Generates the inputs, writing trace files under `dir`.
    pub fn generate(dir: &Path, want: Want) -> Inputs {
        let t0 = std::time::Instant::now();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut apps = Vec::new();
        for app in all_apps() {
            let mode = MpiMode::record();
            let recorded = PythiaComm::registry_for(&mode);
            let mut small = unfolded(app.as_ref(), WorkingSet::Small, &recorded);
            let mut large = unfolded(app.as_ref(), WorkingSet::Large, &recorded);

            // Canonical ids by first appearance.
            let mut remap: Vec<Option<EventId>> = vec![None; recorded.len()];
            let mut registry = EventRegistry::new();
            for stream in small.iter_mut().chain(large.iter_mut()) {
                for e in stream.iter_mut() {
                    let slot = &mut remap[e.index()];
                    if slot.is_none() {
                        let desc = recorded.describe(*e).expect("recorded ids are interned");
                        *slot = Some(registry.intern(&desc.name, desc.payload));
                    }
                    *e = slot.expect("just assigned");
                }
            }
            for (ws, streams) in [(0u64, &small), (1, &large)] {
                for (rank, stream) in streams.iter().enumerate() {
                    fnv1a(&mut digest, apps.len() as u64);
                    fnv1a(&mut digest, ws);
                    fnv1a(&mut digest, rank as u64);
                    fnv1a(&mut digest, stream.len() as u64);
                    for e in stream {
                        fnv1a(&mut digest, e.0 as u64);
                    }
                }
            }

            let name = app.name();
            let save = |label: &str, streams: &[Vec<EventId>], repeat: usize| {
                let threads = streams.iter().map(|s| record_stream(s, repeat)).collect();
                let path = dir.join(format!("{label}.{name}.pythia"));
                TraceData::from_threads(threads, registry.clone())
                    .save(&path)
                    .expect("write input trace");
                path
            };
            let reference = save("ref", &small, 1);
            let long_trace = want.long_traces.then(|| save("long", &large, LONG_REPEAT));
            let solo = want.solo.then(|| {
                // One rank interns on one thread: ids are reproducible as
                // recorded, no canonicalisation needed.
                let small = run_app(
                    app.as_ref(),
                    1,
                    WorkingSet::Small,
                    MpiMode::record(),
                    WorkScale::ZERO,
                );
                let path = dir.join(format!("solo.{name}.pythia"));
                small
                    .into_trace()
                    .expect("record-mode run has recordings")
                    .save(&path)
                    .expect("write solo reference");
                path
            });
            apps.push(AppInput {
                name,
                registry,
                large,
                reference,
                long_trace,
                solo,
            });
        }
        let large_events = apps
            .iter()
            .flat_map(|a| &a.large)
            .map(|s| s.len() as u64)
            .sum();
        Inputs {
            apps,
            digest,
            large_events,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}
