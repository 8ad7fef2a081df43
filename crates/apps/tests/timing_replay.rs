//! The timing table a recording finishes with is the per-event definition,
//! entry for entry, on the streams the applications really produce.
//!
//! `TimingModel::build` walks each (rule, ancestors) table once and replays
//! its flat run list on every later expansion; loop bodies, and the same
//! rule under the same ancestors, are where that shortcut is taken. Each
//! rank stream of the 13 applications (large working set, at 1 and 8
//! ranks, once and repeated) is recorded on seeded virtual timestamps that
//! step backwards now and then, and `finish_thread`'s table is compared
//! with one `observe` per event but the first, under the context
//! `Unfold::context_frames` reports.

mod common;

use pythia_apps::{all_apps, WorkingSet};
use pythia_core::event::EventId;
use pythia_core::grammar::Grammar;
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::timing::TimingModel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Times each stream is repeated besides once: enough for the outermost
/// loop to repeat tables recorded in an earlier pass.
const REPEATS: usize = 4;

/// Virtual timestamps for `n` events: steps of 0–999 ns, one in sixteen
/// backwards instead (saturating at 0).
fn timestamps(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut t = 1_000_000u64;
    (0..n)
        .map(|_| {
            let step = rng.gen_range(0..1_000);
            t = if rng.gen_range(0..16) == 0 {
                t.saturating_sub(step * 8)
            } else {
                t + step
            };
            t
        })
        .collect()
}

/// One `observe` per event but the first, under that occurrence's context.
fn reference(g: &Grammar, ts: &[u64]) -> TimingModel {
    let mut model = TimingModel::new();
    let mut unfold = g.unfold_iter();
    let mut frames = Vec::new();
    for i in 0.. {
        unfold.context_frames(&mut frames);
        let Some(event) = unfold.next() else { break };
        if i > 0 {
            model.observe(event, &frames, ts[i].saturating_sub(ts[i - 1]));
        }
    }
    model
}

#[test]
#[cfg_attr(miri, ignore)]
fn recorded_timing_equals_the_per_event_definition() {
    let mut differ = Vec::new();
    let mut streams = 0;
    for app in all_apps() {
        for ranks in [1, 8] {
            let ranked = common::rank_streams(app.as_ref(), ranks, WorkingSet::Large);
            for (rank, stream) in ranked.iter().enumerate() {
                for repeat in [1, REPEATS] {
                    let events: Vec<EventId> = stream.repeat(repeat);
                    let ts = timestamps(events.len(), streams);
                    streams += 1;
                    let mut rec = Recorder::new(RecordConfig::default());
                    for (&e, &t) in events.iter().zip(&ts) {
                        rec.record_at(e, t);
                    }
                    let trace = rec.finish_thread().expect("in-memory recorder");
                    let expected = reference(&trace.grammar, &ts);
                    if trace.timing.entries() != expected.entries() {
                        differ.push(format!(
                            "{} {ranks} ranks, rank {rank}, x{repeat}: {} entries, expected {}",
                            app.name(),
                            trace.timing.len(),
                            expected.len()
                        ));
                    }
                }
            }
        }
    }
    assert_eq!(streams, 13 * 9 * 2);
    assert!(
        differ.is_empty(),
        "{} timing tables differ from the per-event definition:\n{}",
        differ.len(),
        differ.join("\n")
    );
}
