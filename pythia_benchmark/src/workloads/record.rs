//! `record_apps`: the PYTHIA-RECORD life cycle, and the record-side layer
//! probes.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use pythia_core::event::{ConcurrentRegistry, EventId};
use pythia_core::persist::{self, PersistConfig};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::FaultPlan;
use pythia_core::trace::TraceData;

use crate::harness::{Ctx, RoundOut, Run, Violation, Workload};
use crate::inputs::{AppInput, LONG_REPEAT, TICK_NS};
use crate::metrics::Metric;
use crate::probes;
use crate::stats;
use crate::trace::Layer;

/// Events per timed `record_at` chunk: the caller-visible operation.
pub const CHUNK: usize = 64;

/// One in this many chunks has its span recorded in a traced round.
const SPAN_EVERY: usize = 16;

/// Durable recording, pinned fault-free whatever `PYTHIA_CHAOS` says.
fn persist_config(registry: &Arc<ConcurrentRegistry>) -> PersistConfig {
    PersistConfig {
        registry: Some(Arc::clone(registry)),
        faults: Some(FaultPlan::none()),
        ..PersistConfig::default()
    }
}

const TIMESTAMPED: RecordConfig = RecordConfig {
    timestamps: true,
    validate: false,
};

/// One durable recorder per rank of `app`, journaling next to `path`, each
/// with room reserved for its whole stream.
fn open_recorders(
    app: &AppInput,
    registry: &Arc<ConcurrentRegistry>,
    path: &Path,
    repeat: usize,
) -> Vec<Recorder> {
    app.large
        .iter()
        .enumerate()
        .map(|(rank, stream)| {
            let mut rec = Recorder::durable(TIMESTAMPED, path, rank, persist_config(registry))
                .expect("create journal");
            rec.reserve(stream.len() * repeat);
            rec
        })
        .collect()
}

/// Feeds `stream` × `repeat` to `rec` on virtual time in [`CHUNK`]-event
/// chunks; the wall time of each full chunk goes to `run.lat`.
#[inline]
fn feed<const TRACED: bool>(rec: &mut Recorder, stream: &[EventId], repeat: usize, run: &mut Run) {
    let mut t = 0;
    for _ in 0..repeat {
        for (k, chunk) in stream.chunks(CHUNK).enumerate() {
            if TRACED {
                // Every chunk is timed; one in SPAN_EVERY is also recorded.
                run.tracer.operation(t / TICK_NS, k % SPAN_EVERY == 0);
                run.tracer.enter(Layer::RecordEvents);
            }
            let t0 = Instant::now();
            for &e in chunk {
                t += TICK_NS;
                rec.record_at(e, t);
            }
            if chunk.len() == CHUNK {
                run.lat.push(t0.elapsed().as_nanos() as u64);
            }
            if TRACED {
                run.tracer.exit();
            }
        }
    }
}

/// The system `record_apps` measures: per application a shared registry
/// and a trace path; the recorders of the next round when set-up (or
/// nothing, then the round opens them itself).
pub struct RecordApps {
    registries: Vec<Arc<ConcurrentRegistry>>,
    paths: Vec<PathBuf>,
    opened: Option<Vec<Vec<Recorder>>>,
}

/// Expected stream of rank `rank` of `app` in a long recording.
fn long_stream(app: &AppInput, rank: usize) -> impl Iterator<Item = EventId> + '_ {
    (0..LONG_REPEAT).flat_map(move |_| app.large[rank].iter().copied())
}

/// Checks a saved trace file's bytes: they load, every thread unfolds to
/// exactly the stream that was recorded, and the loaded trace serialises
/// back to the same bytes.
pub fn check_saved_trace(app: &AppInput, bytes: &[u8]) -> Result<(), Violation> {
    let trace = TraceData::from_bytes(bytes)
        .map_err(|e| Violation::new("record.reload", format!("{}: {e}", app.name)))?;
    if trace.thread_count() != app.large.len() {
        return Err(Violation::new(
            "record.unfold",
            format!("{}: {} threads saved", app.name, trace.thread_count()),
        ));
    }
    for (rank, thread) in trace.threads().iter().enumerate() {
        if !thread.grammar.unfold_iter().eq(long_stream(app, rank)) {
            return Err(Violation::new(
                "record.unfold",
                format!(
                    "{} rank {rank}: grammar does not unfold to its input",
                    app.name
                ),
            ));
        }
    }
    if trace.to_bytes().as_ref() != bytes {
        return Err(Violation::new(
            "record.reload",
            format!("{}: reloaded trace serialises to different bytes", app.name),
        ));
    }
    Ok(())
}

impl Workload for RecordApps {
    type Plan = ();

    fn plan(_ctx: &Ctx) {}

    fn setup(ctx: &Ctx, _plan: &()) -> Self {
        let registries: Vec<_> = ctx
            .inputs
            .apps
            .iter()
            .map(|a| Arc::new(ConcurrentRegistry::from_registry(&a.registry)))
            .collect();
        let paths: Vec<_> = ctx
            .inputs
            .apps
            .iter()
            .map(|a| ctx.dir.join(format!("rec.{}.pythia", a.name)))
            .collect();
        let opened = ctx
            .inputs
            .apps
            .iter()
            .zip(&registries)
            .zip(&paths)
            .map(|((app, reg), path)| open_recorders(app, reg, path, LONG_REPEAT))
            .collect();
        RecordApps {
            registries,
            paths,
            opened: Some(opened),
        }
    }

    /// Per application: record every rank's long stream durably, finish,
    /// assemble and save the trace.
    fn round<const TRACED: bool>(&mut self, ctx: &Ctx, _plan: &(), run: &mut Run) -> RoundOut {
        let mut out = RoundOut::default();
        let mut opened = self.opened.take();
        for (a, app) in ctx.inputs.apps.iter().enumerate() {
            let (registry, path) = (&self.registries[a], &self.paths[a]);
            if TRACED {
                run.tracer.operation(a as u64, true);
                run.tracer.enter(Layer::RecordOpen);
            }
            let mut recorders = match opened.as_mut() {
                Some(all) => std::mem::take(&mut all[a]),
                None => open_recorders(app, registry, path, LONG_REPEAT),
            };
            if TRACED {
                run.tracer.exit();
            }
            run.slice();
            for (rec, stream) in recorders.iter_mut().zip(&app.large) {
                feed::<TRACED>(rec, stream, LONG_REPEAT, run);
                out.events += (stream.len() * LONG_REPEAT) as u64;
                out.tally.attempted += (stream.len() * LONG_REPEAT).div_ceil(CHUNK) as u64;
                out.tally.dropped += rec.dropped_events();
                run.slice();
            }
            if TRACED {
                run.tracer.operation(a as u64, true);
            }
            let mut threads = Vec::with_capacity(recorders.len());
            for rec in recorders {
                if TRACED {
                    run.tracer.enter(Layer::RecordFinish);
                }
                match rec.finish_thread() {
                    Ok(t) => threads.push(t),
                    Err(_) => out.tally.errored += 1,
                }
                if TRACED {
                    run.tracer.exit();
                }
                run.slice();
            }
            if TRACED {
                run.tracer.enter(Layer::TraceSave);
            }
            let saved = TraceData::from_threads(threads, registry.snapshot()).save(path);
            if TRACED {
                run.tracer.exit();
            }
            match saved.and_then(|()| Ok(std::fs::metadata(path)?.len())) {
                Ok(bytes) => out.trace_bytes += bytes,
                Err(_) => out.tally.errored += 1,
            }
            persist::remove_sidecars(path);
            run.slice();
        }
        out.trace_events = out.events;
        out
    }

    fn check(ctx: &Ctx, _plan: &()) -> Vec<Violation> {
        let mut system = RecordApps::setup(ctx, &());
        system.round::<false>(ctx, &(), &mut Run::idle());
        let mut violations = Vec::new();
        for (app, path) in ctx.inputs.apps.iter().zip(&system.paths) {
            match std::fs::read(path) {
                Ok(bytes) => violations.extend(check_saved_trace(app, &bytes).err()),
                Err(e) => violations.push(Violation::new(
                    "record.reload",
                    format!("{}: {e}", app.name),
                )),
            }
        }
        violations
    }
}

/// Paired probe rounds; each metric is the median over them.
const PROBE_ROUNDS: usize = 7;

/// The record-side layers in isolation, over every large stream once per
/// variant and round: the grammar builder alone, plus timestamps, plus
/// the journal, then finishing and saving.
pub fn probe(ctx: &Ctx) -> Vec<Metric> {
    let apps = &ctx.inputs.apps;
    let events = ctx.inputs.large_events as f64;
    let threads: usize = apps.iter().map(|a| a.large.len()).sum();
    let registries: Vec<_> = apps
        .iter()
        .map(|a| Arc::new(ConcurrentRegistry::from_registry(&a.registry)))
        .collect();
    // Room for every chunk latency of a pass, so the allocation counts
    // below see the recorders' allocations only.
    let mut run = Run::idle();
    run.lat
        .reserve(ctx.inputs.large_events as usize / CHUNK + 1);

    let (mut append, mut plain, mut journal) = (Vec::new(), Vec::new(), Vec::new());
    let (mut finish, mut save) = (Vec::new(), Vec::new());
    let mut chunks: Vec<u64> = Vec::new();
    let (mut allocs, mut writes, mut journal_bytes, mut rules, mut saved_bytes) =
        (0, None, 0, 0, 0);
    for round in 0..PROBE_ROUNDS {
        // Grammar builder alone: no timestamps, no journal.
        let t0 = Instant::now();
        for stream in apps.iter().flat_map(|a| &a.large) {
            let mut rec = Recorder::new(RecordConfig {
                timestamps: false,
                validate: false,
            });
            for &e in stream {
                rec.record(e);
            }
            std::hint::black_box(rec.event_count());
        }
        append.push(t0.elapsed().as_nanos() as f64 / events);

        // Plus explicit timestamps, in memory; finish and save timed apart.
        let (mut plain_ns, mut finish_ns, mut save_ns) = (0, 0, 0);
        (rules, saved_bytes) = (0, 0);
        for (a, app) in apps.iter().enumerate() {
            let mut finished = Vec::with_capacity(app.large.len());
            for stream in &app.large {
                let mut rec = Recorder::new(TIMESTAMPED);
                rec.reserve(stream.len());
                run.lat.clear();
                let t0 = Instant::now();
                feed::<false>(&mut rec, stream, 1, &mut run);
                plain_ns += t0.elapsed().as_nanos();
                let t0 = Instant::now();
                let thread = rec
                    .finish_thread()
                    .expect("in-memory recorders cannot fail");
                finish_ns += t0.elapsed().as_nanos();
                rules += thread.grammar.rule_count();
                finished.push(thread);
            }
            let path = ctx.dir.join(format!("probe.{}.pythia", app.name));
            let t0 = Instant::now();
            TraceData::from_threads(finished, registries[a].snapshot())
                .save(&path)
                .expect("save probe trace");
            save_ns += t0.elapsed().as_nanos();
            saved_bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        }
        plain.push(plain_ns as f64 / events);
        finish.push(finish_ns as f64 / 1e3 / threads as f64);
        save.push(save_ns as f64 / 1e3 / apps.len() as f64);

        // Plus the journal.
        let mut durable_ns = 0;
        let count = round == 0;
        let (mut alloc_delta, mut write_delta) = (0, Some(0));
        journal_bytes = 0;
        run.lat.clear();
        for (a, app) in apps.iter().enumerate() {
            let path = ctx.dir.join(format!("probe.{}.pythia", app.name));
            let mut recorders = open_recorders(app, &registries[a], &path, 1);
            let (a0, w0) = (probes::allocations(), probes::write_syscalls());
            let t0 = Instant::now();
            for (rec, stream) in recorders.iter_mut().zip(&app.large) {
                feed::<false>(rec, stream, 1, &mut run);
            }
            durable_ns += t0.elapsed().as_nanos();
            alloc_delta += probes::allocations() - a0;
            for (rank, rec) in recorders.into_iter().enumerate() {
                rec.finish_thread().expect("fault-free journal");
                journal_bytes +=
                    std::fs::metadata(persist::journal_path(&path, rank)).map_or(0, |m| m.len());
            }
            write_delta = write_delta
                .zip(w0.zip(probes::write_syscalls()))
                .map(|(sum, (before, after))| sum + (after - before));
            persist::remove_sidecars(&path);
        }
        if count {
            allocs = alloc_delta;
            writes = write_delta;
            chunks.clone_from(&run.lat);
        }
        journal.push(durable_ns as f64 / events - plain_ns as f64 / events);
    }

    // Interning a known descriptor: the lock-free read path.
    let reg = &registries[0];
    let names: Vec<(String, Option<i64>)> = reg.descs_from(0);
    let t0 = Instant::now();
    let reps = 200_000 / names.len().max(1);
    for _ in 0..reps {
        for (name, payload) in &names {
            std::hint::black_box(reg.intern(name, *payload));
        }
    }
    let intern_ns = t0.elapsed().as_nanos() as f64 / (reps * names.len()) as f64;

    chunks.sort_unstable();
    let mut out = vec![
        Metric::new(
            "core.grammar.append_ns_per_event",
            stats::median(&mut append),
            "ns",
        ),
        Metric::new(
            "core.record.plain_ns_per_event",
            stats::median(&mut plain),
            "ns",
        ),
        Metric::new(
            "core.persist.journal_ns_per_event",
            stats::median(&mut journal),
            "ns",
        ),
        Metric::new(
            "core.record.finish_us_per_thread",
            stats::median(&mut finish),
            "us",
        ),
        Metric::new(
            "core.trace.save_us_per_trace",
            stats::median(&mut save),
            "us",
        ),
        Metric::new("core.event.intern_ns", intern_ns, "ns"),
        Metric::new(
            "core.persist.journal_bytes_per_event",
            journal_bytes as f64 / events,
            "bytes",
        ),
        Metric::new("core.grammar.rules_total", rules as f64, "count"),
        Metric::new(
            "core.trace.bytes_per_kevent",
            saved_bytes as f64 * 1e3 / events,
            "bytes",
        ),
        Metric::new(
            "core.record.allocs_per_kevent",
            allocs as f64 * 1e3 / events,
            "count",
        ),
    ];
    if let Some((_, ns)) = stats::tail_sorted(&chunks) {
        out.push(Metric::new(
            "core.record.chunk_p99_us",
            ns as f64 / 1e3,
            "us",
        ));
    }
    match writes {
        Some(w) => out.push(Metric::new(
            "core.persist.write_syscalls_per_kevent",
            w as f64 * 1e3 / events,
            "count",
        )),
        None => eprintln!("warning: /proc/self/io unavailable, write_syscalls omitted"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::record_stream;
    use pythia_core::event::EventRegistry;

    fn tiny_app() -> AppInput {
        let mut registry = EventRegistry::new();
        let a = registry.intern("MPI_Send", Some(1));
        let b = registry.intern("MPI_Barrier", None);
        let large = vec![vec![a, b, a, b, a, a, b], vec![b, a, b]];
        AppInput {
            name: "tiny",
            registry,
            large,
            reference: PathBuf::new(),
            long_trace: None,
            solo: None,
        }
    }

    fn saved(app: &AppInput) -> Vec<u8> {
        let threads = app
            .large
            .iter()
            .map(|s| record_stream(s, LONG_REPEAT))
            .collect();
        TraceData::from_threads(threads, app.registry.clone())
            .to_bytes()
            .to_vec()
    }

    #[test]
    fn intact_trace_passes_and_one_flipped_byte_fails_loudly() {
        let app = tiny_app();
        let bytes = saved(&app);
        assert_eq!(check_saved_trace(&app, &bytes), Ok(()));
        // Whatever byte is hit — header, payload or checksum — the check
        // names the violation instead of passing.
        for at in [9, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let v = check_saved_trace(&app, &bad).expect_err("corruption must be caught");
            assert!(v.check.starts_with("record."), "{v:?}");
        }
    }

    #[test]
    fn a_trace_of_the_wrong_stream_fails_the_unfold_check() {
        let app = tiny_app();
        let mut other = tiny_app();
        other.large[1].rotate_left(1);
        let v = check_saved_trace(&app, &saved(&other)).expect_err("wrong stream");
        assert_eq!(v.check, "record.unfold");
    }
}
