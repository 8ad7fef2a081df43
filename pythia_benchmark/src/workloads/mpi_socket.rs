//! `mpi_socket`: two ranks exchanging halos and reducing over the socket
//! communicator (`Hub::serve` + `SocketComm`), each through a recording
//! `PythiaComm` — transport-dominated; plus the threads-backend twin of
//! the same script.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use pythia_core::analyze::{analyze_trace, AnalyzeConfig, Severity};
use pythia_minimpi::{Communicator, Hub, HubStats, ReduceOp, SocketComm, World};
use pythia_runtime_mpi::session::assemble_trace;
use pythia_runtime_mpi::{ElasticStats, MpiMode, PythiaComm, RankReport, SharedRegistry};

use crate::harness::{Ctx, RoundOut, Run, Violation, Workload};
use crate::metrics::Metric;
use crate::probes;
use crate::stats;
use crate::trace::{Layer, Tracer};

/// Halo iterations per round.
pub const ITERATIONS: u64 = 4_000;

/// Ranks in the world.
const RANKS: usize = 2;

/// Oracle events one iteration submits on each rank.
const EVENTS_PER_ITERATION: u64 = 2;

/// One in this many iterations has its spans recorded in a traced round.
const SPAN_EVERY: u64 = 32;

/// Iterations per slice of a round (about 4 ms).
const SLICE_ITERATIONS: u64 = 100;

/// No timestamps: the recording lives as long as the run.
const MODE: MpiMode = MpiMode::Record { timestamps: false };

/// One halo iteration on `comm`: swap a value with the peer, then reduce.
/// Returns whether both results were right.
#[inline]
fn iteration<C: Communicator, const TRACED: bool>(
    comm: &PythiaComm<C>,
    i: u64,
    tracer: &mut Tracer,
) -> bool {
    let peer = 1 - comm.rank();
    let mine = i as i64 * 2 + comm.rank() as i64;
    if TRACED {
        tracer.enter(Layer::CommSendrecv);
    }
    let (halo, _) = comm.sendrecv(&[mine], peer, Some(peer), 7);
    if TRACED {
        tracer.exit();
        tracer.enter(Layer::CommAllreduce);
    }
    let sum = comm.allreduce(&[mine], ReduceOp::Sum);
    if TRACED {
        tracer.exit();
    }
    halo == [i as i64 * 2 + peer as i64] && sum == [i as i64 * 4 + 1]
}

/// Starts a hub for [`RANKS`] ranks at `path` and waits until it listens.
fn start_hub(path: &Path) -> JoinHandle<std::io::Result<HubStats>> {
    let _ = std::fs::remove_file(path);
    let hub = {
        let path = path.to_owned();
        std::thread::spawn(move || Hub::serve(&path, RANKS, false))
    };
    // Sleep, not yield: on one CPU a yielding spinner may keep the hub
    // thread waiting for a whole time slice.
    while !path.exists() {
        assert!(!hub.is_finished(), "hub exited before listening");
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
    // Let the hub reach its accept loop before a rank connects. It polls
    // every 10 ms; a rank that races its very first `accept` is welcomed
    // at once or a whole interval later, which made `setup_s` 0.4 or
    // 10 ms. This way it is always the latter: what a rank joining a hub
    // that is up pays.
    std::thread::sleep(std::time::Duration::from_micros(200));
    hub
}

/// Connects rank `rank` to the hub at `path` through a recording façade.
fn connect(path: &Path, rank: usize, registry: &SharedRegistry) -> PythiaComm<SocketComm> {
    // The path appears at bind(2) but connections are only taken from
    // listen(2) on; until then the kernel refuses them.
    let deadline = Instant::now() + std::time::Duration::from_secs(5);
    let comm = loop {
        match SocketComm::connect(path, rank, RANKS, 0) {
            Ok(comm) => break comm,
            Err(e) if e.kind() == ErrorKind::ConnectionRefused && Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            Err(e) => panic!("connect to hub: {e}"),
        }
    };
    PythiaComm::wrap(comm, &MODE, Arc::clone(registry))
}

/// Finishes a rank: its report, and a clean goodbye to the hub.
fn finish(comm: PythiaComm<SocketComm>) -> RankReport {
    let (report, inner) = comm.finish_into().expect("rank report");
    inner.bye().expect("goodbye to hub");
    report
}

/// What rank 1's thread is told.
enum Command {
    /// Run this many iterations, then report how many were wrong.
    Run(u64),
    /// Finish the rank and return its report.
    Finish,
}

/// The world: a hub thread, rank 1 on its own thread, rank 0 here.
pub struct MpiSocket {
    hub: JoinHandle<std::io::Result<HubStats>>,
    rank0: PythiaComm<SocketComm>,
    to_rank1: Sender<Command>,
    wrong_from_rank1: Receiver<u64>,
    rank1: JoinHandle<RankReport>,
    registry: SharedRegistry,
    ops: u64,
}

fn start(socket: PathBuf) -> MpiSocket {
    let hub = start_hub(&socket);
    let registry = PythiaComm::registry_for(&MODE);
    let (to_rank1, commands) = channel();
    let (report_wrong, wrong_from_rank1) = channel();
    let rank1 = {
        let registry = Arc::clone(&registry);
        let socket = socket.clone();
        std::thread::spawn(move || {
            let comm = connect(&socket, 1, &registry);
            let mut idle = Tracer::new(0);
            let mut next = 0;
            while let Ok(Command::Run(n)) = commands.recv() {
                let wrong = (next..next + n)
                    .filter(|&i| !iteration::<_, false>(&comm, i, &mut idle))
                    .count();
                next += n;
                if report_wrong.send(wrong as u64).is_err() {
                    break;
                }
            }
            finish(comm)
        })
    };
    let rank0 = connect(&socket, 0, &registry);
    MpiSocket {
        hub,
        rank0,
        to_rank1,
        wrong_from_rank1,
        rank1,
        registry,
        ops: 0,
    }
}

impl MpiSocket {
    /// Runs `n` iterations on both ranks; rank 0's are timed into
    /// `run.lat`, a slice every [`SLICE_ITERATIONS`].
    fn iterate<const TRACED: bool>(&mut self, n: u64, run: &mut Run) -> RoundOut {
        let mut out = RoundOut::default();
        self.to_rank1.send(Command::Run(n)).expect("rank 1 alive");
        for k in 0..n {
            let i = self.ops + k;
            if TRACED {
                run.tracer.operation(i, i.is_multiple_of(SPAN_EVERY));
            }
            let t0 = Instant::now();
            let right = iteration::<_, TRACED>(&self.rank0, i, &mut run.tracer);
            run.lat.push(t0.elapsed().as_nanos() as u64);
            out.tally.wrong += !right as u64;
            if (k + 1) % SLICE_ITERATIONS == 0 {
                run.slice();
            }
        }
        self.ops += n;
        out.tally.wrong += self.wrong_from_rank1.recv().expect("rank 1 alive");
        out.tally.attempted = n;
        out.events = n * EVENTS_PER_ITERATION * RANKS as u64;
        out
    }

    /// Finishes both ranks and the hub; returns the reports in rank order
    /// and the hub's failure counters.
    fn finish(self) -> (Vec<RankReport>, HubStats, SharedRegistry) {
        self.to_rank1.send(Command::Finish).expect("rank 1 alive");
        let report0 = finish(self.rank0);
        let report1 = self.rank1.join().expect("rank 1 thread");
        let hub = self.hub.join().expect("hub thread").expect("hub served");
        (vec![report0, report1], hub, self.registry)
    }
}

impl Workload for MpiSocket {
    type Plan = ();

    fn plan(_ctx: &Ctx) {}

    fn setup(_ctx: &Ctx, _plan: &()) -> Self {
        // Relative: the scratch directory is the working directory, and a
        // socket path has 108 bytes at most.
        start(PathBuf::from("hub.sock"))
    }

    fn round<const TRACED: bool>(&mut self, _ctx: &Ctx, _plan: &(), run: &mut Run) -> RoundOut {
        self.iterate::<TRACED>(ITERATIONS, run)
    }

    fn check(_ctx: &Ctx, _plan: &()) -> Vec<Violation> {
        let mut world = start(PathBuf::from("check-hub.sock"));
        let out = world.iterate::<false>(500, &mut Run::idle());
        let (reports, hub, registry) = world.finish();
        let mut violations = Vec::new();
        if out.tally.wrong > 0 {
            violations.push(Violation::new(
                "mpi_socket.results",
                format!("{} iterations with a wrong halo or sum", out.tally.wrong),
            ));
        }
        if hub != HubStats::default()
            || reports.iter().any(|r| r.elastic != ElasticStats::default())
        {
            violations.push(Violation::new(
                "mpi_socket.elastic",
                format!("fault-free world counted failures: {hub:?}"),
            ));
        }
        match assemble_trace(reports, &registry) {
            Ok(trace) => {
                let report = analyze_trace(&trace, &AnalyzeConfig::default());
                if report.exceeds(Severity::Error) {
                    violations.push(Violation::new("mpi_socket.analyze", report.render_text()));
                }
                if trace.total_events() != out.events {
                    violations.push(Violation::new(
                        "mpi_socket.trace",
                        format!(
                            "{} events recorded, {} submitted",
                            trace.total_events(),
                            out.events
                        ),
                    ));
                }
            }
            Err(e) => violations.push(Violation::new("mpi_socket.trace", e.to_string())),
        }
        violations
    }

    fn teardown(self) {
        self.finish();
    }
}

/// The same script on both backends: what the socket transport costs over
/// the in-process one.
pub fn probe(_ctx: &Ctx) -> Vec<Metric> {
    const N: u64 = 3_000;
    let mut world = start(PathBuf::from("probe-hub.sock"));
    world.iterate::<false>(N, &mut Run::idle());
    let mut run = Run::idle();
    let c0 = probes::voluntary_ctx_switches();
    world.iterate::<false>(N, &mut run);
    let switches = c0.zip(probes::voluntary_ctx_switches()).map(|(a, b)| b - a);
    world.finish();
    let mut socket_lat = run.lat;

    let mode = &MODE;
    let registry = PythiaComm::registry_for(mode);
    let mut threads_lat = World::run(RANKS, |comm| {
        let comm = PythiaComm::wrap(comm, mode, Arc::clone(&registry));
        let mut idle = Tracer::new(0);
        let mut lat = Vec::with_capacity(N as usize);
        for i in 0..2 * N {
            let t0 = Instant::now();
            iteration::<_, false>(&comm, i, &mut idle);
            if i >= N && comm.rank() == 0 {
                lat.push(t0.elapsed().as_nanos() as u64);
            }
        }
        comm.finish().expect("rank report");
        lat
    })
    .swap_remove(0);

    socket_lat.sort_unstable();
    threads_lat.sort_unstable();
    let p50_us = |sorted: &[u64]| stats::percentile_sorted(sorted, stats::P50) as f64 / 1e3;
    let mut out = vec![
        Metric::new("minimpi.threads.op_p50_us", p50_us(&threads_lat), "us"),
        Metric::new(
            "minimpi.socket_over_threads_ratio",
            p50_us(&socket_lat) / p50_us(&threads_lat),
            "ratio",
        ),
    ];
    if let Some((_, ns)) = stats::tail_sorted(&socket_lat) {
        out.push(Metric::new(
            "minimpi.socket.op_p99_us",
            ns as f64 / 1e3,
            "us",
        ));
    }
    match switches {
        Some(n) => out.push(Metric::new(
            "minimpi.socket.ctx_switches_per_op",
            n as f64 / N as f64,
            "count",
        )),
        None => eprintln!("warning: /proc/self/task unavailable, ctx_switches omitted"),
    }
    out
}
