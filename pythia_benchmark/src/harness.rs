//! The measurement loop shared by all workloads: repeated set-up, warm-up,
//! speed-calibrated rounds of fixed work cut into slices, and the traced
//! variant.
//!
//! # How a timing is estimated
//!
//! The reference box is a shared VM. Its speed moves in two ways: the
//! whole core runs in one of two modes a factor 1.3 apart for seconds at a
//! time, and other tenants (and other processes of this VM) slow
//! cache-sensitive code in bursts of 50 ms to minutes. Medians over whole
//! rounds moved by 10–30 % between identical runs. Two things help:
//!
//! * *Calibration* handles the modes: a frozen CPU-bound kernel is timed
//!   before and after every round, and the round's times are scaled to the
//!   speed the kernel ran at (measured slope of round time on kernel time:
//!   1.0).
//! * *Slices* handle the bursts: a round's fixed work is cut into a fixed
//!   sequence of slices of a few ms; over the run's rounds each slice has
//!   many samples, and its **lower decile** is taken. Interference only
//!   ever adds time, so the fast side of a slice's distribution is the
//!   program's own; a burst spoils a few slices of a few rounds, not nine
//!   tenths of a slice's samples. The round time is the sum of the slices'
//!   lower deciles.
//!
//! A change to the program moves every quantile alike, so nothing is lost
//! in sensitivity. Over ten runs on ten seeds during a disturbed hour the
//! eight workloads' `events_per_s` spread (interquartile range over median)
//! by 9–29 % as the median over rounds, 3–20 % as the lower quartile over
//! slices, 2–13 % as the lower decile; during a quiet hour by 1–2 % each.

use std::path::Path;
use std::time::Instant;

use crate::inputs::Inputs;
use crate::probes;
use crate::stats::{self, Tally};
use crate::trace::{Layer, Tracer};

/// Rounds run before timing starts, so caches, allocator arenas and lazy
/// initialisation have settled.
pub const WARMUP_ROUNDS: usize = 2;

/// Fewest timed rounds, however long they take.
pub const MIN_ROUNDS: usize = 4;

/// Fewest set-ups timed per run.
pub const MIN_SETUPS: usize = 5;

/// Most set-ups timed per run: set-ups repeat until [`SETUP_BUDGET_S`] is
/// spent, so that even those that wait on a poll interval (the hub
/// accepts every 10 ms) have a steady median.
pub const MAX_SETUPS: usize = 200;

/// Wall time after which no further set-up is started.
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Span records kept per traced run.
const SPAN_CAPACITY: usize = 1 << 16;

/// What a workload is given.
pub struct Ctx<'a> {
    /// The generated inputs.
    pub inputs: &'a Inputs,
    /// The workload seed: noise, session assignment, request order.
    pub seed: u64,
    /// Scratch directory (the process's working directory, so Unix socket
    /// paths inside it stay short when given relative).
    pub dir: &'a Path,
}

/// What one round did.
#[derive(Debug, Default, Clone, Copy)]
pub struct RoundOut {
    /// Oracle events carried end to end.
    pub events: u64,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Distance-1 predictions that named the event that came next.
    pub d1_correct: u64,
    /// Distance-1 predictions scored.
    pub d1_scored: u64,
    /// Bytes of trace files written.
    pub trace_bytes: u64,
    /// Events those files hold.
    pub trace_events: u64,
}

/// A named, violated correctness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The check, e.g. `record.unfold`.
    pub check: &'static str,
    /// What was found.
    pub detail: String,
}

impl Violation {
    /// Shorthand constructor.
    pub fn new(check: &'static str, detail: impl Into<String>) -> Self {
        Violation {
            check,
            detail: detail.into(),
        }
    }
}

/// What a round writes its measurements to.
pub struct Run {
    /// Span tracer; only touched by `TRACED` rounds.
    pub tracer: Tracer,
    /// Latency (ns) of each timed caller-visible operation of the round.
    pub lat: Vec<u64>,
    slices: Vec<u64>,
    mark: Instant,
}

impl Run {
    /// A run for untraced rounds (probes, checks, warm-up): its tracer
    /// keeps no span records.
    pub fn idle() -> Self {
        Run {
            tracer: Tracer::new(0),
            lat: Vec::new(),
            slices: Vec::new(),
            mark: Instant::now(),
        }
    }

    /// Starts a round: forgets the previous round's samples.
    pub fn begin(&mut self) {
        self.lat.clear();
        self.slices.clear();
        self.mark = Instant::now();
    }

    /// Ends a slice of the round's fixed work. Workloads call this at the
    /// same points of every round, a few ms of work apart.
    #[inline]
    pub fn slice(&mut self) {
        let now = Instant::now();
        self.slices.push((now - self.mark).as_nanos() as u64);
        self.mark = now;
    }
}

/// One benchmark workload: a seeded plan (inputs shaped from the seed,
/// untimed), a system built from it (timed as set-up), rounds of fixed
/// work against that system, and correctness checks.
pub trait Workload: Sized {
    /// Seed-dependent inputs; the system under test sees only these.
    type Plan;

    /// Shapes the inputs from the seed.
    fn plan(ctx: &Ctx) -> Self::Plan;

    /// Builds the system a user would build before the first operation.
    fn setup(ctx: &Ctx, plan: &Self::Plan) -> Self;

    /// One round of fixed work, cut into slices ([`Run::slice`]). Pushes
    /// the latency of each timed caller-visible operation to `run.lat`.
    /// With `TRACED`, brackets every call into a layer with a span.
    fn round<const TRACED: bool>(
        &mut self,
        ctx: &Ctx,
        plan: &Self::Plan,
        run: &mut Run,
    ) -> RoundOut;

    /// Runs the correctness checks (outside the timed rounds).
    fn check(ctx: &Ctx, plan: &Self::Plan) -> Vec<Violation>;

    /// Stops whatever set-up started (servers, hubs) and waits for it.
    fn teardown(self) {}
}

/// One timed round, raw.
#[derive(Debug, Clone)]
pub struct RoundSample {
    /// Calibration kernel time, ns: the faster of the runs just before and
    /// just after the round. (If the core changed speed in between, the
    /// round reads slow, and the estimator keeps the fast side.)
    pub calib_ns: f64,
    /// Wall time of the round, ns.
    pub wall_ns: f64,
    /// Median latency of the round's timed operations, ns.
    pub op_p50_ns: f64,
    /// Wall time of each slice of the round, ns.
    pub slices_ns: Vec<u64>,
}

/// Process-wide counters, read from outside the program under test.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Heap allocations.
    pub allocs: u64,
    /// Voluntary context switches over all threads (Linux only).
    pub ctx_switches: Option<u64>,
    /// `write`-class system calls (Linux only).
    pub write_syscalls: Option<u64>,
}

impl Counters {
    /// The counters now.
    pub fn now() -> Self {
        Counters {
            allocs: probes::allocations(),
            ctx_switches: probes::voluntary_ctx_switches(),
            write_syscalls: probes::write_syscalls(),
        }
    }

    /// What was counted since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let delta = |now: Option<u64>, then: Option<u64>| now.zip(then).map(|(n, t)| n - t);
        Counters {
            allocs: self.allocs - earlier.allocs,
            ctx_switches: delta(self.ctx_switches, earlier.ctx_switches),
            write_syscalls: delta(self.write_syscalls, earlier.write_syscalls),
        }
    }
}

/// Everything measured in one run of one workload.
pub struct Measured {
    /// Set-up times as measured, s.
    pub setup_s: Vec<f64>,
    /// The timed rounds.
    pub rounds: Vec<RoundSample>,
    /// Counts of one round (every round does the same work; checked).
    pub per_round: RoundOut,
    /// Counts summed over the timed rounds.
    pub total: RoundOut,
    /// Operation latencies pooled over the timed rounds, ascending, ns
    /// (traced runs only: an untraced run keeps each round's median, so
    /// its peak memory does not depend on how many rounds fit).
    pub pooled_lat: Vec<u64>,
    /// Mean wall time of the untraced comparison rounds of a traced run.
    pub untraced_wall_ns: Option<f64>,
    /// Rounds whose counts or slice count differed from the first round's.
    pub unsteady_rounds: usize,
    /// Process counters over the timed rounds.
    pub counters: Counters,
    /// The tracer of a traced run.
    pub tracer: Option<Tracer>,
}

fn add(total: &mut RoundOut, out: &RoundOut) {
    total.events += out.events;
    total.tally.absorb(&out.tally);
    total.d1_correct += out.d1_correct;
    total.d1_scored += out.d1_scored;
    total.trace_bytes += out.trace_bytes;
    total.trace_events += out.trace_events;
}

fn same_work(a: &RoundOut, b: &RoundOut) -> bool {
    a.events == b.events
        && a.tally == b.tally
        && a.d1_correct == b.d1_correct
        && a.d1_scored == b.d1_scored
        && a.trace_bytes == b.trace_bytes
}

/// Most latencies pooled per traced run: enough for a 99.99th percentile.
const POOL_CAPACITY: usize = 1 << 20;

/// Runs `W` for about `seconds` of timed rounds. When `traced`, the timed
/// rounds are traced and preceded by [`MIN_ROUNDS`] untraced ones, so the
/// tracing overhead is the ratio of the two.
pub fn measure<W: Workload>(ctx: &Ctx, seconds: f64, traced: bool) -> Measured {
    let plan = W::plan(ctx);

    // Set-up, several times over; the last system is the one measured.
    let mut setup_s = Vec::with_capacity(MAX_SETUPS);
    let mut system = None;
    let started = Instant::now();
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        if let Some(old) = system.take() {
            W::teardown(old);
        }
        let t0 = Instant::now();
        system = Some(W::setup(ctx, &plan));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut system = system.expect("at least one set-up");

    let mut run = Run::idle();
    for _ in 0..WARMUP_ROUNDS {
        run.begin();
        system.round::<false>(ctx, &plan, &mut run);
    }
    let untraced_wall_ns = traced.then(|| {
        let t0 = Instant::now();
        for _ in 0..MIN_ROUNDS {
            run.begin();
            system.round::<false>(ctx, &plan, &mut run);
        }
        t0.elapsed().as_nanos() as f64 / MIN_ROUNDS as f64
    });
    if traced {
        run.tracer = Tracer::new(SPAN_CAPACITY);
    }

    let mut rounds: Vec<RoundSample> = Vec::new();
    let mut per_round: Option<RoundOut> = None;
    let mut total = RoundOut::default();
    let mut pooled_lat = Vec::new();
    let mut unsteady_rounds = 0;
    let before = Counters::now();
    let started = Instant::now();
    let mut calib = stats::calibrate();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        run.begin();
        let t0 = Instant::now();
        let out = if traced {
            run.tracer.operation(rounds.len() as u64, false);
            run.tracer.enter(Layer::Round);
            let out = system.round::<true>(ctx, &plan, &mut run);
            run.tracer.exit();
            out
        } else {
            system.round::<false>(ctx, &plan, &mut run)
        };
        let wall_ns = t0.elapsed().as_nanos() as f64;
        let after = stats::calibrate();
        if traced {
            let room = POOL_CAPACITY - pooled_lat.len();
            pooled_lat.extend_from_slice(&run.lat[..run.lat.len().min(room)]);
        }
        let op_p50_ns = match run.lat.len() {
            0 => 0.0,
            n => *run.lat.select_nth_unstable(n / 2).1 as f64,
        };
        let steady = match (&per_round, rounds.first()) {
            (Some(first), Some(round)) => {
                same_work(first, &out) && round.slices_ns.len() == run.slices.len()
            }
            _ => true,
        };
        unsteady_rounds += !steady as usize;
        per_round.get_or_insert(out);
        add(&mut total, &out);
        rounds.push(RoundSample {
            calib_ns: calib.min(after),
            wall_ns,
            op_p50_ns,
            slices_ns: run.slices.clone(),
        });
        calib = after;
    }
    let counters = Counters::now().since(&before);
    W::teardown(system);
    pooled_lat.sort_unstable();
    Measured {
        setup_s,
        rounds,
        per_round: per_round.expect("at least one round"),
        total,
        pooled_lat,
        untraced_wall_ns,
        unsteady_rounds,
        counters,
        tracer: traced.then_some(run.tracer),
    }
}

impl Measured {
    /// A round's worth of work in calibrated ns, interference rejected:
    /// the sum over slices of each slice's lower-decile calibrated time
    /// over the rounds (see the module documentation).
    pub fn round_ns(&self) -> f64 {
        let slices = self
            .rounds
            .iter()
            .map(|r| r.slices_ns.len())
            .min()
            .unwrap_or(0);
        (0..slices)
            .map(|s| {
                let mut samples: Vec<f64> = self
                    .rounds
                    .iter()
                    .map(|r| stats::normalize_time(r.slices_ns[s] as f64, r.calib_ns))
                    .collect();
                stats::lower_decile(&mut samples)
            })
            .sum()
    }

    /// Events per calibrated second.
    pub fn events_per_s(&self) -> f64 {
        self.per_round.events as f64 * 1e9 / self.round_ns()
    }

    /// Calibrated median operation latency in µs: the lower decile over
    /// rounds of each round's median.
    pub fn op_p50_us(&self) -> f64 {
        let mut samples: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| stats::normalize_time(r.op_p50_ns, r.calib_ns) / 1e3)
            .collect();
        stats::lower_decile(&mut samples)
    }

    /// Set-up time in s: the lower quartile over the set-ups, **not**
    /// calibrated. Set-up is file opens, reads, thread starts and page
    /// faults, which take the same time in both speed modes of the box
    /// (measured: 13 trace loads took 116–139 µs whether the kernel ran in
    /// 16.7 or 21.2 ms), so scaling them made the metric bimodal. And the
    /// quartile, not the decile: a set-up that waits on a poll interval —
    /// the hub accepts every 10 ms — is spread by the program itself.
    pub fn setup_s(&self) -> f64 {
        stats::quartiles(&mut self.setup_s.clone())[0]
    }

    fn median_over_rounds(&self, f: impl Fn(&RoundSample) -> f64) -> f64 {
        stats::median(&mut self.rounds.iter().map(f).collect::<Vec<_>>())
    }

    /// Events per wall-clock second, uncalibrated: median over rounds.
    pub fn raw_events_per_s(&self) -> f64 {
        let events = self.per_round.events as f64;
        self.median_over_rounds(|r| events * 1e9 / r.wall_ns)
    }

    /// Uncalibrated median operation latency in µs: median over rounds.
    pub fn raw_op_p50_us(&self) -> f64 {
        self.median_over_rounds(|r| r.op_p50_ns / 1e3)
    }

    /// Median calibration kernel time, ns.
    pub fn calib_ns(&self) -> f64 {
        self.median_over_rounds(|r| r.calib_ns)
    }

    /// Mean wall time of a timed round, ns.
    pub fn mean_round_ns(&self) -> f64 {
        self.rounds.iter().map(|r| r.wall_ns).sum::<f64>() / self.rounds.len() as f64
    }

    /// First quartile, median and third quartile over rounds (or set-ups)
    /// of each calibrated timing taken whole, by metric name: how noisy
    /// the box was during this run.
    pub fn quartiles(&self) -> [(&'static str, [f64; 3]); 3] {
        let events = self.per_round.events as f64;
        let over_rounds = |f: &dyn Fn(&RoundSample) -> f64| {
            stats::quartiles(&mut self.rounds.iter().map(f).collect::<Vec<_>>())
        };
        [
            (
                "events_per_s",
                over_rounds(&|r| stats::normalize_rate(events * 1e9 / r.wall_ns, r.calib_ns)),
            ),
            (
                "op_p50_us",
                over_rounds(&|r| stats::normalize_time(r.op_p50_ns, r.calib_ns) / 1e3),
            ),
            ("setup_s", stats::quartiles(&mut self.setup_s.clone())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(calib_ns: f64, slices_ns: &[u64]) -> RoundSample {
        RoundSample {
            calib_ns,
            wall_ns: slices_ns.iter().sum::<u64>() as f64,
            op_p50_ns: 100.0,
            slices_ns: slices_ns.to_vec(),
        }
    }

    fn measured(rounds: Vec<RoundSample>) -> Measured {
        Measured {
            setup_s: vec![1.0],
            rounds,
            per_round: RoundOut {
                events: 1_000,
                ..RoundOut::default()
            },
            total: RoundOut::default(),
            pooled_lat: Vec::new(),
            untraced_wall_ns: None,
            unsteady_rounds: 0,
            counters: Counters {
                allocs: 0,
                ctx_switches: None,
                write_syscalls: None,
            },
            tracer: None,
        }
    }

    #[test]
    fn a_burst_in_one_round_does_not_move_the_estimate() {
        let reference = stats::CALIB_REF_NS;
        let quiet: Vec<RoundSample> = (0..8).map(|_| round(reference, &[100, 200, 300])).collect();
        let clean = measured(quiet.clone()).round_ns();
        assert_eq!(clean, 600.0);
        // A neighbour triples the first two slices of one round.
        let mut disturbed = quiet;
        disturbed[3] = round(reference, &[300, 600, 300]);
        assert_eq!(measured(disturbed).round_ns(), clean);
    }

    #[test]
    fn a_slow_mode_is_calibrated_away() {
        let reference = stats::CALIB_REF_NS;
        // Half the rounds at 1.3× slower speed: kernel and work alike.
        let rounds: Vec<RoundSample> = (0..8)
            .map(|k| match k % 2 {
                0 => round(reference, &[1_000, 2_000]),
                _ => round(1.3 * reference, &[1_300, 2_600]),
            })
            .collect();
        let m = measured(rounds);
        assert!((m.round_ns() - 3_000.0).abs() < 1e-6);
        assert!((m.events_per_s() - 1_000.0 * 1e9 / 3_000.0).abs() < 1e-3);
        assert!((m.op_p50_us() - 100.0 / 1.3 / 1e3).abs() < 1e-9);
    }

    #[test]
    fn a_real_slowdown_moves_it_in_full() {
        let reference = stats::CALIB_REF_NS;
        let before = measured((0..8).map(|_| round(reference, &[100, 200])).collect());
        let after = measured((0..8).map(|_| round(reference, &[110, 220])).collect());
        assert!((after.round_ns() / before.round_ns() - 1.1).abs() < 1e-12);
    }
}
