//! What one halo iteration (`sendrecv` with the peer + `allreduce` of one
//! `i64`) costs on each backend, in counts that a slow or busy machine
//! cannot blur: heap allocations and voluntary context switches, over the
//! whole process — both ranks and, on the socket backend, the hub.
//!
//! Over the hub a blocking operation is one frame each way and a frame is
//! one syscall at each end, so an iteration parks each rank twice in
//! `read`, each connection thread twice in `read`, and one of the two
//! connection threads once more per operation — in `take` for the peer's
//! deposit, on the board for the peer's arrival: ten switches, and what
//! locks and the scheduler add. On `World::run` only that last park is
//! left, one per operation. Frames are built in and parsed out of buffers
//! the connection keeps, so the allocations left are what the
//! `Communicator` API hands out (`Bytes` payloads, two allocations each
//! in this workspace's shim; `Vec<Message>`; the decoded snapshot; the
//! `Vec<T>` results). With two-call frames, `sendrecv` as SEND + RECV, a
//! board that parked its last arriver a second time, and wake-ups sent
//! from under the lock the woken thread needs, the same loop cost 15.8
//! switches and 100 allocations over the hub, 5 switches on `World::run`.
//!
//! Both counters are process-global, so this binary holds one `#[test]`,
//! in phases. It pins itself to one CPU, as the benchmark does for the
//! same metric: there a hand-off is one switch and nothing else.
#![cfg(feature = "socket")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pythia_minimpi::{Communicator, Hub, HubStats, ReduceOp, SocketComm, World};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The voluntary switch count of a `/proc/.../status` file.
fn voluntary_switches_in(status: &str) -> Option<u64> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
    line.trim().parse().ok()
}

/// Voluntary context switches of every thread of this process so far;
/// `None` where `/proc` does not say. A thread that exits between two
/// readings takes its count out of the second.
fn voluntary_ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        if let Ok(status) = std::fs::read_to_string(task.ok()?.path().join("status")) {
            total += voluntary_switches_in(&status)?;
        }
    }
    Some(total)
}

/// Voluntary context switches of the calling thread so far: no other
/// thread's exit can lower it.
fn thread_voluntary_ctx_switches() -> Option<u64> {
    voluntary_switches_in(&std::fs::read_to_string("/proc/thread-self/status").ok()?)
}

/// Pins the calling thread — and every thread it spawns from then on,
/// which inherit the mask — to the first CPU it is allowed on.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> bool {
    // cpu_set_t is 1024 bits in glibc and musl.
    const WORDS: usize = 1024 / 64;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut only = [0u64; WORDS];
    only[word] = 1 << mask[word].trailing_zeros();
    // SAFETY: `only` is a live buffer of exactly the size passed.
    unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> bool {
    false
}

const ITERATIONS: u64 = 2_000;

/// One-rank worlds run back to back in phase 3.
const WORLDS: u64 = 200;

/// Halo iterations `rounds` of a 2-rank world, results checked.
fn halo<C: Communicator>(comm: &C, rounds: std::ops::Range<u64>) {
    let peer = 1 - comm.rank();
    for i in rounds {
        let mine = i as i64 * 2 + comm.rank() as i64;
        let (halo, _) = comm.sendrecv(&[mine], peer, Some(peer), 7);
        let sum = comm.allreduce(&[mine], ReduceOp::Sum);
        assert_eq!(
            (halo[0], sum[0]),
            (i as i64 * 2 + peer as i64, i as i64 * 4 + 1)
        );
    }
}

/// Per-iteration cost of [`ITERATIONS`] warm halo iterations as rank 0
/// reads it, for the whole process: allocations, and voluntary switches
/// if the platform counts them. Rank 1 runs the same loop and reads
/// nothing: reading allocates.
fn halo_cost<C: Communicator>(comm: &C) -> Option<(f64, Option<f64>)> {
    // Warm up: buffers reach their size. The barrier keeps rank 1's last
    // warm-up operations out of rank 0's window; the last `allreduce` of
    // the window completes only when both ranks are through it.
    halo(comm, 0..ITERATIONS);
    comm.barrier();
    let before =
        (comm.rank() == 0).then(|| (voluntary_ctx_switches(), ALLOCS.load(Ordering::Relaxed)));
    halo(comm, ITERATIONS..2 * ITERATIONS);
    let per_iteration = |n: u64| n as f64 / ITERATIONS as f64;
    let cost = before.map(|(switches, allocs)| {
        (
            per_iteration(ALLOCS.load(Ordering::Relaxed) - allocs),
            switches
                .zip(voluntary_ctx_switches())
                .map(|(before, after)| per_iteration(after - before)),
        )
    });
    // Rank 1's thread stays until rank 0 has read: `/proc` drops the
    // counts of a thread that exited.
    comm.barrier();
    cost
}

/// Runs `ranks` against a hub for a `size`-rank world on its own thread
/// and returns what they and the hub return.
fn with_hub<R>(tag: &str, size: usize, ranks: impl FnOnce(&Path) -> R) -> (R, HubStats) {
    let path =
        std::env::temp_dir().join(format!("pythia-op-cost-{}-{tag}.sock", std::process::id()));
    std::thread::scope(|s| {
        let hub = s.spawn(|| Hub::serve(&path, size, false).expect("hub"));
        while !path.exists() {
            assert!(!hub.is_finished(), "hub exited before listening");
            std::thread::sleep(Duration::from_millis(1));
        }
        let out = ranks(&path);
        (out, hub.join().expect("hub thread"))
    })
}

/// A `len`-byte frame prefix.
fn prefix(len: usize) -> [u8; 4] {
    (len as u32).to_le_bytes()
}

#[test]
fn a_halo_iteration_costs_its_frames_and_a_lying_prefix_nothing() {
    // Before any thread starts, so that every one inherits it.
    let pinned = pin_to_one_cpu();

    // Phase 1: the halo loop on both backends.
    let (threads_allocs, threads_switches) = World::run(2, |comm| halo_cost(&comm))
        .swap_remove(0)
        .expect("rank 0 measures");
    let (measured, stats) = with_hub("halo", 2, |path| {
        std::thread::scope(|s| {
            let rank = |rank| {
                s.spawn(move || {
                    let comm = SocketComm::connect(path, rank, 2, 0).expect("connect");
                    let cost = halo_cost(&comm);
                    comm.bye().expect("bye");
                    cost
                })
            };
            let (rank0, rank1) = (rank(0), rank(1));
            rank1.join().expect("rank 1");
            rank0.join().expect("rank 0").expect("rank 0 measures")
        })
    });
    assert_eq!(stats, HubStats::default());
    let (socket_allocs, socket_switches) = measured;
    eprintln!(
        "op_cost: per iteration, socket {socket_allocs} allocations {socket_switches:?} switches, \
         threads {threads_allocs} allocations {threads_switches:?} switches (pinned: {pinned})"
    );
    // Measured 52.0 and 20.0 in every run.
    assert!(
        socket_allocs <= 57.0,
        "{socket_allocs} allocations per socket iteration"
    );
    assert!(
        threads_allocs <= 22.0,
        "{threads_allocs} allocations per threads iteration"
    );
    match socket_switches.zip(threads_switches).filter(|_| pinned) {
        Some((socket, threads)) => {
            // Measured 11.6–12.2 and 2.0.
            assert!(
                socket <= 13.0,
                "{socket} voluntary switches per socket iteration"
            );
            assert!(
                threads <= 2.5,
                "{threads} voluntary switches per threads iteration"
            );
        }
        None => eprintln!("op_cost: cannot pin or count here, context switches not checked"),
    }

    // Phase 2: four bytes must not make the hub allocate what they claim.
    // HELLO as rank 0 of 1, then a prefix one byte under the frame cap
    // and EOF: the rank fails as for any bad frame, and `serve` returns.
    let (allocated, stats) = with_hub("lying", 1, |path| {
        let mut raw = UnixStream::connect(path).expect("connect");
        let mut hello = prefix(17).to_vec();
        hello.push(1); // OP_HELLO
        hello.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0]); // rank 0 of 1
        hello.extend_from_slice(&[0; 8]); // first incarnation
        raw.write_all(&hello).expect("hello");
        let mut welcome = [0u8; 5];
        raw.read_exact(&mut welcome).expect("welcome");
        assert_eq!(welcome, [1, 0, 0, 0, 0x81]);
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        raw.write_all(&prefix((64 << 20) - 1)).expect("prefix");
        drop(raw);
        before
    });
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - allocated;
    eprintln!("op_cost: {allocated} bytes allocated while the lying prefix was served");
    assert_eq!(stats.failures_detected, 1);
    assert!(
        allocated < 1 << 20,
        "{allocated} bytes allocated while a lying prefix was served"
    );

    // Phase 3: a one-rank world runs on the calling thread, and its sends
    // and collectives wake nobody, so nothing in it parks. A thread spawned
    // and joined per world cost about two switches per world. Counted on
    // this thread alone, which runs every world: phase 2's hub threads may
    // still be exiting, and would lower a count over the whole process.
    let before = thread_voluntary_ctx_switches();
    for world in 0..WORLDS {
        World::run(1, |comm| {
            for i in 0..50 {
                let (echo, _) = comm.sendrecv(&[world + i], 0, Some(0), 7);
                let sum = comm.allreduce(&[world + i], ReduceOp::Sum);
                assert_eq!((echo[0], sum[0]), (world + i, world + i));
            }
        });
    }
    let after = thread_voluntary_ctx_switches();
    match before.zip(after).filter(|_| pinned) {
        Some((before, after)) => {
            let switches = after - before;
            eprintln!("op_cost: {switches} voluntary switches over {WORLDS} one-rank worlds");
            assert!(
                switches <= 2,
                "{switches} voluntary switches over {WORLDS} one-rank worlds"
            );
        }
        None => eprintln!("op_cost: cannot pin or count here, one-rank worlds not checked"),
    }
}
