//! What one served request costs, in counts that a slow or busy machine
//! cannot blur: heap allocations and voluntary context switches.
//!
//! A request runs to completion on the connection thread that read it,
//! so over a socket it costs the socket's own two hand-offs (the client
//! blocks for the reply, the connection thread blocks for the next
//! request) and no third; in process it costs none. Frames are built in
//! and parsed out of buffers that both ends keep, so what is left to
//! allocate is four: the event vector and the distribution, once on each
//! side of the wire. The stats published before the reply are a copy
//! stored under a lock, which allocates nothing.
//! With a thread and a channel per shard, as this server once had, the
//! same loop cost 16.5 allocations and 4.55 switches per request.
//!
//! Both counters are process-global, so this binary holds one `#[test]`.
//! It pins itself to one CPU, as the benchmark does for the same metric:
//! there a hand-off is one switch and nothing else. Across two CPUs the
//! same loop read 2.7–3.0 switches per request in a quarter of runs, the
//! client thread alone 1.9: it blocks twice per `read` — most likely
//! woken once for nothing when the server's `read` frees the request's
//! buffer, a Unix socket having one wait queue for both directions.
//! That is the socket's doing, however the server is built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use pythia_core::event::{EventId, EventRegistry};
use pythia_core::record::{RecordConfig, Recorder};
use pythia_core::resilience::FaultPlan;
use pythia_serve::{
    Admission, Request, Response, ServeConfig, Server, SessionId, SocketClient, Tenants,
};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Voluntary context switches of every thread of this process so far;
/// `None` where `/proc` does not say.
fn voluntary_ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        // A thread may exit between the listing and the read.
        if let Ok(status) = std::fs::read_to_string(task.ok()?.path().join("status")) {
            let line = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
            total += line.trim().parse::<u64>().ok()?;
        }
    }
    Some(total)
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

const REQUESTS: u64 = 2_000;
const SEQ: [u32; 4] = [1, 2, 3, 4];

/// Sends `REQUESTS` one-event `ObservePredict`s on `session` and returns
/// what they cost per request: allocations, and voluntary switches if
/// the platform counts them. The request is built inside the window, as
/// a caller would build it.
fn cost_per_request(
    session: SessionId,
    call: &mut dyn FnMut(&Request) -> Response,
) -> (f64, Option<f64>) {
    let (allocs, switches) = (ALLOCS.load(Ordering::Relaxed), voluntary_ctx_switches());
    for k in 0..REQUESTS {
        let reply = call(&Request::ObservePredict {
            session,
            distance: 1,
            events: vec![EventId(SEQ[k as usize % SEQ.len()])],
        });
        assert!(
            matches!(
                reply,
                Response::Advice {
                    prediction: Some(_),
                    admission: Admission::Served,
                    ..
                }
            ),
            "request {k} returned {reply:?}"
        );
    }
    let per_request = |n: u64| n as f64 / REQUESTS as f64;
    (
        per_request(ALLOCS.load(Ordering::Relaxed) - allocs),
        switches
            .zip(voluntary_ctx_switches())
            .map(|(before, after)| per_request(after - before)),
    )
}

#[test]
fn a_request_costs_its_contents_and_the_sockets_two_hand_offs() {
    // Before any thread starts, so that the server's inherit it.
    let pinned = pin_to_one_cpu();
    let mut rec = Recorder::new(RecordConfig {
        timestamps: false,
        validate: false,
    });
    for _ in 0..16 {
        for e in SEQ {
            rec.record_at(EventId(e), 0);
        }
    }
    let trace = rec.finish(&EventRegistry::new()).unwrap();
    let mut server = Server::start(
        Tenants::from_traces([("t".to_string(), trace)]).unwrap(),
        ServeConfig {
            workers: 1,
            faults: Some(FaultPlan::none()),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let path =
        std::env::temp_dir().join(format!("pythia-request-cost-{}.sock", std::process::id()));
    server.listen_unix(&path).unwrap();

    let inproc = server.client();
    let mut socket = SocketClient::connect_unix(&path).unwrap();
    let mut over_socket = |req: &Request| socket.call(req).unwrap();
    let mut in_process = |req: &Request| inproc.call(req).unwrap();
    let open = |call: &mut dyn FnMut(&Request) -> Response| match call(&Request::Open {
        tenant: "t".into(),
        durable: false,
    }) {
        Response::Session { id } => id,
        other => panic!("open returned {other:?}"),
    };
    let (socket_session, inproc_session) = (open(&mut over_socket), open(&mut in_process));

    // Warm up: buffers reach their size, the sessions their cycle.
    cost_per_request(socket_session, &mut over_socket);
    cost_per_request(inproc_session, &mut in_process);

    let (allocs, switches) = cost_per_request(socket_session, &mut over_socket);
    assert!(allocs <= 4.5, "{allocs} allocations per socket request");
    let (_, inproc_switches) = cost_per_request(inproc_session, &mut in_process);
    match switches.zip(inproc_switches).filter(|_| pinned) {
        Some((socket, inproc)) => {
            assert!(
                socket <= 2.5,
                "{socket} voluntary switches per socket request"
            );
            assert!(
                inproc <= 0.1,
                "{inproc} voluntary switches per in-process request"
            );
        }
        None => eprintln!("request_cost: cannot pin or count here, context switches not checked"),
    }
    drop(socket);
    server.shutdown();
}
