//! Machine-immune counters read from outside the program under test: heap
//! allocations (a counting global allocator), `write`-class system calls,
//! voluntary context switches and peak resident memory (`/proc`), plus CPU
//! pinning. Off Linux every `/proc` reader answers `None`; callers omit the
//! metric and warn instead of failing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting calls that allocate.
pub struct CountingAlloc;

// Relaxed: a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Heap allocations (incl. reallocations) by any thread since start.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The number after `key` on its line of a `/proc` status-style file.
fn proc_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// `write`-class system calls issued by this process (`syscw`).
pub fn write_syscalls() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/io").ok()?;
    proc_field(&text, "syscw:")
}

/// Voluntary context switches summed over every live thread.
pub fn voluntary_ctx_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let status = task.ok()?.path().join("status");
        // A thread may exit between the listing and the read.
        if let Ok(text) = std::fs::read_to_string(status) {
            total += proc_field(&text, "voluntary_ctxt_switches:")?;
        }
    }
    Some(total)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    proc_field(&text, "VmHWM:").map(|kib| kib as f64 / 1024.0)
}

/// Pins the calling thread — and so every thread it spawns from then on,
/// which inherit the mask — to the first CPU it is allowed on, and returns
/// that CPU. Call before starting any thread.
///
/// All loads here are closed loop with one operation in flight, so one
/// thread is runnable at a time; on one CPU a hand-off is a context
/// switch, never a cross-CPU wake-up whose latency the hypervisor decides.
#[cfg(target_os = "linux")]
pub fn pin_to_first_cpu() -> Option<usize> {
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
        return None;
    }
    let word = mask.iter().position(|&w| w != 0)?;
    let cpu = word * 64 + mask[word].trailing_zeros() as usize;
    let mut only = [0u64; WORDS];
    only[word] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

/// Pinning is Linux-only; elsewhere the run proceeds unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_first_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_field_reads_the_named_line() {
        let text = "Name:\tx\nVmHWM:\t   2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(proc_field(text, "VmHWM:"), Some(2048));
        assert_eq!(proc_field(text, "voluntary_ctxt_switches:"), Some(17));
        assert_eq!(proc_field(text, "syscw:"), None);
    }

    #[test]
    fn counters_degrade_to_none_not_to_failure() {
        // On Linux they are present and monotone; elsewhere `None`.
        if let Some(a) = voluntary_ctx_switches() {
            std::thread::sleep(std::time::Duration::from_millis(2));
            assert!(voluntary_ctx_switches().expect("still readable") > a);
        }
        if let Some(mib) = peak_rss_mib() {
            assert!(mib > 0.0);
        }
        let before = write_syscalls();
        // libtest captures stderr in memory; /dev/null takes a real write(2).
        std::fs::write("/dev/null", b"probe").expect("write /dev/null");
        if let (Some(b), Some(a)) = (before, write_syscalls()) {
            assert!(a > b);
        }
    }
}
