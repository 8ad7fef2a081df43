//! Publication of immutable snapshots.
//!
//! The contention-free recording model gives each recording thread sole
//! ownership of its mutable state (grammar builder, journal stage
//! buffer). Cross-thread observers — a progress watchdog, finalization
//! diagnostics — must still be able to look at a rank's recording
//! without stopping it, so the recorder *publishes* an immutable
//! snapshot at flush/checkpoint boundaries through a [`Published<T>`]:
//!
//! * the writer hands over a fully-built value; publication swaps one
//!   `Arc` under a mutex, so a reader never observes a half-written
//!   snapshot;
//! * the lock is held only to swap or clone that `Arc`, and a reader's
//!   closure runs outside it, so a publisher waits at most for a
//!   refcount increment, never for a reader's work. A superseded
//!   snapshot is freed when its last reader lets go of it.
//!
//! Publication happens at checkpoint boundaries (thousands of events
//! apart), so the lock is cold.

use std::sync::Arc;

use parking_lot::Mutex;

/// A multi-reader slot holding the latest published snapshot of type `T`.
#[derive(Debug)]
pub struct Published<T> {
    current: Mutex<Arc<T>>,
}

impl<T> Published<T> {
    /// A slot initially holding `value`.
    pub fn new(value: T) -> Self {
        Published {
            current: Mutex::new(Arc::new(value)),
        }
    }

    /// Publishes a new snapshot. Readers that already hold the old one
    /// keep it until their closure returns.
    pub fn publish(&self, value: T) {
        let old = std::mem::replace(&mut *self.current.lock(), Arc::new(value));
        // Freed here, outside the lock, unless a reader still holds it.
        drop(old);
    }

    /// Reads the latest published snapshot. The borrow is confined to
    /// the closure, which runs without the slot's lock held.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let snapshot = Arc::clone(&self.current.lock());
        f(&snapshot)
    }

    /// Clones the latest published snapshot out of the slot.
    pub fn get(&self) -> T
    where
        T: Clone,
    {
        self.read(T::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_and_read_roundtrip() {
        let p = Published::new(vec![0u64; 4]);
        assert_eq!(p.get(), vec![0u64; 4]);
        p.publish(vec![7u64; 4]);
        assert_eq!(p.read(|v| v.iter().sum::<u64>()), 28);
        p.publish(vec![9u64; 2]);
        assert_eq!(p.get(), vec![9u64; 2]);
    }

    /// The publication protocol under concurrency: a writer republishes
    /// self-consistent snapshots (all elements equal) while readers
    /// continuously validate that no snapshot is ever observed
    /// half-published.
    #[test]
    fn readers_never_observe_torn_snapshots() {
        let slot = Arc::new(Published::new(vec![0u64; 32]));
        let rounds: u64 = if cfg!(miri) { 25 } else { 2000 };
        std::thread::scope(|s| {
            for _ in 0..3 {
                let slot = Arc::clone(&slot);
                s.spawn(move || {
                    for _ in 0..rounds {
                        slot.read(|v| {
                            let first = v[0];
                            assert!(
                                v.iter().all(|&x| x == first),
                                "torn snapshot observed: {v:?}"
                            );
                        });
                    }
                });
            }
            let slot = Arc::clone(&slot);
            s.spawn(move || {
                for n in 1..=rounds {
                    slot.publish(vec![n; 32]);
                }
            });
        });
        // After the writer finished, the last snapshot is intact.
        slot.read(|v| assert!(v.iter().all(|&x| x == v[0])));
    }

    #[test]
    fn a_reader_keeps_its_snapshot_across_publishes() {
        // Publishing from inside `read` deadlocks if the closure ran under
        // the slot's lock, and the reader's borrow must not move.
        let p = Published::new(String::from("s0"));
        p.read(|s| {
            p.publish(String::from("s1"));
            p.publish(String::from("s2"));
            assert_eq!(s, "s0");
        });
        assert_eq!(p.get(), "s2");
    }

    #[test]
    fn panicking_reader_releases_its_pin() {
        // A panicking read closure must leave the slot usable: later
        // publishes and reads proceed as if the panic never happened.
        let p = Published::new(0u64);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.read(|_| panic!("reader panicked"));
        }));
        assert!(caught.is_err());
        p.publish(1);
        p.publish(2);
        assert_eq!(p.get(), 2);
    }
}
