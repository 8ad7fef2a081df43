//! Events and the event registry.
//!
//! A runtime system notifies PYTHIA of an *event* whenever the application
//! reaches a key point: entry/exit of a function (e.g. `MPI_Send`), start or
//! end of a construct (a loop, an OpenMP parallel region), submission of a
//! task, … (paper §II-A). Each event is *an integer that identifies the key
//! point*, optionally refined by an additional payload such as the
//! destination rank of an MPI message or the root of a collective.
//!
//! The [`EventRegistry`] interns `(name, payload)` descriptors into dense
//! [`EventId`]s so that the grammar only ever manipulates small integers.
//! Two calls with the same descriptor yield the same id, which is exactly
//! the identity the grammar needs: `MPI_Send(dest=3)` and `MPI_Send(dest=5)`
//! are *different* terminal symbols, while two `MPI_Barrier`s are the same.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::util::FxHashMap;

/// A dense identifier for an interned event descriptor.
///
/// `EventId`s are the terminal symbols of the trace grammar. They are only
/// meaningful relative to the [`EventRegistry`] that produced them (the
/// registry is saved inside the trace file so ids remain stable between the
/// recording run and predicting runs, provided the runtime interns the same
/// descriptors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u32);

impl EventId {
    /// Index into registry-ordered arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The descriptor interned for an event: a key-point name plus an optional
/// integer payload (peer rank, reduction operation, region id, …).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventDesc {
    /// Key-point name, e.g. `"MPI_Send"` or `"GOMP_parallel_start"`.
    pub name: String,
    /// Optional distinguishing payload, e.g. destination rank.
    pub payload: Option<i64>,
}

impl std::fmt::Display for EventDesc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.payload {
            Some(p) => write!(f, "{}({})", self.name, p),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Interns event descriptors into dense [`EventId`]s.
///
/// The registry is shared by all threads of an application run (interning is
/// expected to be wrapped behind a lock by the integration layer; see
/// `pythia-runtime-mpi`); it is serialized into the trace file so that the
/// predicting run resolves the same descriptors to the same ids.
#[derive(Debug, Default, Clone)]
pub struct EventRegistry {
    descs: Vec<EventDesc>,
    index: FxHashMap<EventDesc, EventId>,
}

impl EventRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `(name, payload)` and returns its stable [`EventId`].
    pub fn intern(&mut self, name: &str, payload: Option<i64>) -> EventId {
        let desc = EventDesc {
            name: name.to_owned(),
            payload,
        };
        if let Some(&id) = self.index.get(&desc) {
            return id;
        }
        let id = EventId(self.descs.len() as u32);
        self.descs.push(desc.clone());
        self.index.insert(desc, id);
        id
    }

    /// Looks up an already-interned descriptor without inserting.
    pub fn lookup(&self, name: &str, payload: Option<i64>) -> Option<EventId> {
        let desc = EventDesc {
            name: name.to_owned(),
            payload,
        };
        self.index.get(&desc).copied()
    }

    /// Returns the descriptor for `id`, if it exists.
    pub fn describe(&self, id: EventId) -> Option<&EventDesc> {
        self.descs.get(id.index())
    }

    /// Human-readable name for `id` (falls back to the raw id).
    pub fn name_of(&self, id: EventId) -> String {
        match self.describe(id) {
            Some(d) => d.to_string(),
            None => id.to_string(),
        }
    }

    /// Number of interned descriptors.
    pub fn len(&self) -> usize {
        self.descs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.descs.is_empty()
    }

    /// Iterates over `(id, descriptor)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &EventDesc)> {
        self.descs
            .iter()
            .enumerate()
            .map(|(i, d)| (EventId(i as u32), d))
    }
}

/// Number of chunk slots in a [`ConcurrentRegistry`]. Chunk `k` holds
/// `CHUNK_BASE << k` descriptors, so 26 chunks cover the full `u32` id
/// space with a first allocation of only 64 slots.
const CHUNK_COUNT: usize = 26;
/// Capacity of chunk 0.
const CHUNK_BASE: usize = 64;

/// One lazily-allocated chunk of descriptor slots. Slots below the
/// registry's published `len` are immutable and read without
/// synchronization; slots at or above it are written by at most one
/// thread (the writer holds the intern lock).
struct Chunk {
    slots: Box<[UnsafeCell<MaybeUninit<EventDesc>>]>,
}

impl Chunk {
    fn new(cap: usize) -> Box<Chunk> {
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::new(Chunk { slots })
    }
}

/// Locates descriptor `idx` inside the chunk table: returns
/// `(chunk, offset)`. Chunk `k` starts at `CHUNK_BASE * (2^k - 1)`.
#[inline]
fn chunk_of(idx: usize) -> (usize, usize) {
    let bucket = idx / CHUNK_BASE + 1;
    let k = (usize::BITS - 1 - bucket.leading_zeros()) as usize;
    let start = CHUNK_BASE * ((1usize << k) - 1);
    (k, idx - start)
}

/// An append-only event registry with a lock-free read path.
///
/// This is the structure every recording thread of a process shares
/// (`SharedRegistry = Arc<ConcurrentRegistry>`). Interning — the only
/// mutation — serializes writers behind one short critical section, but
/// it is off the hot path by construction: the per-thread
/// [`EventCache`](../../pythia_runtime_mpi) resolves repeated
/// descriptors locally, so a steady-state run interns each distinct
/// descriptor exactly once. Everything the hot or warm paths do read —
/// [`describe`](Self::describe), [`name_of`](Self::name_of),
/// [`len`](Self::len), [`descs_from`](Self::descs_from) used by the
/// journal's registry-delta writer — takes no lock at all:
///
/// * descriptors live in chunked stable storage (geometrically growing
///   chunks, never reallocated or moved), so `&EventDesc` borrows stay
///   valid for the registry's lifetime;
/// * a writer fills the slot first, then publishes it by bumping `len`
///   with `Release`; readers load `len` with `Acquire` and only touch
///   slots below it — the classic single-writer publication handshake,
///   extended to multiple writers by the intern lock.
///
/// Ids are assigned densely in intern order, exactly like
/// [`EventRegistry`]; [`snapshot`](Self::snapshot) materializes the
/// published prefix as a plain `EventRegistry` for checkpointing and
/// trace assembly.
pub struct ConcurrentRegistry {
    /// Published descriptor count: slots `< len` are immutable.
    len: AtomicUsize,
    /// Chunk table; a null entry means the chunk is not allocated yet.
    chunks: [std::sync::atomic::AtomicPtr<Chunk>; CHUNK_COUNT],
    /// Writer side: the intern map, guarding all appends.
    index: Mutex<FxHashMap<EventDesc, EventId>>,
}

// SAFETY: slots below `len` are immutable and published with
// Release/Acquire; slots above it are only touched while holding the
// intern lock. `EventDesc` itself is Send + Sync.
unsafe impl Send for ConcurrentRegistry {}
unsafe impl Sync for ConcurrentRegistry {}

impl Default for ConcurrentRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for ConcurrentRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentRegistry")
            .field("len", &self.len())
            .finish()
    }
}

impl ConcurrentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ConcurrentRegistry {
            len: AtomicUsize::new(0),
            chunks: std::array::from_fn(
                |_| std::sync::atomic::AtomicPtr::new(std::ptr::null_mut()),
            ),
            index: Mutex::new(FxHashMap::default()),
        }
    }

    /// A registry pre-seeded with the descriptors of `reg` (same ids).
    /// Used by predict mode to share one immutable reference registry
    /// across ranks instead of cloning it per rank.
    pub fn from_registry(reg: &EventRegistry) -> Self {
        let out = Self::new();
        for (_, d) in reg.iter() {
            out.intern(&d.name, d.payload);
        }
        out
    }

    /// Reads the descriptor slot `idx`, which must be `< len`.
    #[inline]
    fn slot(&self, idx: usize) -> &EventDesc {
        let (k, off) = chunk_of(idx);
        // Acquire pairs with the Release in `intern` that allocated the
        // chunk and published the slot.
        let chunk = self.chunks[k].load(Ordering::Acquire);
        debug_assert!(!chunk.is_null());
        unsafe { (*(*chunk).slots[off].get()).assume_init_ref() }
    }

    /// Interns `(name, payload)` and returns its stable [`EventId`].
    /// Takes `&self`: writers serialize on the intern lock, readers are
    /// never blocked.
    pub fn intern(&self, name: &str, payload: Option<i64>) -> EventId {
        let desc = EventDesc {
            name: name.to_owned(),
            payload,
        };
        let mut index = self.index.lock();
        if let Some(&id) = index.get(&desc) {
            return id;
        }
        let idx = self.len.load(Ordering::Relaxed);
        let id = EventId(idx as u32);
        let (k, off) = chunk_of(idx);
        let mut chunk = self.chunks[k].load(Ordering::Relaxed);
        if chunk.is_null() {
            chunk = Box::into_raw(Chunk::new(CHUNK_BASE << k));
            // Release so readers that see the bumped `len` also see the
            // chunk pointer's pointee fully initialized.
            self.chunks[k].store(chunk, Ordering::Release);
        }
        // SAFETY: slot `idx` is above the published `len`, and we hold
        // the intern lock, so no other thread reads or writes it.
        unsafe {
            (*chunk).slots[off]
                .get()
                .write(MaybeUninit::new(desc.clone()))
        };
        // Publish: everything written above happens-before any reader
        // that observes the new length.
        self.len.store(idx + 1, Ordering::Release);
        index.insert(desc, id);
        id
    }

    /// Looks up an already-interned descriptor without inserting.
    pub fn lookup(&self, name: &str, payload: Option<i64>) -> Option<EventId> {
        let desc = EventDesc {
            name: name.to_owned(),
            payload,
        };
        self.index.lock().get(&desc).copied()
    }

    /// Returns the descriptor for `id`, if published. Lock-free.
    #[inline]
    pub fn describe(&self, id: EventId) -> Option<&EventDesc> {
        let len = self.len.load(Ordering::Acquire);
        if id.index() < len {
            Some(self.slot(id.index()))
        } else {
            None
        }
    }

    /// Human-readable name for `id` (falls back to the raw id).
    pub fn name_of(&self, id: EventId) -> String {
        match self.describe(id) {
            Some(d) => d.to_string(),
            None => id.to_string(),
        }
    }

    /// Number of interned descriptors. Lock-free.
    #[inline]
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether the registry is empty. Lock-free.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The descriptors `start..len` as `(name, payload)` pairs — the
    /// journal's registry-delta writer calls this at flush boundaries
    /// without blocking any interning thread.
    pub fn descs_from(&self, start: usize) -> Vec<(String, Option<i64>)> {
        let len = self.len();
        (start..len)
            .map(|i| {
                let d = self.slot(i);
                (d.name.clone(), d.payload)
            })
            .collect()
    }

    /// Materializes the published prefix as a plain [`EventRegistry`]
    /// (same ids, index rebuilt). This is the immutable snapshot
    /// checkpointing and trace assembly embed.
    pub fn snapshot(&self) -> EventRegistry {
        let len = self.len();
        let mut out = EventRegistry::new();
        for i in 0..len {
            let d = self.slot(i);
            out.intern(&d.name, d.payload);
        }
        out
    }

    /// Iterates over the published `(id, descriptor)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, &EventDesc)> {
        let len = self.len();
        (0..len).map(move |i| (EventId(i as u32), self.slot(i)))
    }
}

impl Drop for ConcurrentRegistry {
    fn drop(&mut self) {
        let len = *self.len.get_mut();
        for (k, chunk) in self.chunks.iter_mut().enumerate() {
            let ptr = *chunk.get_mut();
            if ptr.is_null() {
                continue;
            }
            let mut boxed = unsafe { Box::from_raw(ptr) };
            let start = CHUNK_BASE * ((1usize << k) - 1);
            let cap = CHUNK_BASE << k;
            let live = len.saturating_sub(start).min(cap);
            for slot in &mut boxed.slots[..live] {
                unsafe { slot.get_mut().assume_init_drop() };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let mut r = EventRegistry::new();
        let a = r.intern("MPI_Send", Some(3));
        let b = r.intern("MPI_Send", Some(5));
        let a2 = r.intern("MPI_Send", Some(3));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn payload_distinguishes_events() {
        let mut r = EventRegistry::new();
        let bare = r.intern("MPI_Bcast", None);
        let rooted = r.intern("MPI_Bcast", Some(0));
        assert_ne!(bare, rooted);
    }

    #[test]
    fn describe_and_names() {
        let mut r = EventRegistry::new();
        let a = r.intern("MPI_Barrier", None);
        assert_eq!(r.describe(a).unwrap().name, "MPI_Barrier");
        assert_eq!(r.name_of(a), "MPI_Barrier");
        let b = r.intern("MPI_Send", Some(7));
        assert_eq!(r.name_of(b), "MPI_Send(7)");
        assert_eq!(r.name_of(EventId(99)), "e99");
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut r = EventRegistry::new();
        assert_eq!(r.lookup("x", None), None);
        assert_eq!(r.len(), 0);
        let x = r.intern("x", None);
        assert_eq!(r.lookup("x", None), Some(x));
    }

    #[test]
    fn iter_in_id_order() {
        let mut r = EventRegistry::new();
        let ids: Vec<EventId> = (0..5).map(|i| r.intern("e", Some(i))).collect();
        let seen: Vec<EventId> = r.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, seen);
    }

    #[test]
    fn concurrent_registry_matches_plain_semantics() {
        let r = ConcurrentRegistry::new();
        let a = r.intern("MPI_Send", Some(3));
        let b = r.intern("MPI_Send", Some(5));
        assert_eq!(r.intern("MPI_Send", Some(3)), a);
        assert_ne!(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.describe(a).unwrap().name, "MPI_Send");
        assert_eq!(r.name_of(b), "MPI_Send(5)");
        assert_eq!(r.name_of(EventId(99)), "e99");
        assert_eq!(r.lookup("MPI_Send", Some(5)), Some(b));
        assert_eq!(r.lookup("missing", None), None);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap.lookup("MPI_Send", Some(3)), Some(a));
    }

    #[test]
    fn concurrent_registry_crosses_chunk_boundaries() {
        // Enough descriptors to span several chunks (64 + 128 + ...).
        let r = ConcurrentRegistry::new();
        let n = 1000i64;
        for i in 0..n {
            assert_eq!(r.intern("e", Some(i)), EventId(i as u32));
        }
        assert_eq!(r.len(), n as usize);
        for i in 0..n {
            assert_eq!(r.describe(EventId(i as u32)).unwrap().payload, Some(i));
        }
        let deltas = r.descs_from(900);
        assert_eq!(deltas.len(), 100);
        assert_eq!(deltas[0], ("e".to_string(), Some(900)));
        let ids: Vec<u32> = r.iter().map(|(id, _)| id.0).collect();
        assert_eq!(ids.len(), n as usize);
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn concurrent_registry_seeded_from_registry() {
        let mut plain = EventRegistry::new();
        let a = plain.intern("a", None);
        let b = plain.intern("b", Some(1));
        let r = ConcurrentRegistry::from_registry(&plain);
        assert_eq!(r.lookup("a", None), Some(a));
        assert_eq!(r.lookup("b", Some(1)), Some(b));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn concurrent_registry_parallel_intern_and_read() {
        // Writers intern overlapping descriptor sets while readers walk
        // the published prefix: ids stay dense, reads never tear.
        let r = std::sync::Arc::new(ConcurrentRegistry::new());
        let threads = 4;
        let per = if cfg!(miri) { 40 } else { 400 };
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..per {
                        // Half the keys are shared across threads.
                        let key = if i % 2 == 0 { i } else { t * 10_000 + i };
                        let id = r.intern("k", Some(key as i64));
                        let d = r.describe(id).expect("published id readable");
                        assert_eq!(d.payload, Some(key as i64));
                    }
                });
            }
            let r2 = std::sync::Arc::clone(&r);
            s.spawn(move || {
                for _ in 0..per {
                    let len = r2.len();
                    for i in 0..len {
                        // Every slot below the published length is a
                        // fully-initialized descriptor.
                        assert_eq!(r2.describe(EventId(i as u32)).unwrap().name, "k");
                    }
                }
            });
        });
        let snap = r.snapshot();
        assert_eq!(snap.len(), r.len());
        for (id, d) in snap.iter() {
            assert_eq!(r.lookup(&d.name, d.payload), Some(id));
        }
    }
}
