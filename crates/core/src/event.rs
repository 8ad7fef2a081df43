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
/// One registry serves all threads of an application run (shared through
/// [`ConcurrentRegistry`]); it is serialized into the trace file so that the
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

/// The event registry every recording thread of a process shares
/// (`SharedRegistry = Arc<ConcurrentRegistry>`): an [`EventRegistry`]
/// behind one mutex.
///
/// The lock is cold by construction. The runtime's per-rank event cache
/// resolves repeated descriptors locally, so a run interns each distinct
/// descriptor at most once per rank; what is left is one
/// [`descs_from`](Self::descs_from) per journal flush and one
/// [`snapshot`](Self::snapshot) per checkpoint or trace assembly. Ids
/// are assigned densely in intern order, exactly like [`EventRegistry`].
#[derive(Debug, Default)]
pub struct ConcurrentRegistry(Mutex<EventRegistry>);

impl ConcurrentRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-seeded with the descriptors of `reg` (same ids).
    /// Used by predict mode to share one reference registry across ranks
    /// instead of cloning it per rank.
    pub fn from_registry(reg: &EventRegistry) -> Self {
        // Interned rather than cloned: a clone is faster by itself but
        // made the `record_apps` benchmark's set-up slower (EXPERIMENTS.md,
        // "Cold shared structures behind plain mutexes").
        let out = Self::new();
        for (_, d) in reg.iter() {
            out.intern(&d.name, d.payload);
        }
        out
    }

    /// Interns `(name, payload)` and returns its stable [`EventId`].
    pub fn intern(&self, name: &str, payload: Option<i64>) -> EventId {
        self.0.lock().intern(name, payload)
    }

    /// Looks up an already-interned descriptor without inserting.
    pub fn lookup(&self, name: &str, payload: Option<i64>) -> Option<EventId> {
        self.0.lock().lookup(name, payload)
    }

    /// Returns a copy of the descriptor for `id`, if it exists.
    pub fn describe(&self, id: EventId) -> Option<EventDesc> {
        self.0.lock().describe(id).cloned()
    }

    /// Human-readable name for `id` (falls back to the raw id).
    pub fn name_of(&self, id: EventId) -> String {
        self.0.lock().name_of(id)
    }

    /// Number of interned descriptors.
    pub fn len(&self) -> usize {
        self.0.lock().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The descriptors `start..len` as `(name, payload)` pairs — the
    /// journal's registry-delta writer calls this at flush boundaries.
    pub fn descs_from(&self, start: usize) -> Vec<(String, Option<i64>)> {
        let reg = self.0.lock();
        reg.descs
            .get(start..)
            .unwrap_or_default()
            .iter()
            .map(|d| (d.name.clone(), d.payload))
            .collect()
    }

    /// A copy of the registry as a plain [`EventRegistry`] (same ids):
    /// the immutable snapshot checkpointing and trace assembly embed.
    pub fn snapshot(&self) -> EventRegistry {
        self.0.lock().clone()
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
    fn concurrent_registry_assigns_dense_ids_in_intern_order() {
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
        let ids: Vec<u32> = r.snapshot().iter().map(|(id, _)| id.0).collect();
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
