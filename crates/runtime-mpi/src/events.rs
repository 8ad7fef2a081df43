//! The per-rank event-interning cache.

use pythia_core::event::EventId;
use pythia_core::util::FxHashMap;
use pythia_minimpi::MpiCall;

/// Registry shared by all ranks of a run (the trace file stores one
/// registry; interning must be globally consistent). The per-rank
/// [`EventCache`] keeps its lock cold: each rank interns a distinct
/// descriptor at most once per run.
pub use pythia_core::persist::SharedRegistry;

/// What an event of a rank's stream is: an intercepted MPI call, or a
/// non-MPI key point submitted through the same stream (e.g. the OpenMP
/// region boundaries of a hybrid application — the paper maintains one
/// grammar per thread across both runtime systems).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Call(MpiCall),
    Custom(&'static str, Option<i64>),
}

/// Per-rank cache resolving repeated descriptors without touching the
/// shared registry at all.
#[derive(Debug, Default)]
pub struct EventCache {
    map: FxHashMap<Key, EventId>,
}

impl EventCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves `call` to its [`EventId`] (its MPI name plus its payload),
    /// interning through the shared registry on a cache miss.
    pub fn resolve(&mut self, registry: &SharedRegistry, call: MpiCall) -> EventId {
        self.intern(registry, Key::Call(call), call.name(), call.payload())
    }

    /// Resolves the non-MPI key point `(name, payload)` to its [`EventId`].
    pub fn resolve_custom(
        &mut self,
        registry: &SharedRegistry,
        name: &'static str,
        payload: Option<i64>,
    ) -> EventId {
        self.intern(registry, Key::Custom(name, payload), name, payload)
    }

    fn intern(
        &mut self,
        registry: &SharedRegistry,
        key: Key,
        name: &str,
        payload: Option<i64>,
    ) -> EventId {
        if let Some(&id) = self.map.get(&key) {
            return id;
        }
        let id = registry.intern(name, payload);
        self.map.insert(key, id);
        id
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use pythia_core::event::ConcurrentRegistry;
    use pythia_minimpi::ReduceOp;

    #[test]
    fn cache_interns_once() {
        let registry: SharedRegistry = Arc::new(ConcurrentRegistry::new());
        let mut cache = EventCache::new();
        let a = cache.resolve(&registry, MpiCall::Send(3));
        let b = cache.resolve(&registry, MpiCall::Send(3));
        let c = cache.resolve(&registry, MpiCall::Send(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn cache_consistent_across_ranks() {
        let registry: SharedRegistry = Arc::new(ConcurrentRegistry::new());
        let mut c1 = EventCache::new();
        let mut c2 = EventCache::new();
        let a = c1.resolve(&registry, MpiCall::Barrier);
        let b = c2.resolve(&registry, MpiCall::Barrier);
        assert_eq!(a, b);
    }

    #[test]
    fn custom_points_share_the_registry_with_calls() {
        let registry: SharedRegistry = Arc::new(ConcurrentRegistry::new());
        let mut cache = EventCache::new();
        let call = cache.resolve(&registry, MpiCall::Barrier);
        assert_eq!(cache.resolve_custom(&registry, "MPI_Barrier", None), call);
        let region = cache.resolve_custom(&registry, "omp_region_begin", Some(1));
        assert_ne!(region, call);
        assert_eq!(registry.lookup("omp_region_begin", Some(1)), Some(region));
    }

    #[test]
    fn blocking_classification_matches_paper() {
        assert!(MpiCall::Wait.is_blocking_sync());
        assert!(MpiCall::Allreduce(ReduceOp::Sum).is_blocking_sync());
        assert!(MpiCall::Barrier.is_blocking_sync());
        assert!(!MpiCall::Isend(0).is_blocking_sync());
        assert!(!MpiCall::Send(0).is_blocking_sync());
    }

    #[test]
    fn names_are_mpi_spelled() {
        assert_eq!(MpiCall::Allreduce(ReduceOp::Sum).name(), "MPI_Allreduce");
        assert_eq!(MpiCall::CommSplit(0).name(), "MPI_Comm_split");
    }
}

#[cfg(test)]
mod kind_tests {
    use pythia_core::analyze::{classify, EventClass};
    use pythia_minimpi::{MpiCall, ReduceOp};

    /// What the protocol verifier must make of an event.
    #[derive(Clone, Copy)]
    enum Role {
        Is(EventClass),
        /// A collective; `payload_significant` says whether two ranks
        /// disagreeing on the payload count as divergence (not for
        /// communicator management, whose split color legitimately
        /// differs).
        Collective {
            payload_significant: bool,
        },
    }

    /// Every call the runtime emits, with the classification the verifier
    /// must give it.
    fn table() -> Vec<(MpiCall, Role)> {
        use Role::{Collective, Is};
        let send = |dest, blocking| Is(EventClass::Send { dest, blocking });
        let recv = |source, blocking| Is(EventClass::Recv { source, blocking });
        let op = ReduceOp::Max;
        let coll = Collective {
            payload_significant: true,
        };
        let management = Collective {
            payload_significant: false,
        };
        vec![
            (MpiCall::Send(3), send(3, true)),
            (MpiCall::Isend(3), send(3, false)),
            (MpiCall::Recv(Some(3)), recv(3, true)),
            (MpiCall::Recv(None), recv(-1, true)),
            (MpiCall::Irecv(Some(3)), recv(3, false)),
            (MpiCall::Irecv(None), recv(-1, false)),
            (MpiCall::Sendrecv(3), Is(EventClass::SendRecv { dest: 3 })),
            (MpiCall::Wait, Is(EventClass::Completion)),
            (MpiCall::Waitall, Is(EventClass::Completion)),
            (MpiCall::Barrier, coll),
            (MpiCall::Bcast(3), coll),
            (MpiCall::Reduce(op), coll),
            (MpiCall::Allreduce(op), coll),
            (MpiCall::Alltoall, coll),
            (MpiCall::Gather(3), coll),
            (MpiCall::Allgather, coll),
            (MpiCall::Scatter(3), coll),
            (MpiCall::Scan(op), coll),
            (MpiCall::ReduceScatter(op), coll),
            (MpiCall::CommDup, management),
            (MpiCall::CommSplit(3), management),
        ]
    }

    /// The analyzer sees only interned names and payloads, so every call
    /// the runtime emits must classify as the verifier expects: a drift
    /// would silently blind the verifier to a call.
    #[test]
    fn kind_agrees_with_core_classifier() {
        for (call, role) in table() {
            let class = classify(call.name(), call.payload());
            match role {
                Role::Is(expected) => assert_eq!(class, expected, "{call:?}"),
                Role::Collective {
                    payload_significant,
                } => {
                    let token = |payload| match classify(call.name(), payload) {
                        EventClass::Collective { token } => token,
                        other => panic!("{call:?} classified as {other:?}"),
                    };
                    token(call.payload());
                    assert_eq!(
                        token(Some(3)) != token(Some(4)),
                        payload_significant,
                        "{call:?}: payload significance drifted"
                    );
                }
            }
        }
        // Custom key points (OpenMP region boundaries) have no protocol
        // meaning.
        assert_eq!(classify("omp_region_begin", Some(3)), EventClass::Other);
    }

    /// `MPI_ANY_SOURCE` spelling: a wildcard receive payload classifies as
    /// a wildcard, for blocking and nonblocking receives alike.
    #[test]
    fn any_source_payload_is_wildcard() {
        for call in [MpiCall::Recv(None), MpiCall::Irecv(None)] {
            match classify(call.name(), call.payload()) {
                EventClass::Recv { source, .. } => assert_eq!(source, -1),
                c => panic!("{call:?} classified as {c:?}"),
            }
        }
    }

    /// Every blocking synchronization point the runtime queries the oracle
    /// at is either a collective or a completion — the kinds the verifier
    /// can match across ranks without a payload.
    #[test]
    fn blocking_sync_points_are_matchable() {
        let table = table();
        assert!(table.iter().any(|(call, _)| call.is_blocking_sync()));
        for (call, _) in table {
            if call.is_blocking_sync() {
                assert!(
                    matches!(
                        classify(call.name(), call.payload()),
                        EventClass::Collective { .. } | EventClass::Completion
                    ),
                    "{call:?}"
                );
            }
        }
    }
}

#[cfg(test)]
mod extended_call_tests {
    use pythia_minimpi::{MpiCall, ReduceOp};

    #[test]
    fn extended_calls_have_mpi_names() {
        assert_eq!(MpiCall::Sendrecv(0).name(), "MPI_Sendrecv");
        assert_eq!(MpiCall::Scan(ReduceOp::Sum).name(), "MPI_Scan");
        assert_eq!(
            MpiCall::ReduceScatter(ReduceOp::Sum).name(),
            "MPI_Reduce_scatter"
        );
        assert_eq!(MpiCall::CommDup.name(), "MPI_Comm_dup");
    }

    #[test]
    fn extended_blocking_classification() {
        assert!(MpiCall::Scan(ReduceOp::Sum).is_blocking_sync());
        assert!(MpiCall::ReduceScatter(ReduceOp::Sum).is_blocking_sync());
        assert!(!MpiCall::Sendrecv(0).is_blocking_sync());
        assert!(!MpiCall::CommDup.is_blocking_sync());
    }
}
