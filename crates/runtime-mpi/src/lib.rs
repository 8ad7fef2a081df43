//! # pythia-runtime-mpi
//!
//! The paper's **MPI runtime system** (§III-B): a façade over
//! [`pythia_minimpi`] that
//!
//! * submits a PYTHIA event for every MPI call — the event identifies the
//!   function plus, where the paper says so, an extra payload: the peer
//!   rank for point-to-point primitives, the reduction operation for
//!   reductions, the root rank for rooted collectives;
//! * requests predictions when entering blocking calls (`wait`, `waitall`,
//!   and every blocking collective), mimicking a runtime that would use
//!   synchronization time to run an optimization (message aggregation,
//!   persistent-communication setup, …);
//! * measures what the paper's evaluation needs: per-distance prediction
//!   accuracy (Fig. 8) and prediction latency (Fig. 9).
//!
//! The paper implements this by `LD_PRELOAD`-intercepting `MPI_*` symbols.
//! Here interception is one hook: every provided call of
//! [`pythia_minimpi::Communicator`] reports itself to
//! [`Communicator::intercept`](pythia_minimpi::Communicator::intercept)
//! before it touches a primitive, and [`PythiaComm`] implements the trait
//! by forwarding the primitives and overriding that hook. An application
//! written against the trait runs unchanged on a plain backend or on
//! [`PythiaComm`]; the observable behavior (which events are submitted
//! when) is the paper's, without the linking trick.

pub mod events;
pub mod omp_bridge;
pub mod probe;
pub mod recording;
pub mod session;

pub use omp_bridge::DurationPolicy;
pub use probe::{AccuracyProbe, CostProbe, DistanceAccuracy};
pub use recording::RecordingSession;
pub use session::{
    AggregationConfig, AggregationStats, ElasticStats, MpiMode, PythiaComm, RankReport,
    SharedRegistry,
};
