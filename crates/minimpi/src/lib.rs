//! # pythia-minimpi
//!
//! An MPI-like message-passing runtime: one call surface, one world, two
//! ways for a rank to reach it.
//!
//! This crate is the communication substrate of the PYTHIA reproduction
//! (Colin et al., CLUSTER 2022). The paper evaluates PYTHIA by intercepting
//! the MPI calls of 13 HPC applications; PYTHIA itself never looks at the
//! wire — it only observes *which* MPI functions are called, with which
//! peers/roots/operations, and *when*. `pythia-minimpi` therefore
//! implements a real message-passing runtime with the same call surface
//! (point-to-point send/recv, nonblocking operations with requests,
//! collectives, communicator splitting), executing ranks as threads of one
//! process so the full 13-application evaluation runs on a laptop.
//!
//! ## Model
//!
//! * The whole call surface is the [`Communicator`] trait, written once
//!   over a handful of backend primitives; import it to call anything.
//!   Each provided call reports itself, as an [`MpiCall`], to one hook,
//!   [`Communicator::intercept`], that a wrapper overrides to instrument
//!   every call (the PMPI profiling interface).
//! * [`World::run`] launches `n` ranks, each executing the same closure
//!   with a [`Comm`] handle (the `MPI_COMM_WORLD` equivalent): rank 0 on
//!   the calling thread, every other rank on a thread of its own.
//! * Point-to-point messages are eager and buffered:
//!   [`Communicator::send`] deposits into the destination's mailbox and
//!   returns; [`Communicator::recv`] blocks until a message matching
//!   `(source, tag)` arrives. Matching is FIFO per (source, tag) pair —
//!   MPI's non-overtaking rule.
//! * Nonblocking operations return [`Request`]s completed by
//!   [`Communicator::wait`] / [`Communicator::waitall`]. Receive requests
//!   are *lazy*: the matching happens at wait time (sufficient for the
//!   skeleton applications; documented deviation from eager MPI progress).
//! * Collectives ([`Communicator::barrier`], [`Communicator::bcast`],
//!   [`Communicator::reduce`], [`Communicator::allreduce`],
//!   [`Communicator::alltoall`], [`Communicator::gather`],
//!   [`Communicator::allgather`], [`Communicator::scatter`]) are built on
//!   a generation-counted rendezvous board.
//! * [`Communicator::split`] creates sub-communicators, as used by e.g.
//!   the NPB kernels (row/column communicators in CG, BT).
//!
//! ```
//! use pythia_minimpi::{Communicator, ReduceOp, World};
//!
//! let sums = World::run(4, |comm| {
//!     let mine = [comm.rank() as u64 + 1];
//!     let total = comm.allreduce(&mine, ReduceOp::Sum);
//!     total[0]
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```
//!
//! ## Backends and fault tolerance
//!
//! Both backends run the same world state (mailboxes, rendezvous boards,
//! split registry, failure bookkeeping — [`comm`]) behind the same
//! [`Comm`] handles; they differ only in how a rank reaches its handle:
//!
//! * **threads** (always built): [`World::run`] launches ranks as
//!   threads of one process, each holding its handle.
//!   [`World::run_result`] converts a rank failure into
//!   [`CommError::RankFailed`] instead of hanging the survivors;
//!   [`World::run_elastic`] replaces a failed rank with a fresh
//!   incarnation that resumes from its durable journal.
//! * **socket** (feature `socket`): `socket::Hub` hosts the world in a
//!   process of its own and drives each rank's handles from the thread
//!   serving that rank's Unix-socket connection, so ranks run as separate
//!   processes (`socket::SocketComm`); a `kill -9`'d rank is detected by
//!   connection EOF and an elastic hub admits its replacement.

pub mod collective;
pub mod comm;
pub mod communicator;
pub mod datatype;
pub mod failure;
pub mod p2p;
pub mod request;
#[cfg(feature = "socket")]
pub mod socket;

pub use comm::{Comm, ElasticWorldStats, World};
pub use communicator::{Communicator, MpiCall};
pub use datatype::{MpiReduce, MpiType, ReduceOp};
pub use failure::{CommError, FailureState, PoisonedWorld, RankFault, RANK_TIMEOUT_ENV};
pub use p2p::{Message, NetworkStats, Status, Tag, ANY_SOURCE, ANY_TAG};
pub use request::Request;
#[cfg(feature = "socket")]
pub use socket::{Hub, HubStats, SocketComm};
