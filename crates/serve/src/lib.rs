//! # pythia-serve — oracle-as-a-service
//!
//! A sharded, multi-tenant prediction server over the PYTHIA oracle
//! (Colin, Trahay & Conan, IEEE CLUSTER 2022). One process loads N
//! reference traces (tenants), prewarms their grammar indexes once,
//! and serves prediction sessions to many concurrent client runtimes:
//!
//! - **Shards, each behind one lock.** Sessions live in per-shard slabs
//!   with generation-tagged ids; a session's shard is packed into its
//!   id, so routing is arithmetic. A shard is a value, not a thread: a
//!   request runs to completion under its shard's lock on the thread
//!   that brought it — a connection thread writes the reply it computed
//!   — and no thread holds two shard locks. What is read without a
//!   shard's lock is immutable `Arc`s (tenant grammars) and each shard's
//!   stats copy, stored under a mutex of its own after every mutating
//!   request.
//! - **Batched observation.** Clients ship events in batches; the shard
//!   feeds whole batches to [`Predictor::observe_batch`], which hoists
//!   the grammar-index walker across the batch instead of re-entering
//!   the oracle per event.
//! - **Admission control.** Every (shard, tenant) pair has its own
//!   [`CircuitBreaker`] scored by observe outcomes. A tenant whose
//!   stream diverges from its reference trace degrades to no-advice
//!   responses — and stops consuming oracle compute — without touching
//!   any other tenant's sessions or predictions.
//! - **One protocol, three transports.** Length-prefixed frames over
//!   TCP, Unix sockets, or the in-process [`Client`] (which round-trips
//!   the same bytes, minus the kernel).
//!
//! ```
//! use pythia_core::event::{EventId, EventRegistry};
//! use pythia_core::record::{RecordConfig, Recorder};
//! use pythia_serve::{Request, Response, ServeConfig, Server, Tenants};
//!
//! // Record a reference trace for one tenant.
//! let mut rec = Recorder::new(RecordConfig { timestamps: false, validate: false });
//! for _ in 0..8 {
//!     rec.record_at(EventId(1), 0);
//!     rec.record_at(EventId(2), 0);
//! }
//! let trace = rec.finish(&EventRegistry::new()).unwrap();
//!
//! // Serve it, open a session, observe, predict.
//! let server = Server::start(
//!     Tenants::from_traces([("app".to_string(), trace)]).unwrap(),
//!     ServeConfig { workers: 2, ..ServeConfig::default() },
//! )
//! .unwrap();
//! let client = server.client();
//! let Response::Session { id } = client
//!     .call(&Request::Open { tenant: "app".into(), durable: false })
//!     .unwrap()
//! else { panic!("open failed") };
//! client
//!     .call(&Request::Observe { session: id, events: vec![EventId(1), EventId(2), EventId(1)] })
//!     .unwrap();
//! let Response::Advice { prediction: Some(p), .. } =
//!     client.call(&Request::Predict { session: id, distance: 1 }).unwrap()
//! else { panic!("predict failed") };
//! assert_eq!(p.most_likely(), Some(EventId(2)));
//! ```
//!
//! [`Predictor::observe_batch`]: pythia_core::predict::Predictor::observe_batch
//! [`CircuitBreaker`]: pythia_core::resilience::CircuitBreaker

#![forbid(unsafe_code)]

pub mod proto;
pub mod server;
pub mod session;
pub mod shard;
pub mod tenant;

pub use proto::{Admission, Request, Response};
pub use server::{Client, RecoverReport, RetryPolicy, Router, ServeConfig, Server, SocketClient};
pub use session::SessionId;
pub use shard::ShardStats;
pub use tenant::{TenantSpec, Tenants};

#[cfg(test)]
mod tests;
