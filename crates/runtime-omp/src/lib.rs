//! # pythia-runtime-omp
//!
//! The paper's modified **GNU OpenMP runtime** (§III-B, §III-D, §III-E):
//! an [`OmpListener`](pythia_minomp::OmpListener) implementation that
//!
//! * submits a PYTHIA event at the beginning and end of every parallel
//!   region (the region id plays the role of the paper's outlined-function
//!   pointer);
//! * in predict mode, asks the oracle at region entry for the region's
//!   probable duration `D_est` and picks the team size from a threshold
//!   table — `1` thread if `D_est < t_1`, `4` threads if `D_est < t_4`,
//!   and so on ([`ThresholdPolicy`]);
//! * optionally injects *unexpected events* at a configurable error rate,
//!   reproducing the resilience experiment of §III-E;
//! * accumulates the statistics the benches report (regions run, team-size
//!   histogram, oracle synchronization counters).
//!
//! The paper notes the whole integration took under 100 lines of GNU
//! OpenMP changes; the decision logic here is similarly small — most of
//! this crate is plumbing and measurement.
//!
//! ```
//! use pythia_minomp::{OmpRuntime, PoolMode, RegionId};
//! use pythia_runtime_omp::OmpOracle;
//!
//! // Reference execution: record.
//! let oracle = OmpOracle::recorder();
//! let rt = OmpRuntime::with_listener(4, PoolMode::Park, oracle.listener());
//! for _ in 0..50 {
//!     rt.parallel(RegionId(0), |_, _| { /* small region */ });
//! }
//! drop(rt);
//! let trace = oracle.finish_trace().unwrap();
//!
//! // Subsequent execution: adapt team sizes using predictions.
//! let oracle = OmpOracle::predictor(&trace, Default::default(), 0.0, 42);
//! let rt = OmpRuntime::with_listener(4, PoolMode::Park, oracle.listener());
//! for _ in 0..50 {
//!     rt.parallel(RegionId(0), |_, _| {});
//! }
//! drop(rt);
//! assert_eq!(oracle.stats().regions, 50);
//! ```

#![forbid(unsafe_code)]

pub mod oracle;
pub mod policy;

pub use oracle::{OmpOracle, OmpStats};
pub use policy::ThresholdPolicy;
