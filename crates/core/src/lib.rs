//! # pythia-core
//!
//! Core implementation of **PYTHIA**, an oracle that lets runtime systems
//! record the behavior of an application as a context-free grammar and, on
//! later executions, predict the application's future behavior
//! (reproduction of *PYTHIA: an oracle to guide runtime system decisions*,
//! Colin, Trahay, Conan — IEEE CLUSTER 2022).
//!
//! The crate is organized around three stages:
//!
//! * [`record`] — **PYTHIA-RECORD**: during a *reference execution*, the
//!   runtime submits [`event::EventId`]s; a [`record::Recorder`] compresses
//!   the per-thread event stream on the fly into a [`grammar::Grammar`]
//!   using a Sequitur-derived reduction extended with consecutive-repetition
//!   exponents (paper §II-A), and optionally logs timestamps.
//! * [`trace`] — the grammar plus the timing model derived from the
//!   timestamps are saved as a binary [`trace::TraceData`] file and
//!   reloaded by future executions.
//! * [`predict`] — **PYTHIA-PREDICT**: a [`predict::Predictor`] follows the
//!   new execution inside the reference grammar via *progress sequences*
//!   (paper §II-B), tolerates unexpected events by tracking weighted sets of
//!   candidate sequences, and answers distance-`x` event predictions
//!   (paper §II-C) as well as duration predictions through [`timing`].
//!
//! The [`oracle`] module offers the high-level [`oracle::Oracle`] facade that
//! runtime-system integrations (MPI, OpenMP) use: one object per thread,
//! switched between *record*, *predict*, and *off* modes. Integrations that
//! must survive a wrong, slow, or crashing oracle wrap it in
//! [`resilience::HardenedOracle`], which adds panic isolation, per-query
//! time budgets, an accuracy watchdog with quarantine, and deterministic
//! fault injection for chaos testing.
//!
//! ## Quick example
//!
//! ```
//! use pythia_core::prelude::*;
//!
//! // Reference execution: record events a b a b a b.
//! let mut registry = EventRegistry::new();
//! let a = registry.intern("a", None);
//! let b = registry.intern("b", None);
//! let mut rec = Recorder::new(RecordConfig::default());
//! for _ in 0..3 {
//!     rec.record(a);
//!     rec.record(b);
//! }
//! let trace = rec.finish(&registry).unwrap();
//!
//! // Later execution: reload and predict.
//! let mut pred = Predictor::new(&trace);
//! pred.observe(a);
//! let next = pred.predict(1);
//! assert_eq!(next.most_likely(), Some(b));
//! ```

#![forbid(unsafe_code)]

pub mod analyze;
pub mod error;
pub mod event;
pub mod grammar;
pub mod oracle;
pub mod persist;
pub mod predict;
pub mod record;
pub mod resilience;
pub mod sync;
pub mod timing;
pub mod trace;
pub mod util;
pub mod wire;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::analyze::{analyze_trace, AnalysisReport, AnalyzeConfig, Diagnostic, Severity};
    pub use crate::error::{Error, Result};
    pub use crate::event::{ConcurrentRegistry, EventDesc, EventId, EventRegistry};
    pub use crate::grammar::{Grammar, RuleId, Symbol, SymbolUse};
    pub use crate::oracle::{Oracle, OracleMode};
    pub use crate::persist::{PersistConfig, RecoverReport};
    pub use crate::predict::{Prediction, Predictor, PredictorConfig};
    pub use crate::record::{RecordConfig, RecordSnapshot, Recorder};
    pub use crate::resilience::{
        FaultPlan, HardenedOracle, OracleHealth, ResilienceConfig, ResilienceStats,
    };
    pub use crate::sync::Published;
    pub use crate::timing::TimingModel;
    pub use crate::trace::TraceData;
}

pub use prelude::*;
