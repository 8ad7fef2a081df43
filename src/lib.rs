//! # pythia
//!
//! Meta-crate of the PYTHIA reproduction: re-exports the public API of all
//! workspace crates and hosts the repository-level examples and
//! integration tests. See the README for the architecture overview.

#![forbid(unsafe_code)]

pub use pythia_apps as apps;
pub use pythia_core as core;
pub use pythia_minimpi as minimpi;
pub use pythia_minomp as minomp;
pub use pythia_runtime_mpi as runtime_mpi;
pub use pythia_runtime_omp as runtime_omp;
pub use pythia_serve as serve;

pub use pythia_core::prelude::*;
