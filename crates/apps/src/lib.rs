//! # pythia-apps
//!
//! Communication-structure-faithful skeletons of the 13 HPC applications
//! the PYTHIA paper evaluates (§III-A2): the NAS Parallel Benchmarks
//! kernels **BT, CG, EP, FT, IS, LU, MG, SP** (pure MPI) and **AMG,
//! LULESH, Kripke, miniFE, Quicksilver** (MPI + OpenMP).
//!
//! PYTHIA never inspects computation — it observes the *sequence of runtime
//! events* (MPI calls with peers/roots/ops, OpenMP region boundaries). The
//! skeletons therefore reproduce each application's published
//! communication and parallel-region structure (setup phases, iteration
//! loops whose trip counts depend on the working set, halo exchanges,
//! pipelined sweeps, data-dependent particle sends, …) while replacing the
//! numerics with a calibrated synthetic compute kernel ([`work`]). Each
//! application defines `Small`/`Medium`/`Large` working sets mirroring the
//! paper's problem classes; iteration counts are scaled down so the whole
//! evaluation runs on one machine in minutes (factors documented per app
//! and in EXPERIMENTS.md).
//!
//! The crate also contains [`lulesh_omp`], the OpenMP-only LULESH variant
//! used by the paper's adaptive-thread-count experiments (Figs. 10–14).

#![forbid(unsafe_code)]

pub mod amg;
pub mod harness;
pub mod kripke;
pub mod lulesh;
pub mod lulesh_omp;
pub mod minife;
pub mod npb;
pub mod quicksilver;
pub mod work;

use pythia_runtime_mpi::PythiaComm;

/// The three problem classes of the paper's evaluation (§III-A2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkingSet {
    /// The paper's *small* class (NPB class A, `-s 10`, …).
    Small,
    /// The paper's *medium* class (NPB class B, `-s 30`, …).
    Medium,
    /// The paper's *large* class (NPB class C, `-s 50`, …).
    Large,
}

impl WorkingSet {
    /// All classes, smallest first.
    pub const ALL: [WorkingSet; 3] = [WorkingSet::Small, WorkingSet::Medium, WorkingSet::Large];

    /// Selects one of three values by class.
    pub fn pick<T: Copy>(self, small: T, medium: T, large: T) -> T {
        match self {
            WorkingSet::Small => small,
            WorkingSet::Medium => medium,
            WorkingSet::Large => large,
        }
    }

    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        self.pick("small", "medium", "large")
    }
}

/// An MPI (or MPI+OpenMP) application skeleton, executable on any rank of
/// a [`pythia_minimpi::World`] through an instrumented communicator.
pub trait MpiApp: Sync {
    /// Application name as the paper spells it.
    fn name(&self) -> &'static str;

    /// Whether the paper runs it hybrid MPI+OpenMP (vs. pure MPI).
    fn hybrid(&self) -> bool {
        false
    }

    /// Preferred rank count for the Table I configuration (the paper uses
    /// 64 ranks for NPB, 8 for hybrid apps; the harness scales this down
    /// by default — see `harness`).
    fn preferred_ranks(&self) -> usize {
        8
    }

    /// Executes this rank's part of the application.
    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &work::WorkScale);
}

/// All 13 applications of the paper's evaluation, in Table I order.
pub fn all_apps() -> Vec<Box<dyn MpiApp>> {
    vec![
        Box::new(npb::bt::Bt),
        Box::new(npb::cg::Cg),
        Box::new(npb::ep::Ep),
        Box::new(npb::ft::Ft),
        Box::new(npb::is::Is),
        Box::new(npb::lu::Lu),
        Box::new(npb::mg::Mg),
        Box::new(npb::sp::Sp),
        Box::new(amg::Amg),
        Box::new(lulesh::Lulesh),
        Box::new(kripke::Kripke),
        Box::new(minife::MiniFe),
        Box::new(quicksilver::Quicksilver),
    ]
}

/// Finds an application by (case-insensitive) name.
pub fn find_app(name: &str) -> Option<Box<dyn MpiApp>> {
    all_apps()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_apps_registered() {
        let apps = all_apps();
        assert_eq!(apps.len(), 13);
        let names: Vec<&str> = apps.iter().map(|a| a.name()).collect();
        for expected in [
            "BT",
            "CG",
            "EP",
            "FT",
            "IS",
            "LU",
            "MG",
            "SP",
            "AMG",
            "Lulesh",
            "Kripke",
            "miniFE",
            "Quicksilver",
        ] {
            assert!(names.contains(&expected), "{expected} missing: {names:?}");
        }
    }

    #[test]
    fn hybrid_flags_match_paper() {
        for app in all_apps() {
            let hybrid = app.hybrid();
            let expect = matches!(
                app.name(),
                "AMG" | "Lulesh" | "Kripke" | "miniFE" | "Quicksilver"
            );
            assert_eq!(hybrid, expect, "{}", app.name());
        }
    }

    #[test]
    fn find_app_case_insensitive() {
        assert!(find_app("lulesh").is_some());
        assert!(find_app("LULESH").is_some());
        assert!(find_app("nonexistent").is_none());
    }

    #[test]
    fn working_set_helpers() {
        assert_eq!(WorkingSet::Small.pick(1, 2, 3), 1);
        assert_eq!(WorkingSet::Large.pick(1, 2, 3), 3);
        assert_eq!(WorkingSet::Medium.label(), "medium");
    }
}
