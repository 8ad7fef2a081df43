//! **AMG** — parallel algebraic multigrid solver (MPI + OpenMP).
//!
//! AMG's *setup* phase builds the coarse-grid hierarchy; its communication
//! pattern depends on the matrix stencil and changes per level, which is
//! why the paper measures an unusually large grammar (150 rules over
//! 118 k events). The skeleton reproduces that irregularity with a
//! deterministic pseudo-random per-level neighbour pattern (counts
//! exchanged through `MPI_Alltoall`, so every send has a matching
//! receive), followed by a regular *solve* phase of V-cycles with
//! OpenMP-annotated smoothing (region begin/end events) and a convergence
//! `MPI_Allreduce` per cycle. Working sets mirror `-n 100/150/200`.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::work::{SplitMix64, WorkScale};
use crate::{MpiApp, WorkingSet};

/// AMG skeleton.
pub struct Amg;

const TAG_SETUP: i32 = 60;
const TAG_SOLVE: i32 = 61;

impl MpiApp for Amg {
    fn name(&self) -> &'static str {
        "AMG"
    }

    fn hybrid(&self) -> bool {
        true
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let levels: usize = ws.pick(5, 7, 9);
        let cycles: usize = ws.pick(6, 10, 15);
        let level_work: u64 = ws.pick(4000, 16_000, 40_000); // ~ (n/100)^3 scaled
        let n = comm.size();

        comm.bcast(&[levels as f64], 0);
        comm.barrier();

        // ---- Setup phase: irregular per-level neighbour discovery ----
        for level in 0..levels {
            // Data-dependent message counts, exchanged so that receives
            // can be posted exactly (this is how real AMG discovers its
            // pattern: a participation exchange precedes the data).
            let mut rng =
                SplitMix64::new(0xA316 ^ (comm.rank() as u64) << 8 ^ (level as u64) << 24);
            let counts: Vec<Vec<i64>> = (0..n)
                .map(|d| {
                    let c = if d == comm.rank() {
                        0
                    } else {
                        rng.below(3) as i64
                    };
                    vec![c]
                })
                .collect();
            let incoming = comm.alltoall(&counts);
            // Send the coarsening data.
            for (dest, c) in counts.iter().enumerate() {
                for _ in 0..c[0] {
                    comm.send(&[level as f64], dest, TAG_SETUP);
                }
            }
            // Receive what others decided to send us.
            for (src, c) in incoming.iter().enumerate() {
                for _ in 0..c[0] {
                    comm.recv::<f64>(Some(src), Some(TAG_SETUP));
                }
            }
            // Coarse-grid statistics.
            comm.allgather(&[level as i64]);
            work.compute(level_work >> level);
        }
        comm.allreduce(&[1.0f64], ReduceOp::Sum); // setup complexity

        // ---- Solve phase: regular V-cycles with OpenMP smoothing ----
        for _ in 0..cycles {
            for level in 0..levels {
                comm.custom_event("omp_region_begin", Some(level as i64));
                work.compute(level_work >> level);
                comm.custom_event("omp_region_end", Some(level as i64));
                // Halo with the ring neighbours at this level.
                let next = (comm.rank() + 1) % n;
                let prev = (comm.rank() + n - 1) % n;
                let r1 = comm.irecv::<f64>(Some(prev), Some(TAG_SOLVE));
                let s1 = comm.isend(&[0.0f64], next, TAG_SOLVE);
                comm.waitall(vec![r1, s1]);
            }
            comm.allreduce(&[1.0f64], ReduceOp::Sum); // residual
        }
        comm.barrier();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{check_app_structure, run_app};
    use pythia_runtime_mpi::MpiMode;

    #[test]
    fn structure_and_prediction() {
        // AMG's irregular setup lowers accuracy (paper Fig. 8 shows ~70%);
        // the regular solve phase still predicts.
        check_app_structure(&Amg, 4, 0.5);
    }

    #[test]
    fn irregular_setup_grows_grammar() {
        let amg = run_app(
            &Amg,
            4,
            WorkingSet::Medium,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        let ft = run_app(
            &crate::npb::ft::Ft,
            4,
            WorkingSet::Medium,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // The paper's AMG grammar (150 rules) dwarfs the regular kernels'.
        assert!(
            amg.mean_rules() > ft.mean_rules() * 2.0,
            "amg {} vs ft {}",
            amg.mean_rules(),
            ft.mean_rules()
        );
    }

    #[test]
    fn deterministic_event_counts() {
        let a = run_app(
            &Amg,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        let b = run_app(
            &Amg,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert_eq!(a.total_events(), b.total_events());
    }
}
