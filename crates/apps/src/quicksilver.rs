//! **Quicksilver** — dynamic Monte-Carlo particle-transport proxy
//! (MPI + OpenMP).
//!
//! Particles leave a rank's spatial domain depending on their random
//! trajectories, so the number and destinations of the per-step messages
//! are *data-dependent* — the paper highlights this as the reason the
//! Quicksilver grammar explodes to 409 rules. The skeleton reproduces the
//! mechanism: every cycle runs the OpenMP tracking kernel, then draws a
//! pseudo-random per-destination particle-count vector (deterministic per
//! `(rank, step)`, as a fixed-seed Monte-Carlo run would be), announces it
//! with `MPI_Alltoall`, and sends/receives that many facilitation
//! messages, then tallies with reductions. Working sets mirror
//! `-n 10^7/10^7/2*10^8`.

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::work::{SplitMix64, WorkScale};
use crate::{MpiApp, WorkingSet};

/// Quicksilver skeleton.
pub struct Quicksilver;

const TAG_PARTICLES: i32 = 100;

impl MpiApp for Quicksilver {
    fn name(&self) -> &'static str {
        "Quicksilver"
    }

    fn hybrid(&self) -> bool {
        true
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let steps: usize = ws.pick(6, 10, 16);
        let track_work: u64 = ws.pick(10_000, 10_000, 100_000); // ~ particle count (-n)
        let n = comm.size();

        comm.bcast(&[steps as f64], 0);
        comm.barrier();

        for step in 0..steps {
            // OpenMP particle tracking (cycleTracking).
            comm.custom_event("omp_region_begin", Some(0));
            work.compute(track_work);
            comm.custom_event("omp_region_end", Some(0));

            // Data-dependent particle migration: how many leave toward
            // each neighbour this step (deterministic Monte-Carlo draw).
            let mut rng =
                SplitMix64::new(0x5117 ^ ((comm.rank() as u64) << 8) ^ ((step as u64) << 24));
            let counts: Vec<Vec<i64>> = (0..n)
                .map(|d| {
                    let c = if d == comm.rank() {
                        0
                    } else {
                        rng.below(4) as i64
                    };
                    vec![c]
                })
                .collect();
            let incoming = comm.alltoall(&counts);
            for (dest, c) in counts.iter().enumerate() {
                for _ in 0..c[0] {
                    comm.send(&[1.0f64; 4], dest, TAG_PARTICLES);
                }
            }
            for (src, c) in incoming.iter().enumerate() {
                for _ in 0..c[0] {
                    comm.recv::<f64>(Some(src), Some(TAG_PARTICLES));
                }
            }

            // Tallies: absorbed/escaped/census balance.
            comm.allreduce(&[1.0f64; 3], ReduceOp::Sum);
        }
        comm.reduce(&[1.0f64], ReduceOp::Sum, 0);
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
        // The paper's Fig. 8 shows ~70% short-distance accuracy for
        // Quicksilver; its irregular sends cap what the oracle can do.
        check_app_structure(&Quicksilver, 4, 0.4);
    }

    #[test]
    fn irregular_pattern_has_biggest_grammar() {
        let qs = run_app(
            &Quicksilver,
            4,
            WorkingSet::Medium,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        let lu = run_app(
            &crate::npb::lu::Lu,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        // Quicksilver's grammar dwarfs a regular kernel's even with far
        // fewer events (paper: 409 rules vs LU's 11).
        assert!(
            qs.mean_rules() > lu.mean_rules(),
            "qs {} vs lu {}",
            qs.mean_rules(),
            lu.mean_rules()
        );
    }

    #[test]
    fn deterministic_monte_carlo_draws() {
        let a = run_app(
            &Quicksilver,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        let b = run_app(
            &Quicksilver,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert_eq!(a.total_events(), b.total_events());
    }
}
