//! NPB **IS** — parallel integer bucket sort.
//!
//! Each of the 10 ranking iterations reduces the per-bucket key counts
//! (`MPI_Allreduce`) and redistributes keys (`MPI_Alltoall(v)`); a final
//! verification reduces the global rank sum. The paper records 2493 events
//! over 64 ranks (~39 per rank).

use pythia_minimpi::{Communicator, ReduceOp};
use pythia_runtime_mpi::PythiaComm;

use crate::work::WorkScale;
use crate::{MpiApp, WorkingSet};

/// IS skeleton.
pub struct Is;

impl MpiApp for Is {
    fn name(&self) -> &'static str {
        "IS"
    }

    fn preferred_ranks(&self) -> usize {
        16
    }

    fn run(&self, comm: &PythiaComm, ws: WorkingSet, work: &WorkScale) {
        let iters = 10; // all NPB classes rank 10 times
        let keys_per_rank: u64 = ws.pick(1 << 13, 1 << 15, 1 << 18); // A/B/C: 2^23/25/27 total
        let counts = vec![0i64; 16];

        comm.barrier();
        for _ in 0..iters {
            work.compute(keys_per_rank / 8); // local bucket counting
            comm.allreduce(&counts, ReduceOp::Sum);
            let sends: Vec<Vec<i64>> = (0..comm.size()).map(|_| vec![0i64; 4]).collect();
            comm.alltoall(&sends);
            work.compute(keys_per_rank / 16); // local ranking
        }
        // Full sort + verification.
        work.compute(keys_per_rank);
        comm.allreduce(&[keys_per_rank as i64], ReduceOp::Sum);
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
        check_app_structure(&Is, 4, 0.85);
    }

    #[test]
    fn event_count_independent_of_class() {
        // IS's communication structure does not change with the key count.
        let a = run_app(
            &Is,
            4,
            WorkingSet::Small,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        let c = run_app(
            &Is,
            4,
            WorkingSet::Large,
            MpiMode::record(),
            WorkScale::ZERO,
        );
        assert_eq!(a.total_events(), c.total_events());
        assert_eq!(a.total_events(), 4 * (1 + 2 * 10 + 2));
        assert!(a.mean_rules() <= 4.0);
    }
}
