//! MPI+OpenMP bridge: one event stream per rank across both runtimes.
//!
//! The paper runs the hybrid applications (AMG, LULESH, Kripke, miniFE,
//! Quicksilver) with *both* runtime systems at once — the MPI interceptor
//! and the modified GNU OpenMP — and PYTHIA maintains **one grammar per
//! thread**, so a rank's grammar interleaves `MPI_*` events with
//! `omp_region_*` events (§III-B/§III-C1). This module provides that
//! wiring: [`crate::PythiaComm::omp_listener`] returns an
//! [`OmpListener`](pythia_minomp::OmpListener) that submits region
//! begin/end events into the rank's oracle and, in predict mode, turns the
//! predicted region duration into a team-size choice through a
//! caller-supplied decision function.

use std::sync::Arc;
use std::time::Duration;

use pythia_core::predict::ObserveOutcome;
use pythia_minomp::{OmpListener, RegionId, ThreadChoice};

use crate::events::SharedRegistry;
use crate::session::RankCell;

/// Decision function mapping a predicted region duration (`None` = oracle
/// uninformed) to a team size. `pythia_runtime_omp::ThresholdPolicy::choose`
/// fits directly: `Box::new(move |d| policy.choose(d))`.
pub type DurationPolicy = Box<dyn Fn(Option<Duration>) -> ThreadChoice + Send>;

pub(crate) struct OmpBridgeListener<C> {
    /// The rank's single-owner state cell: minomp invokes the listener
    /// on the caller (rank) thread, so entering the cell here honors the
    /// same ownership contract as the MPI façade — no lock per event.
    pub(crate) state: Arc<RankCell<C>>,
    pub(crate) registry: SharedRegistry,
    pub(crate) policy: Option<DurationPolicy>,
}

impl<C: Send> OmpListener for OmpBridgeListener<C> {
    fn region_begin(&mut self, region: RegionId) -> ThreadChoice {
        self.state.with(|st| {
            if st.oracle.is_off() {
                return ThreadChoice::Default;
            }
            let id =
                st.cache
                    .resolve_custom(&self.registry, "omp_region_begin", Some(region.0 as i64));
            let outcome = st.submit(id);
            match (&self.policy, outcome) {
                (Some(policy), Some(ObserveOutcome::Matched)) => {
                    // The next event in the reference stream is this region's
                    // end: its delay is the estimated region duration.
                    policy(st.oracle.predict_delay(1))
                }
                (Some(policy), _) => policy(None),
                (None, _) => ThreadChoice::Default,
            }
        })
    }

    fn region_end(&mut self, region: RegionId, _team: usize) {
        self.state.with(|st| {
            if !st.oracle.is_off() {
                let id = st.cache.resolve_custom(
                    &self.registry,
                    "omp_region_end",
                    Some(region.0 as i64),
                );
                st.submit(id);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use pythia_minimpi::{Communicator, ReduceOp, World};
    use pythia_minomp::{OmpRuntime, PoolMode, RegionId};

    use crate::session::{assemble_trace, MpiMode, PythiaComm};

    /// A miniFE-like true-hybrid rank: real OpenMP regions driven through
    /// `minomp`, MPI collectives between them, one oracle for both.
    fn hybrid_rank(pc: &PythiaComm, policy: bool) -> u64 {
        let listener = if policy {
            pc.omp_listener(Some(Box::new(|d| match d {
                Some(d) if d < std::time::Duration::from_micros(50) => {
                    pythia_minomp::ThreadChoice::Exactly(1)
                }
                _ => pythia_minomp::ThreadChoice::Default,
            })))
        } else {
            pc.omp_listener(None)
        };
        let rt = OmpRuntime::with_listener(2, PoolMode::Park, listener);
        let mut acc = 0u64;
        for _ in 0..10 {
            let sum = std::sync::atomic::AtomicU64::new(0);
            rt.parallel_for(RegionId(1), 64, |i| {
                sum.fetch_add(i as u64, std::sync::atomic::Ordering::Relaxed);
            });
            acc += sum.load(std::sync::atomic::Ordering::Relaxed);
            pc.allreduce(&[1.0f64], ReduceOp::Sum);
        }
        pc.barrier();
        acc
    }

    #[test]
    fn hybrid_rank_interleaves_omp_and_mpi_events() {
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let reports = World::run(2, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            let work = hybrid_rank(&pc, false);
            assert_eq!(work, 10 * (63 * 64 / 2));
            pc.finish().unwrap()
        });
        // 10 iterations × (begin + end + allreduce) + barrier.
        for r in &reports {
            assert_eq!(r.events, 10 * 3 + 1);
        }
        let trace = assemble_trace(reports, &registry).unwrap();
        assert!(trace
            .registry()
            .lookup("omp_region_begin", Some(1))
            .is_some());
        assert!(trace.registry().lookup("MPI_Allreduce", Some(0)).is_some());
    }

    #[test]
    fn hybrid_predict_adapts_regions_and_tracks_mpi() {
        let mode = MpiMode::record();
        let registry = PythiaComm::registry_for(&mode);
        let reports = World::run(2, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            hybrid_rank(&pc, false);
            pc.finish().unwrap()
        });
        let trace = Arc::new(assemble_trace(reports, &registry).unwrap());

        let mode = MpiMode::predict(Arc::clone(&trace));
        let registry = PythiaComm::registry_for(&mode);
        let reports = World::run(2, |comm| {
            let pc = PythiaComm::wrap(comm, &mode, Arc::clone(&registry));
            hybrid_rank(&pc, true);
            pc.finish().unwrap()
        });
        for r in &reports {
            let st = r.predict_stats.unwrap();
            // Both the OpenMP and the MPI events track the reference.
            assert!(st.matched > 20, "{st:?}");
            assert_eq!(st.unknown, 0, "{st:?}");
            // Predictions were scored at the MPI blocking calls.
            assert!(r.accuracy[0].1.total() > 0);
        }
    }
}
