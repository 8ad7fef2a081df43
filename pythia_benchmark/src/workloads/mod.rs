//! The eight workloads and the per-layer probes that ride with them.

pub mod analyze;
pub mod mpi_apps;
pub mod mpi_socket;
pub mod predict;
pub mod record;
pub mod serve;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expected;
    use crate::harness::{Ctx, Workload};
    use crate::inputs::{Inputs, Want};

    #[test]
    fn inputs_repeat_exactly_and_only_noise_and_traffic_follow_the_seed() {
        // Next to the test executable: inside the build directory.
        let exe = std::env::current_exe().expect("test executable path");
        let dir = exe
            .parent()
            .expect("executable has a directory")
            .join(format!("pythia_benchmark.test.{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");

        let generations: Vec<Inputs> = (0..5)
            .map(|_| Inputs::generate(&dir, Want::default()))
            .collect();
        for inputs in &generations {
            assert_eq!(inputs.digest, generations[0].digest);
            assert_eq!(expected::check_inputs(inputs), Ok(()));
        }

        let inputs = &generations[0];
        let ctx = |seed| Ctx {
            inputs,
            seed,
            dir: &dir,
        };
        // Clean replay: the same streams whatever the seed.
        let clean = |seed| predict::Predict::<false>::plan(&ctx(seed)).0;
        assert_eq!(clean(1), clean(2));
        let large: Vec<_> = inputs.apps.iter().map(|a| a.large.clone()).collect();
        assert_eq!(clean(1), large);
        // Noise: seeded, so repeatable, and different per seed.
        let noisy = |seed| predict::Predict::<true>::plan(&ctx(seed)).0;
        assert_eq!(noisy(1), noisy(1));
        assert_ne!(noisy(1), noisy(2));
        assert_ne!(noisy(1), large);
        // Traffic: the seed reorders requests and reassigns sessions, but
        // every tenant keeps its sessions and every session its requests.
        let (a, b) = (
            serve::Serve::<64>::plan(&ctx(1)),
            serve::Serve::<64>::plan(&ctx(2)),
        );
        assert_ne!(a.order, b.order);
        assert_ne!(a.tenant_of, b.tenant_of);
        fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
            v.sort_unstable();
            v
        }
        assert_eq!(sorted(a.order.clone()), sorted(b.order.clone()));
        assert_eq!(sorted(a.tenant_of.clone()), sorted(b.tenant_of.clone()));
        assert_eq!(sorted(a.start.clone()), sorted(b.start.clone()));

        std::fs::remove_dir_all(&dir).expect("remove scratch directory");
    }
}
