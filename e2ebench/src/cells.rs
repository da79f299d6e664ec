//! Seeded scenario cells, built the way `sweeps::sweep_*_battery` builds
//! its battery cells, so the generated cells are shaped like the paper's.

use dynring_analysis::sweeps::{
    adversary_suite, orientation_choices, round_budget, start_placements_with,
};
use dynring_analysis::{PlacementDensity, Scenario};
use dynring_core::Algorithm;
use dynring_engine::StopCondition;
use dynring_model::TerminationKind;

/// SplitMix64: a tiny deterministic generator (the same seed gives the same
/// cells on every host).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `len` (`len > 0`).
    pub fn below(&mut self, len: usize) -> usize {
        (self.next_u64() % len as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The FSYNC algorithms of Table 2 on a ring of `n` (`LandmarkNoChirality`
/// last: by far the costliest per cell).
pub fn table2_algorithms(n: usize) -> [Algorithm; 3] {
    [
        Algorithm::KnownBound { upper_bound: n },
        Algorithm::LandmarkChirality,
        Algorithm::LandmarkNoChirality,
    ]
}

/// The SSYNC algorithms of Table 4 on a ring of `n`.
pub fn table4_algorithms(n: usize) -> [Algorithm; 6] {
    [
        Algorithm::PtBoundChirality { upper_bound: n },
        Algorithm::PtLandmarkChirality,
        Algorithm::PtBoundNoChirality { upper_bound: n },
        Algorithm::PtLandmarkNoChirality,
        Algorithm::EtBoundNoChirality { ring_size: n },
        Algorithm::EtUnconscious,
    ]
}

/// One battery block: `len` cells of one algorithm on one ring, each with an
/// adversary, a dense start placement and an orientation drawn from `rng`.
/// The cells share their batch shape, as consecutive cells of a sweep do.
pub fn block(rng: &mut Rng, n: usize, algorithm: Algorithm, len: usize) -> Vec<Scenario> {
    let agents = algorithm.required_agents();
    let adversaries = adversary_suite(n, rng.next_u64() % 1_000_000);
    let placements = start_placements_with(n, agents, PlacementDensity::Dense);
    let orientations = orientation_choices(&algorithm, agents);
    let stop = match algorithm.termination_kind() {
        TerminationKind::Explicit => StopCondition::AllTerminated,
        TerminationKind::Partial => StopCondition::ExploredAndPartialTermination,
        TerminationKind::Unconscious => StopCondition::Explored,
    };
    let ssync = algorithm.synchrony() != dynring_model::SynchronyModel::Fsync;
    (0..len)
        .map(|_| {
            let base = if ssync {
                Scenario::ssync(n, algorithm, rng.next_u64() % 1_000_000)
            } else {
                Scenario::fsync(n, algorithm)
            };
            base.with_starts(rng.pick(&placements).clone())
                .with_orientations(rng.pick(&orientations).clone())
                .with_adversary(rng.pick(&adversaries).clone())
                .with_stop(stop)
                .with_max_rounds(round_budget(&algorithm, n))
        })
        .collect()
}
