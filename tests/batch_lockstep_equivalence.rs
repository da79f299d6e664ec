//! Grouped execution versus the sequential reference, byte for byte.
//!
//! A battery may be cut into consecutive groups (`group_ranges`) and each
//! group run on a recycled runner (`ScenarioBatchRunner`, one
//! `ScenarioRunner` carried from cell to cell and from group to group).
//! Every cell owns its RNG streams (scheduler, adversary), so the grouped
//! `RunReport`s — and traces, where recorded — must equal those of one fresh
//! simulation per cell **exactly**, for every catalogue algorithm, both
//! synchrony families, the full seeded-adversary suite and any group cap,
//! including ragged tails (suite length not divisible by the cap), repeated
//! cells and cells that terminate at once next to ones that run out their
//! budget.

mod common;

use common::{fnv, golden_scenarios};
use dynring_analysis::batch::{group_ranges, BatchRunner};
use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioBatchRunner, ScenarioRunner};
use dynring_analysis::sweeps::{adversary_suite, start_placements};
use dynring_core::{Algorithm, AlgorithmFamily};
use dynring_engine::sim::RunReport;
use proptest::prelude::*;

/// Group caps exercised everywhere: one cell per group, tiny, prime (ragged
/// tails for every suite length), and wider than any suite (one group
/// swallows everything).
const LANE_CAPS: [usize; 4] = [1, 2, 7, 64];

/// Every algorithm of the paper's catalogue, instantiated for ring size `n`.
fn catalogue(n: usize) -> Vec<Algorithm> {
    vec![
        Algorithm::KnownBound { upper_bound: n + 2 },
        Algorithm::Unconscious,
        Algorithm::LandmarkChirality,
        Algorithm::LandmarkNoChirality,
        Algorithm::StartFromLandmarkNoChirality,
        Algorithm::PtBoundChirality { upper_bound: n + 1 },
        Algorithm::PtLandmarkChirality,
        Algorithm::PtBoundNoChirality { upper_bound: n + 1 },
        Algorithm::PtLandmarkNoChirality,
        Algorithm::EtBoundNoChirality { ring_size: n },
        Algorithm::EtUnconscious,
        Algorithm::LoneWalker { patience: 3 },
    ]
}

/// A scenario in the algorithm's natural synchrony model (FSYNC base for the
/// FSYNC/single-agent families, the SSYNC construction otherwise).
fn natural_scenario(n: usize, algorithm: Algorithm, seed: u64) -> Scenario {
    match algorithm.family() {
        AlgorithmFamily::Fsync | AlgorithmFamily::SingleAgent => Scenario::fsync(n, algorithm),
        AlgorithmFamily::SsyncPt | AlgorithmFamily::SsyncEt => Scenario::ssync(n, algorithm, seed),
    }
}

/// Runs `scenarios` group by group in input order, with groups of at most
/// `cap` cells, on one recycled group runner.
fn batched_with_cap(scenarios: &[Scenario], cap: usize) -> Vec<RunReport> {
    let mut runner = ScenarioBatchRunner::new();
    let mut out = Vec::with_capacity(scenarios.len());
    for range in group_ranges(scenarios, |scenario| scenario, cap) {
        out.extend_from_slice(runner.run_group_reports(&scenarios[range]));
    }
    out
}

/// The sequential reference: one fresh solo simulation per scenario.
fn sequential(scenarios: &[Scenario]) -> Vec<RunReport> {
    scenarios.iter().map(Scenario::run).collect()
}

/// The full catalogue under the seeded-adversary suite: for every algorithm
/// and every group cap, the grouped reports equal the solo reports exactly.
/// The suite mixes fast-terminating cells (static dynamics) with
/// budget-exhausting ones (blocked edges) inside every group.
#[test]
fn catalogue_batched_equals_sequential_for_every_lane_cap() {
    let n = 7;
    for algorithm in catalogue(n) {
        let scenarios: Vec<Scenario> = adversary_suite(n, 11)
            .into_iter()
            .map(|adversary| natural_scenario(n, algorithm, 11).with_adversary(adversary))
            .collect();
        let reference = sequential(&scenarios);
        for cap in LANE_CAPS {
            assert_eq!(
                batched_with_cap(&scenarios, cap),
                reference,
                "{algorithm:?} diverged at group cap {cap}"
            );
        }
    }
}

/// Placement diversity inside one group: every cell may start its team
/// elsewhere (and flip orientations); the reports still match solo.
#[test]
fn placement_mixes_batch_identically() {
    let n = 9;
    let algorithm = Algorithm::LandmarkNoChirality;
    let mut scenarios = Vec::new();
    for placement in start_placements(n, 2) {
        for flipped in [false, true] {
            let mut scenario = Scenario::fsync(n, algorithm).with_starts(placement.clone());
            if flipped {
                let mut orientations = scenario.orientations.clone();
                orientations.reverse();
                scenario = scenario.with_orientations(orientations);
            }
            scenarios.push(scenario);
        }
    }
    let reference = sequential(&scenarios);
    for cap in LANE_CAPS {
        assert_eq!(batched_with_cap(&scenarios, cap), reference, "group cap {cap}");
    }
}

/// A shape-heterogeneous battery (different ring sizes, synchrony models and
/// a trace-recording cell) is cut into consecutive groups of at most `cap`
/// cells, whatever their shapes, and grouped execution is still
/// byte-identical: a shape change inside a group recycles the runner
/// without disturbing its neighbours.
#[test]
fn mixed_shape_battery_groups_and_matches() {
    let scenarios = vec![
        Scenario::fsync(6, Algorithm::KnownBound { upper_bound: 6 }),
        Scenario::fsync(6, Algorithm::Unconscious),
        Scenario::fsync(6, Algorithm::KnownBound { upper_bound: 6 }).with_trace(),
        Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 }),
        Scenario::ssync(6, Algorithm::PtBoundChirality { upper_bound: 6 }, 3),
        Scenario::ssync(6, Algorithm::PtLandmarkChirality, 4),
        Scenario::fsync(6, Algorithm::LandmarkChirality),
    ];
    assert_eq!(group_ranges(&scenarios, |scenario| scenario, 64), vec![0..7]);
    assert_eq!(group_ranges(&scenarios, |scenario| scenario, 2), vec![0..2, 2..4, 4..6, 6..7]);
    // A zero cap is clamped to one cell per group.
    assert_eq!(group_ranges(&scenarios, |scenario| scenario, 0).len(), scenarios.len());
    let reference = sequential(&scenarios);
    for cap in LANE_CAPS {
        assert_eq!(batched_with_cap(&scenarios, cap), reference, "group cap {cap}");
    }
    // The public parallel executor gives the same reports.
    assert_eq!(BatchRunner::sequential().run_reports(&scenarios), reference);
    assert_eq!(BatchRunner::new(2).run_reports(&scenarios), reference);
}

/// Digest of one cell's full `(RunReport, Trace)` execution record from a
/// fresh solo simulation — the same rendering `tests/determinism.rs` pins.
fn solo_trace_digest(scenario: &Scenario) -> u64 {
    let mut sim = scenario.build();
    let report = sim.run(scenario.max_rounds, scenario.stop);
    let trace = sim.trace().expect("trace-on cell records a trace");
    fnv(&format!("{report:?}|{trace:?}"))
}

/// Per-cell `(RunReport, Trace)` digests of grouped execution at group cap
/// `cap`, on one runner recycled across all groups. Each cell's trace is
/// read back before the runner moves on (recycling reuses the trace
/// buffers, so a trace only lives until the next run).
fn batched_trace_digests(scenarios: &[Scenario], cap: usize) -> Vec<u64> {
    let mut runner = ScenarioRunner::new();
    let mut out = Vec::with_capacity(scenarios.len());
    for range in group_ranges(scenarios, |scenario| scenario, cap) {
        for scenario in &scenarios[range] {
            let report = runner.run(scenario);
            let trace = runner.trace().expect("trace-on cell records on the recycled path");
            out.push(fnv(&format!("{report:?}|{trace:?}")));
        }
    }
    out
}

/// Trace-on cells across the full catalogue and adversary suite: at every
/// group cap the grouped traces digest identically to fresh solo runs.
#[test]
fn trace_on_cells_batch_byte_identically_at_every_lane_cap() {
    let n = 7;
    for algorithm in catalogue(n) {
        let scenarios: Vec<Scenario> = adversary_suite(n, 11)
            .into_iter()
            .map(|adversary| {
                natural_scenario(n, algorithm, 11).with_adversary(adversary).with_trace()
            })
            .collect();
        let reference: Vec<u64> = scenarios.iter().map(solo_trace_digest).collect();
        for cap in LANE_CAPS {
            assert_eq!(
                batched_trace_digests(&scenarios, cap),
                reference,
                "{algorithm:?} traces diverged at group cap {cap}"
            );
        }
    }
}

/// Trace-on and trace-off cells alternating inside one group: recording
/// stays strictly per cell (off-cells expose no trace, even right after a
/// traced one), the reports still match solo, and the traced cells digest
/// identically to their solo runs.
#[test]
fn mixed_trace_lanes_record_only_where_enabled() {
    let n = 8;
    let scenarios: Vec<Scenario> = adversary_suite(n, 5)
        .into_iter()
        .enumerate()
        .map(|(index, adversary)| {
            let scenario = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
                .with_adversary(adversary);
            if index % 2 == 0 {
                scenario.with_trace()
            } else {
                scenario
            }
        })
        .collect();
    let reference = sequential(&scenarios);
    assert_eq!(ScenarioBatchRunner::new().run_group_reports(&scenarios), reference.as_slice());
    let mut runner = ScenarioRunner::new();
    for (index, scenario) in scenarios.iter().enumerate() {
        let report = runner.run(scenario);
        assert_eq!(report, reference[index], "cell {index}");
        match runner.trace() {
            Some(trace) => {
                assert!(scenario.record_trace, "cell {index} recorded without asking");
                let digest = fnv(&format!("{report:?}|{trace:?}"));
                assert_eq!(digest, solo_trace_digest(scenario), "cell {index}");
            }
            None => assert!(!scenario.record_trace, "cell {index} lost its trace"),
        }
    }
}

/// The pinned pre-refactor golden digests, reproduced through grouped
/// execution: each golden scenario is doubled into a two-cell group, so the
/// second run takes the runner's identical-cell recycle path, and both runs
/// must digest to the pinned value.
#[test]
fn batched_trace_lanes_reproduce_the_pinned_golden_digests() {
    for (name, scenario, expected) in golden_scenarios() {
        let group = vec![scenario.clone(), scenario];
        let mut runner = ScenarioRunner::new();
        let mut reports = Vec::new();
        for (index, cell) in group.iter().enumerate() {
            let report = runner.run(cell);
            let trace = runner.trace().expect("golden scenarios record traces");
            let digest = fnv(&format!("{report:?}|{trace:?}"));
            assert_eq!(
                digest, expected,
                "{name} cell {index}: grouped execution drifted from the \
                 pre-refactor engine (got {digest:#018x}, pinned {expected:#018x})"
            );
            reports.push(report);
        }
        assert_eq!(ScenarioBatchRunner::new().run_group_reports(&group), reports.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seed/placement mixes: cells of one group differ in starts,
    /// adversary seed and presence probability, and grouped execution still
    /// equals solo execution at an arbitrary group cap.
    #[test]
    fn random_seed_and_placement_mixes_are_lane_cap_invariant(
        n in 5usize..10,
        first in 0usize..16,
        second in 0usize..16,
        seed in 0u64..64,
        cap in 1usize..9,
    ) {
        let algorithm = Algorithm::KnownBound { upper_bound: n };
        let mut scenarios = Vec::new();
        for lane in 0..6u64 {
            let starts = vec![(first + lane as usize) % n, second % n];
            let adversary = if lane % 2 == 0 {
                AdversaryKind::Random { p: 0.6, seed: seed.wrapping_add(lane) }
            } else {
                AdversaryKind::Sticky {
                    min_hold: 1,
                    max_hold: n as u64,
                    present: 0.4,
                    seed: seed.wrapping_mul(31).wrapping_add(lane),
                }
            };
            scenarios.push(
                Scenario::fsync(n, algorithm).with_starts(starts).with_adversary(adversary),
            );
        }
        prop_assert_eq!(batched_with_cap(&scenarios, cap), sequential(&scenarios));
    }

    /// Early termination inside a group: one cell meets immediately
    /// (co-located team, static ring), its neighbours fight blocking
    /// adversaries for orders of magnitude longer. The early cell must not
    /// shift any later cell's RNG streams or round counters.
    #[test]
    fn early_terminating_lanes_leave_survivors_untouched(
        n in 5usize..9,
        seed in 0u64..64,
        cap in 2usize..8,
    ) {
        let algorithm = Algorithm::KnownBound { upper_bound: n };
        let co_located = Scenario::fsync(n, algorithm).with_starts(vec![0, 0]);
        let blocked = Scenario::fsync(n, algorithm)
            .with_adversary(AdversaryKind::BlockForever { edge: n / 2 });
        let random = Scenario::fsync(n, algorithm)
            .with_adversary(AdversaryKind::Random { p: 0.8, seed });
        let scenarios =
            vec![blocked.clone(), co_located.clone(), random, co_located, blocked];
        prop_assert_eq!(batched_with_cap(&scenarios, cap), sequential(&scenarios));
    }
}
