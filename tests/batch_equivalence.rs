//! Property-based equivalence of the parallel sweep executor and the
//! sequential reference path.
//!
//! The `BatchRunner` fans independent scenario runs across threads and merges
//! the results in input order, so a sweep (and everything built on sweeps:
//! the tables, the feasibility map) must be **bit-identical** to the
//! sequential execution for every ring size, seed count and thread count.

use dynring_analysis::batch::BatchRunner;
use dynring_analysis::report::SweepPoint;
use dynring_analysis::scenario::Scenario;
use dynring_analysis::sweeps::{
    self, adversary_suite, orientation_choices, round_budget, start_placements_with,
    PlacementDensity, SweepOutcome,
};
use dynring_analysis::{figures, lower_bounds, markdown_table, tables};
use dynring_core::Algorithm;
use dynring_engine::sim::{RunReport, StopCondition};
use dynring_model::TerminationKind;
use proptest::prelude::*;

/// Every cell of a battery, enumerated from the sweep's public building
/// blocks in the documented order (sizes → seeds → adversaries → placements
/// → orientations). An SSYNC cell starts from `Scenario::ssync` with the
/// sweep's per-seed seed, whose sticky adversary the battery then replaces.
/// With two or more seeds the seed-independent adversaries repeat, one suite
/// apart.
fn battery_cells(
    algorithm: Algorithm,
    n: usize,
    seeds: u64,
    ssync: bool,
    density: PlacementDensity,
) -> Vec<Scenario> {
    let agents = algorithm.required_agents();
    let stop = match algorithm.termination_kind() {
        TerminationKind::Explicit => StopCondition::AllTerminated,
        TerminationKind::Partial => StopCondition::ExploredAndPartialTermination,
        TerminationKind::Unconscious => StopCondition::Explored,
    };
    let mut cells = Vec::new();
    for seed in 0..seeds {
        for adversary in adversary_suite(n, seed * 97 + 13) {
            for starts in start_placements_with(n, agents, density) {
                for orientations in orientation_choices(&algorithm, agents) {
                    let base = if ssync {
                        Scenario::ssync(n, algorithm, seed * 31 + 7)
                    } else {
                        Scenario::fsync(n, algorithm)
                    };
                    cells.push(
                        base.with_starts(starts.clone())
                            .with_orientations(orientations)
                            .with_adversary(adversary.clone())
                            .with_stop(stop)
                            .with_max_rounds(round_budget(&algorithm, n)),
                    );
                }
            }
        }
    }
    cells
}

/// The sweep fold over plain per-cell reports: no runner, no lane groups,
/// no interning.
fn reference_sweep(algorithm: Algorithm, n: usize, reports: &[RunReport]) -> SweepOutcome {
    let kind = algorithm.termination_kind();
    let mut point =
        SweepPoint { ring_size: n, worst_rounds: 0, worst_termination: 0, worst_moves: 0, runs: 0 };
    let (mut all_explored, mut all_terminated) = (true, true);
    for report in reports {
        point.runs += 1;
        all_explored &= report.explored();
        let (done, terminated_at) = match kind {
            TerminationKind::Explicit => (report.all_terminated, report.last_termination()),
            TerminationKind::Partial => {
                (report.partially_terminated(), report.first_termination())
            }
            TerminationKind::Unconscious => (report.explored(), report.explored_at),
        };
        all_terminated &= done;
        point.worst_rounds = point.worst_rounds.max(report.explored_at.unwrap_or(u64::MAX));
        point.worst_termination = point.worst_termination.max(terminated_at.unwrap_or(u64::MAX));
        point.worst_moves = point.worst_moves.max(report.total_moves);
    }
    SweepOutcome { points: vec![point], all_explored, all_terminated_as_promised: all_terminated }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An FSYNC sweep folded from parallel reports equals the sequential one,
    /// point by point, for arbitrary small ring sizes and seed counts.
    #[test]
    fn fsync_sweep_is_thread_count_invariant(
        n in 5usize..10,
        extra in 0usize..3,
        seeds in 1u64..3,
        threads in 2usize..6,
    ) {
        let sizes = [n, n + extra + 1];
        let make = |n: usize| Algorithm::KnownBound { upper_bound: n };
        let sequential =
            sweeps::sweep_fsync_with(&BatchRunner::sequential(), make, &sizes, seeds);
        let parallel =
            sweeps::sweep_fsync_with(&BatchRunner::new(threads), make, &sizes, seeds);
        prop_assert_eq!(&sequential.points, &parallel.points);
        prop_assert_eq!(sequential.all_explored, parallel.all_explored);
        prop_assert_eq!(
            sequential.all_terminated_as_promised,
            parallel.all_terminated_as_promised
        );
    }

    /// Raw report batches come back in input order whatever the thread count.
    #[test]
    fn report_batches_are_input_ordered(
        n in 5usize..9,
        seed in 0u64..16,
        threads in 2usize..8,
    ) {
        let scenarios: Vec<Scenario> = adversary_suite(n, seed)
            .into_iter()
            .map(|adversary| {
                Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
                    .with_adversary(adversary)
            })
            .collect();
        let sequential = BatchRunner::sequential().run_reports(&scenarios);
        let parallel = BatchRunner::new(threads).run_reports(&scenarios);
        prop_assert_eq!(sequential, parallel);
    }

    /// Batteries with repeated cells (two or more seeds repeat every
    /// seed-independent adversary, never adjacently) run each distinct cell
    /// once; the sweep outcome must still equal the fold over a plain
    /// `Scenario::run()` of every cell, FSYNC and SSYNC alike, and
    /// `run_reports` must equal those plain runs slot by slot.
    #[test]
    fn interned_batteries_match_plain_runs_of_every_cell(
        n in 5usize..9,
        seeds in 2u64..5,
        ssync in any::<bool>(),
        algorithm_index in 0usize..3,
        dense in any::<bool>(),
        thread_exponent in 0usize..3,
    ) {
        let algorithm = if ssync {
            [
                Algorithm::PtBoundChirality { upper_bound: n },
                Algorithm::PtLandmarkNoChirality,
                Algorithm::EtUnconscious,
            ][algorithm_index]
        } else {
            [
                Algorithm::KnownBound { upper_bound: n },
                Algorithm::LandmarkChirality,
                Algorithm::Unconscious,
            ][algorithm_index]
        };
        let density = if dense { PlacementDensity::Dense } else { PlacementDensity::Standard };
        let runner = BatchRunner::new(1 << thread_exponent);
        let cells = battery_cells(algorithm, n, seeds, ssync, density);
        let plain: Vec<RunReport> = cells.iter().map(Scenario::run).collect();

        let swept = if ssync {
            sweeps::sweep_ssync_battery(&runner, |_| algorithm, &[n], seeds, density)
        } else {
            sweeps::sweep_fsync_battery(&runner, |_| algorithm, &[n], seeds, density)
        };
        let reference = reference_sweep(algorithm, n, &plain);
        prop_assert_eq!(&swept.points, &reference.points);
        prop_assert_eq!(swept.all_explored, reference.all_explored);
        prop_assert_eq!(
            swept.all_terminated_as_promised,
            reference.all_terminated_as_promised
        );

        let reports = runner.run_reports(&cells);
        prop_assert_eq!(reports.len(), cells.len());
        for (slot, (report, expected)) in reports.iter().zip(&plain).enumerate() {
            prop_assert_eq!(report, expected, "slot {}", slot);
        }
    }
}

/// An SSYNC sweep (stateful schedulers, sticky random adversaries) is also
/// invariant — every scenario owns its policies, so no state leaks between
/// parallel runs.
#[test]
fn ssync_sweep_is_thread_count_invariant() {
    let make = |n: usize| Algorithm::PtBoundChirality { upper_bound: n };
    let sequential = sweeps::sweep_ssync_with(&BatchRunner::sequential(), make, &[6], 1);
    let parallel = sweeps::sweep_ssync_with(&BatchRunner::new(4), make, &[6], 1);
    assert_eq!(sequential.points, parallel.points);
    assert_eq!(sequential.all_explored, parallel.all_explored);
    assert_eq!(
        sequential.all_terminated_as_promised,
        parallel.all_terminated_as_promised
    );
}

/// The rendered impossibility tables — the feasibility map's markdown output —
/// are byte-identical between the sequential and parallel paths.
#[test]
fn rendered_tables_are_byte_identical_across_runners() {
    let sequential_runner = BatchRunner::sequential();
    let parallel_runner = BatchRunner::new(4);
    let render = |runner: &BatchRunner| {
        let mut out = String::new();
        out.push_str(&markdown_table("Table 1", &tables::table1_with(runner, 12)));
        out.push_str(&markdown_table("Table 3", &tables::table3_with(runner, 8)));
        out
    };
    assert_eq!(render(&sequential_runner), render(&parallel_runner));
}

/// The figure battery fans seven independent experiments across threads;
/// merging in input order must make the rows byte-identical to the
/// sequential reference whatever the thread count (ROADMAP "Scale — batch
/// the figure/lower-bound experiments").
#[test]
fn figures_are_thread_count_invariant() {
    let sequential = figures::all_figures_with(&BatchRunner::sequential(), 8);
    for threads in [2, 4, 7] {
        let parallel = figures::all_figures_with(&BatchRunner::new(threads), 8);
        assert_eq!(sequential, parallel, "{threads} threads");
    }
}

/// The lower-bound sweeps route their batteries through the runner like the
/// tables; the folded rows must match the sequential reference.
#[test]
fn lower_bounds_are_thread_count_invariant() {
    let sequential = lower_bounds::theorem13_15_with(&BatchRunner::sequential(), &[6], 1);
    let parallel = lower_bounds::theorem13_15_with(&BatchRunner::new(4), &[6], 1);
    assert_eq!(sequential, parallel);
}
