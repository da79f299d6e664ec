//! Cruise windows change how rounds are played, never what they produce.
//!
//! `Simulation::run` plays the Theorem 8 termination wait in cruise windows (see `docs/ARCHITECTURE.md`, "Cruise
//! windows"); `Simulation::step` and trace-recording runs never enter one.
//! This suite runs the Theorem 8 battery both ways and pins the window
//! counters, so a window that drifts from the generic round fails a report
//! comparison and a window that silently stops opening fails a counter pin.

use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioRunner};
use dynring_analysis::sweeps::{
    adversary_suite, orientation_choices, round_budget, start_placements_with, PlacementDensity,
};
use dynring_core::Algorithm;
use dynring_engine::sim::{CruiseStats, RunReport, Simulation, StopCondition, StopReason};
use dynring_graph::Handedness;

/// The distinct cells of the Theorem 8 battery for one algorithm and ring
/// size: two seeds, dense placements, the six adversaries and every
/// orientation choice.
fn battery(algorithm: Algorithm, n: usize) -> Vec<Scenario> {
    let agents = algorithm.required_agents();
    let mut cells = Vec::new();
    for seed in 0..2 {
        for adversary in adversary_suite(n, seed * 97 + 13) {
            for starts in start_placements_with(n, agents, PlacementDensity::Dense) {
                for orientations in orientation_choices(&algorithm, agents) {
                    let cell = Scenario::fsync(n, algorithm)
                        .with_starts(starts.clone())
                        .with_orientations(orientations)
                        .with_adversary(adversary.clone())
                        .with_stop(StopCondition::AllTerminated)
                        .with_max_rounds(round_budget(&algorithm, n));
                    if !cells.contains(&cell) {
                        cells.push(cell);
                    }
                }
            }
        }
    }
    cells
}

/// The full final state of a run — positions, visit maps and every
/// program's packed state (counters included) — as its canonical key.
fn final_state(cell: &Scenario, sim: &Simulation) -> Vec<u8> {
    let mut key = Vec::new();
    sim.checkpoint().canonical_key(&cell.ring(), &mut key);
    key
}

/// The oracle: `Simulation::run`'s loop written over `step()`, which always
/// plays one generic round. Returns the report and the final state.
fn step_loop(cell: &Scenario) -> (RunReport, Vec<u8>) {
    let mut sim = cell.build();
    let met = |sim: &Simulation| match cell.stop {
        StopCondition::Explored => sim.explored(),
        StopCondition::ExploredAndPartialTermination => {
            sim.explored() && sim.alive_count() < sim.agent_count()
        }
        StopCondition::AllTerminated => sim.alive_count() == 0,
        StopCondition::RoundBudget => false,
    };
    let mut reason = StopReason::BudgetExhausted;
    for _ in 0..cell.max_rounds {
        if met(&sim) {
            reason = StopReason::ConditionMet;
            break;
        }
        if !sim.step() {
            reason = StopReason::Deadlocked;
            break;
        }
    }
    if reason == StopReason::BudgetExhausted && met(&sim) {
        reason = StopReason::ConditionMet;
    }
    assert_eq!(sim.cruise_stats(), CruiseStats::default(), "step() never cruises");
    (sim.report(reason), final_state(cell, &sim))
}

fn add(total: &mut CruiseStats, stats: CruiseStats) {
    total.windows += stats.windows;
    total.rounds += stats.rounds;
    total.jumped += stats.jumped;
}

/// Runs the battery of `algorithm` at size `n` every way and returns the
/// summed window counters of the recycled solo runs.
fn check_battery(algorithm: Algorithm, n: usize) -> CruiseStats {
    let cells = battery(algorithm, n);
    let (oracle, states): (Vec<RunReport>, Vec<Vec<u8>>) = cells.iter().map(step_loop).unzip();

    let mut total = CruiseStats::default();
    let mut runner = ScenarioRunner::new();
    for (index, (cell, expected)) in cells.iter().zip(&oracle).enumerate() {
        // The fresh windowed run must also leave every program in the
        // oracle's state: counters the reports never show (offsets, steps,
        // `Btime`) are where a wrong closed form would hide.
        let mut sim = cell.build();
        assert_eq!(&sim.run(cell.max_rounds, cell.stop), expected, "fresh, cell {index}");
        assert_eq!(final_state(cell, &sim), states[index], "fresh final state, cell {index}");
        let traced = cell.clone().with_trace();
        let mut sim = traced.build();
        assert_eq!(&sim.run(traced.max_rounds, traced.stop), expected, "trace-on, cell {index}");
        assert_eq!(sim.cruise_stats(), CruiseStats::default(), "trace-on runs never cruise");
        assert_eq!(&runner.run(cell), expected, "recycled, cell {index}: {}", cell.label());
        add(&mut total, runner.cruise_stats());
    }
    total
}

#[test]
fn theorem8_battery_n8_matches_the_step_oracle() {
    let mut total = check_battery(Algorithm::LandmarkNoChirality, 8);
    add(&mut total, check_battery(Algorithm::StartFromLandmarkNoChirality, 8));
    assert_eq!(total, CruiseStats { windows: 122_989, rounds: 2_207_490, jumped: 1_107_278 });
}

#[test]
fn theorem8_battery_n16_matches_the_step_oracle() {
    let mut total = check_battery(Algorithm::LandmarkNoChirality, 16);
    add(&mut total, check_battery(Algorithm::StartFromLandmarkNoChirality, 16));
    assert_eq!(total, CruiseStats { windows: 138_624, rounds: 5_209_274, jumped: 2_867_520 });
}

#[test]
fn theorem8_battery_n32_matches_the_step_oracle() {
    let mut total = check_battery(Algorithm::LandmarkNoChirality, 32);
    add(&mut total, check_battery(Algorithm::StartFromLandmarkNoChirality, 32));
    assert_eq!(total, CruiseStats { windows: 236_232, rounds: 13_311_811, jumped: 6_763_030 });
}

/// Exact window counters of golden `n = 128` cells, read from the recycled
/// runner. When both agents end up walking the
/// same way, the whole wait is one quiet jump, under the meeting preventer
/// too. When they walk towards each other on the static ring, every jump
/// stops one round short of their meeting, that round is played per round
/// and a generic round separates them before the next window.
#[test]
fn golden_cells_pin_their_window_counters() {
    let n = 128;
    let algorithm = Algorithm::LandmarkNoChirality;
    let base = Scenario::fsync(n, algorithm)
        .with_starts(vec![0, 64])
        .with_stop(StopCondition::AllTerminated)
        .with_max_rounds(round_budget(&algorithm, n));
    let facing = vec![Handedness::LeftIsCw, Handedness::LeftIsCcw];
    let cells = [
        (base.clone(), CruiseStats { windows: 1, rounds: 491_297, jumped: 491_297 }),
        (
            base.clone().with_orientations(facing),
            CruiseStats { windows: 7_678, rounds: 483_651, jumped: 475_974 },
        ),
        (
            base.with_adversary(AdversaryKind::PreventMeeting),
            CruiseStats { windows: 1, rounds: 491_297, jumped: 491_297 },
        ),
    ];
    let mut runner = ScenarioRunner::new();
    for (cell, expected) in &cells {
        let report = runner.run(cell);
        assert!(report.all_terminated, "{}", cell.label());
        assert_eq!(runner.cruise_stats(), *expected, "solo: {}", cell.label());
    }
}
