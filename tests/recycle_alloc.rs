//! Zero-allocation contract of the recycled steady state.
//!
//! Once a `ScenarioRunner` has run a cell, re-running the identical cell
//! must recycle its simulation in place: `Simulation::recycle` plus
//! `run_into` may not touch the global allocator at all. The byte-identity
//! half of the recycle contract lives in `recycle_equivalence.rs`.
//!
//! Trace-recording cells and cruising cells (the Theorem 8 termination wait
//! played in cruise windows, lean rounds and quiet jumps alike) are held to
//! the same contract.
//!
//! This file deliberately holds a **single** test: the counting global
//! allocator is process-wide, so any concurrently running test would bleed
//! its allocations into the measured window. One test per binary keeps the
//! reading deterministic (the `sweep_throughput` bench asserts the same
//! contract from its single-threaded `main`).

use dynring_analysis::scenario::{AdversaryKind, Scenario, ScenarioRunner};
use dynring_analysis::sweeps::round_budget;
use dynring_core::Algorithm;
use dynring_engine::sim::RunReport;
use dynring_graph::Handedness;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator, counting every acquisition (alloc, realloc,
/// alloc_zeroed). Frees are not counted: releasing memory is fine, acquiring
/// new memory is what the steady-state contract forbids.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// increment with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// One recycled runner per cell, each warmed up twice (the first run builds
/// the simulation and sizes every buffer, the second proves the recycle
/// path reuses them). Returns the runners and the allocations of
/// `generations` further reruns of every cell.
fn steady_state(cells: &[Scenario], generations: u64) -> (Vec<ScenarioRunner>, u64) {
    let mut runners: Vec<ScenarioRunner> = cells.iter().map(|_| ScenarioRunner::new()).collect();
    let mut report = RunReport::default();
    for _ in 0..2 {
        for (runner, cell) in runners.iter_mut().zip(cells) {
            runner.run_into(cell, &mut report);
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..generations {
        for (runner, cell) in runners.iter_mut().zip(cells) {
            runner.run_into(cell, &mut report);
        }
    }
    (runners, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn recycled_steady_state_allocates_nothing() {
    const GENERATIONS: u64 = 32;
    let n = 16;
    // Cells differ in adversary and placement and terminate at different
    // rounds. Every third cell records a trace: the columnar trace clears
    // capacity-intact on recycle, so trace-on runs are held to the same
    // zero-allocation steady state as trace-off ones.
    let mixed: Vec<Scenario> = (0..8u64)
        .map(|index| {
            let scenario = Scenario::fsync(n, Algorithm::KnownBound { upper_bound: n })
                .with_starts(vec![index as usize % n, (3 * index as usize + 1) % n])
                .with_adversary(if index % 2 == 0 {
                    AdversaryKind::Static
                } else {
                    AdversaryKind::Random { p: 0.7, seed: index }
                });
            if index % 3 == 0 {
                scenario.with_trace()
            } else {
                scenario
            }
        })
        .collect();
    let (runners, delta) = steady_state(&mixed, GENERATIONS);
    assert_eq!(
        delta, 0,
        "recycled steady state allocated {delta} times over {GENERATIONS} generations"
    );
    // Sanity: the zero-allocation window really recorded traces where asked.
    assert!(runners[0].trace().is_some_and(|trace| !trace.is_empty()), "cell 0 lost its trace");
    assert!(runners[1].trace().is_none(), "cell 1 recorded without asking");

    // Cruise windows (lean rounds and quiet jumps) are held to the same
    // contract. Theorem 8 agents on a static ring go straight to `Happy`;
    // facing agents meet every lap, so their windows also play lean rounds
    // around each meeting.
    let algorithm = Algorithm::LandmarkNoChirality;
    let cruising: Vec<Scenario> = [(0, 4, false), (0, 4, true), (1, 6, true), (2, 3, false)]
        .into_iter()
        .map(|(a, b, facing)| {
            let orientations = if facing {
                vec![Handedness::LeftIsCw, Handedness::LeftIsCcw]
            } else {
                vec![Handedness::LeftIsCcw; 2]
            };
            Scenario::fsync(8, algorithm)
                .with_starts(vec![a, b])
                .with_orientations(orientations)
                .with_max_rounds(round_budget(&algorithm, 8))
        })
        .collect();
    let (runners, delta) = steady_state(&cruising, 4);
    assert_eq!(delta, 0, "cruising steady state allocated {delta} times over 4 generations");
    for (index, runner) in runners.iter().enumerate() {
        assert!(runner.cruise_stats().windows > 0, "cell {index} never cruised");
    }
    assert!(runners[0].cruise_stats().jumped > 0, "the same-way cell never jumped");
    let facing = runners[1].cruise_stats();
    assert!(facing.rounds > facing.jumped, "facing agents play lean rounds: {facing:?}");
}
