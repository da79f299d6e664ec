//! Run-lifecycle throughput: **runs per second** in the short-run regime
//! (n = 64, round budget 4n), measured as fresh-build vs recycled pairs.
//!
//! Where `engine_throughput` measures the round loop, this target measures
//! everything *around* it — `Scenario::run()`'s per-cell construction of the
//! ring, agent SoA, scratch, probe pool and boxed policies versus the
//! recycled lifecycle (`ScenarioRunner` + `Simulation::recycle`), which
//! re-initialises one simulation in place. It also **counts heap
//! allocations** through a wrapping global allocator and fails loudly if the
//! recycled steady state allocates at all, so the zero-allocation claim is
//! machine-checked on every run, including the CI smoke.
//!
//! Results are appended to `BENCH_engine.json` (schema v3, `sweep_cases`
//! section); the `cases` and `model_check_cases` sections owned by
//! `engine_throughput` and `model_check_throughput` are preserved verbatim.
//!
//! ```bash
//! cargo bench --bench sweep_throughput            # full measurement
//! DYNRING_BENCH_FAST=1 cargo bench --bench sweep_throughput   # CI smoke
//! ```

use dynring_bench::throughput::{
    extract_section, fast_mode, filter_cases, hard_gate, measure_runs, measurement_budget,
    out_path, parse_baseline, recycle_comparisons, regressions, sweep_case_scenario, sweep_cases,
    sweep_json_line, sweep_rates, Lifecycle, SweepSample,
};
use dynring_analysis::scenario::ScenarioRunner;
use dynring_engine::sim::RunReport;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps the system allocator, counting every allocation (including
/// reallocations) so the recycled steady state can be asserted
/// allocation-free. Deallocations are not counted: freeing is fine, new
/// acquisition is what the recycle contract forbids.
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

/// Counts the heap allocations per run in the steady state (after two
/// warm-up iterations that size every buffer) for each recycled case of the
/// grid. Returns `(case id, allocations per run)` pairs.
fn steady_state_allocations() -> Vec<(String, u64)> {
    const RUNS: u64 = 64;
    sweep_cases()
        .iter()
        .filter(|case| case.lifecycle == Lifecycle::Recycled)
        .map(|case| {
            let scenario = sweep_case_scenario(case);
            let mut runner = ScenarioRunner::new();
            let mut report = RunReport::default();
            runner.run_into(&scenario, &mut report);
            runner.run_into(&scenario, &mut report);
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            for _ in 0..RUNS {
                runner.run_into(&scenario, &mut report);
            }
            (case.id.clone(), (ALLOCATIONS.load(Ordering::Relaxed) - before) / RUNS)
        })
        .collect()
}

fn main() {
    let fast = fast_mode();
    let budget = measurement_budget(fast);

    println!(
        "sweep throughput ({} mode, {}ms window per case)\n",
        if fast { "smoke" } else { "full" },
        budget.as_millis(),
    );
    println!("{:<52} {:>10} {:>14}", "case", "runs", "runs/sec");

    let mut samples: Vec<SweepSample> = Vec::new();
    for case in filter_cases(sweep_cases(), |case| case.id.as_str()) {
        let sample = measure_runs(&case, budget);
        println!("{:<52} {:>10} {:>14.0}", sample.case.id, sample.runs, sample.runs_per_sec);
        samples.push(sample);
    }

    let comparisons = recycle_comparisons(&samples);
    if !comparisons.is_empty() {
        println!();
        for line in &comparisons {
            println!("{line}");
        }
    }

    // Machine-checked zero-allocation contract: a recycled run of a
    // shape-stable scenario must not touch the allocator at all.
    println!();
    let mut dirty = false;
    for (id, allocations_per_run) in steady_state_allocations() {
        println!("ALLOC {id}: {allocations_per_run} allocations/run (steady state)");
        dirty |= allocations_per_run != 0;
    }
    assert!(
        !dirty,
        "recycled steady state allocated: the run-recycling contract is broken"
    );

    let path = out_path();
    // Refresh the runs/sec section; preserve the rounds/sec and states/sec
    // sections owned by `engine_throughput` and `model_check_throughput`
    // verbatim, and diff against the previous baseline.
    let previous_document = std::fs::read_to_string(&path).unwrap_or_default();
    let previous = parse_baseline(&previous_document).unwrap_or_else(|err| {
        eprintln!("bench gate: {} is corrupt: {err}", path.display());
        std::process::exit(1)
    });
    let case_lines = extract_section(&previous_document, "cases");
    let mc_lines = extract_section(&previous_document, "model_check_cases");
    let sweep_lines: Vec<String> = samples.iter().map(sweep_json_line).collect();
    dynring_bench::throughput::write_document(&path, &case_lines, &sweep_lines, &mc_lines)
        .expect("write BENCH_engine.json");
    println!("\nbaseline written to {}", path.display());

    if previous.is_empty() {
        println!("no previous baseline to diff against");
    } else {
        let drops = regressions(&sweep_rates(&samples), &previous, 0.10, "runs/sec");
        if drops.is_empty() {
            println!("no regressions >= 10% against the previous baseline");
        } else {
            for line in &drops {
                println!("{line}");
            }
            if hard_gate() {
                eprintln!(
                    "bench gate (hard by default; DYNRING_BENCH_GATE=soft to opt out): failing on {} regression(s) >= 10%",
                    drops.len()
                );
                std::process::exit(1);
            }
        }
    }
}
