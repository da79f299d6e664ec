//! Layer probes of the traced run: they drive one layer's public calls on a
//! fixed input and time them per call. Their inputs do not depend on the
//! workload, so every traced run reports them.

use crate::cells::{self, Rng};
use crate::exhaustive::WIDEST;
use crate::trace::median;
use crate::{Metrics, Tally};
use dynring_analysis::batch::{group_ranges, DEFAULT_BATCH_LANES};
use dynring_analysis::model_check;
use dynring_analysis::{Scenario, ScenarioBatchRunner, ScenarioRunner};
use dynring_engine::{KeyScratch, RunReport, SimCheckpoint};
use dynring_graph::EdgeId;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each probe pass; the probes report medians.
const REPS: usize = 3;

/// Ring sizes of the engine battery (from the `--huge` Table 2 and Table 4
/// sizes).
const FSYNC_SIZES: [usize; 2] = [16, 32];
const SSYNC_SIZES: [usize; 4] = [6, 9, 12, 16];
/// Blocks and cells per block of the engine battery.
const FSYNC_BLOCKS: usize = 12;
const SSYNC_BLOCKS: usize = 12;
const BLOCK_LEN: usize = 16;

/// States of the widest model-check cell driven through the checkpoint calls.
const CHECKPOINT_STATES: usize = 20_000;

fn median_of_passes(mut pass: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| pass()).collect();
    median(&samples)
}

/// `engine.*`: nanoseconds per round of the solo engine on a seeded battery
/// shaped like Tables 2 (FSYNC) and 4 (SSYNC), and the batched lockstep path
/// against the solo one on the FSYNC part.
pub fn engine(seed: u64, tally: &mut Tally, metrics: &mut Metrics) {
    let mut rng = Rng::new(seed ^ 0x656e_6769_6e65);
    let mut fsync = Vec::new();
    for _ in 0..FSYNC_BLOCKS {
        let n = *rng.pick(&FSYNC_SIZES);
        let algorithm = *rng.pick(&cells::table2_algorithms(n));
        fsync.extend(cells::block(&mut rng, n, algorithm, BLOCK_LEN));
    }
    let mut ssync = Vec::new();
    for _ in 0..SSYNC_BLOCKS {
        let n = *rng.pick(&SSYNC_SIZES);
        let algorithm = *rng.pick(&cells::table4_algorithms(n));
        ssync.extend(cells::block(&mut rng, n, algorithm, BLOCK_LEN));
    }

    let solo = |cells: &[Scenario], reports: &mut Vec<RunReport>| {
        let mut runner = ScenarioRunner::new();
        reports.resize_with(cells.len(), RunReport::default);
        let start = Instant::now();
        for (cell, report) in cells.iter().zip(reports.iter_mut()) {
            runner.run_into(cell, report);
        }
        start.elapsed().as_secs_f64()
    };
    let mut fsync_reports = Vec::new();
    let mut ssync_reports = Vec::new();
    let fsync_s = median_of_passes(|| solo(&fsync, &mut fsync_reports));
    let ssync_s = median_of_passes(|| solo(&ssync, &mut ssync_reports));

    let ranges = group_ranges(&fsync, |s| s, DEFAULT_BATCH_LANES);
    let mut batched = Vec::with_capacity(fsync.len());
    let batched_s = median_of_passes(|| {
        let mut runner = ScenarioBatchRunner::new();
        batched.clear();
        let start = Instant::now();
        for range in &ranges {
            batched.extend_from_slice(runner.run_group_reports(&fsync[range.clone()]));
        }
        start.elapsed().as_secs_f64()
    });
    let mismatched = batched
        .iter()
        .zip(&fsync_reports)
        .filter(|(b, s)| b != s)
        .count();
    tally.check(mismatched == 0, || {
        format!("{mismatched} batched engine reports differ from their solo runs")
    });

    let rounds = |reports: &[RunReport]| reports.iter().map(|r| r.rounds).sum::<u64>();
    let (fsync_rounds, ssync_rounds) = (rounds(&fsync_reports), rounds(&ssync_reports));
    metrics.insert(
        "engine.fsync_ns_per_round".into(),
        fsync_s * 1e9 / fsync_rounds as f64,
    );
    metrics.insert(
        "engine.ssync_ns_per_round".into(),
        ssync_s * 1e9 / ssync_rounds as f64,
    );
    metrics.insert("engine.rounds".into(), (fsync_rounds + ssync_rounds) as f64);
    metrics.insert("engine.batched_over_solo".into(), batched_s / fsync_s);
}

/// `checkpoint.*` and `sim.step_with_edge_ns`: the four calls of one
/// model-check expansion, driven over distinct states of the widest cell.
///
/// Four passes run growing prefixes of an expansion over every (state, edge
/// choice) pair: restore, then also step, then also checkpoint, then also
/// the canonical key. Successive differences give each call's time without
/// a clock read per call.
pub fn checkpoint(tally: &mut Tally, metrics: &mut Metrics) {
    let cell = model_check::table3_cells(9)
        .into_iter()
        .find(|c| c.id == WIDEST)
        .expect("the Table 3 cells at n = 9 include MC-T3-R4");
    let ring = cell.check.scenario.ring();
    let n = ring.size();
    let choice = |c: usize| (c < n).then(|| EdgeId::new(c));
    let mut sim = cell.check.branchable_simulation();
    let mut scratch = KeyScratch::new();
    let mut key = Vec::new();

    // Breadth-first collection of distinct states, deduplicated by key.
    let mut states = vec![sim.checkpoint()];
    let mut seen = HashSet::new();
    states[0].canonical_key_into(&ring, &mut scratch, &mut key);
    seen.insert(key.clone());
    let mut level = 0..1;
    while states.len() < CHECKPOINT_STATES && !level.is_empty() {
        let next_start = states.len();
        'level: for i in level.clone() {
            for c in 0..=n {
                sim.restore(&states[i]);
                sim.step_with_edge(choice(c));
                let cp = sim.checkpoint();
                cp.canonical_key_into(&ring, &mut scratch, &mut key);
                if seen.insert(key.clone()) {
                    states.push(cp);
                    if states.len() == CHECKPOINT_STATES {
                        break 'level;
                    }
                }
            }
        }
        level = next_start..states.len();
    }
    tally.check(states.len() == CHECKPOINT_STATES, || {
        format!(
            "the widest cell yielded only {} distinct states",
            states.len()
        )
    });

    let calls = (states.len() * (n + 1)) as f64;
    let mut out = SimCheckpoint::default();
    let mut key_bytes = 0u64;
    let mut prefix = |depth: usize| {
        median_of_passes(|| {
            key_bytes = 0;
            let start = Instant::now();
            for state in &states {
                for c in 0..=n {
                    sim.restore(state);
                    if depth >= 1 {
                        sim.step_with_edge(choice(c));
                    }
                    if depth >= 2 {
                        sim.checkpoint_into(&mut out);
                    }
                    if depth >= 3 {
                        out.canonical_key_into(&ring, &mut scratch, &mut key);
                        key_bytes += key.len() as u64;
                    }
                    black_box(&out);
                }
            }
            start.elapsed().as_secs_f64() * 1e9 / calls
        })
    };
    let cumulative: Vec<f64> = (0..4).map(&mut prefix).collect();
    metrics.insert("checkpoint.restore_ns".into(), cumulative[0]);
    metrics.insert(
        "sim.step_with_edge_ns".into(),
        cumulative[1] - cumulative[0],
    );
    metrics.insert(
        "checkpoint.checkpoint_into_ns".into(),
        cumulative[2] - cumulative[1],
    );
    metrics.insert(
        "checkpoint.canonical_key_ns".into(),
        cumulative[3] - cumulative[2],
    );
    metrics.insert("checkpoint.key_bytes".into(), key_bytes as f64);
}
