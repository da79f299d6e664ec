//! `exhaustive-n9`: the exhaustive impossibility proofs of Tables 1 and 3 for
//! n = 4..=9 and the Figure 2 cross-validation for n = 5..=8, through one
//! reused sequential search context.

use crate::trace::{peak_rss_mib, timed, Timed, Tracer};
use crate::{Counters, Metrics, Tally, Workload};
use dynring_analysis::model_check::{self, SearchContext};
use dynring_analysis::{figures, ModelCheck, TableCell, Verdict};
use std::time::Instant;

const SIZES: std::ops::RangeInclusive<usize> = 4..=9;
const FIGURE2_SIZES: std::ops::RangeInclusive<usize> = 5..=8;
/// The widest cell of the matrix: it alone expands most of the states.
pub const WIDEST: &str = "MC-T3-R4(n=9)";

pub struct Exhaustive {
    ctx: SearchContext,
    cells: Vec<TableCell>,
    figure2: Vec<(usize, ModelCheck)>,
    widest_s: f64,
}

fn add_stats(counters: &mut Counters, verdict: &Verdict) {
    let stats = verdict.stats();
    *counters.entry("model_check.expanded".into()).or_default() += stats.expanded;
    *counters.entry("model_check.visited".into()).or_default() += stats.visited;
    let peak = counters
        .entry("model_check.peak_frontier".into())
        .or_default();
    *peak = (*peak).max(stats.peak_frontier as u64);
}

/// Scores one verdict as `TableCell::row` does: the verdict must be the
/// predicted one, and an impossibility witness must replay to a defeat.
fn score(cell: &TableCell, verdict: &Verdict, t: &mut Tracer, tally: &mut Tally) {
    match (verdict, cell.expect_infeasible) {
        (Verdict::Infeasible(proof), true) => {
            let confirmed = t.span("model_check.replay", |_| {
                cell.check
                    .objective
                    .defeated_in(&cell.check.replay(&proof.witness))
            });
            tally.check(confirmed, || {
                format!("{}: witness does not replay to a defeat", cell.id)
            });
        }
        (Verdict::Feasible(_), false) => tally.check(true, String::new),
        (_, expect_infeasible) => tally.check(false, || {
            format!(
                "{}: verdict is not the predicted one (infeasible: {expect_infeasible})",
                cell.id
            )
        }),
    }
}

impl Exhaustive {
    pub fn setup() -> Self {
        let mut ctx = SearchContext::new(1);
        let cells: Vec<TableCell> = SIZES.flat_map(model_check::infeasibility_cells).collect();
        let figure2 = FIGURE2_SIZES
            .map(|n| (n, model_check::theorem4_cell(n)))
            .collect();
        // Warm-up: the n = 4 matrix through the context the timed part reuses.
        for cell in model_check::infeasibility_cells(*SIZES.start()) {
            std::hint::black_box(cell.check.run_in(&mut ctx));
        }
        Exhaustive {
            ctx,
            cells,
            figure2,
            widest_s: 0.0,
        }
    }
}

/// One pass over the matrix and the Figure 2 pins in `ctx`; returns the
/// pass's counters and the search time of the widest cell.
fn pass(
    cells: &[TableCell],
    figure2: &[(usize, ModelCheck)],
    ctx: &mut SearchContext,
    t: &mut Tracer,
    tally: &mut Tally,
) -> (Counters, f64) {
    let mut counters = Counters::new();
    let mut widest_s = 0.0;
    for cell in cells {
        let start = Instant::now();
        let verdict = t.span("model_check.search", |_| cell.check.run_in(ctx));
        if cell.id == WIDEST {
            widest_s = start.elapsed().as_secs_f64();
        }
        add_stats(&mut counters, &verdict);
        score(cell, &verdict, t, tally);
    }
    for (n, check) in figure2 {
        let verdict = t.span("model_check.search", |_| check.run_in(ctx));
        add_stats(&mut counters, &verdict);
        let scripted = t.span("figures.figure2", |_| figures::figure2(*n).explored_at);
        let pin = verdict.feasible().map(|proof| proof.worst_round);
        tally.check(
            matches!((pin, scripted), (Some(w), Some(s)) if w >= s),
            || format!("Figure 2 pin at n={n}: search worst {pin:?}, script {scripted:?}"),
        );
    }
    counters.insert(
        "model_check.cells".into(),
        (cells.len() + figure2.len()) as u64,
    );
    (counters, widest_s)
}

impl Workload for Exhaustive {
    fn threads(&self) -> usize {
        self.ctx.threads()
    }

    fn iterate(&mut self, t: &mut Tracer, tally: &mut Tally) -> Counters {
        let (counters, widest_s) = pass(&self.cells, &self.figure2, &mut self.ctx, t, tally);
        self.widest_s = widest_s;
        counters
    }

    fn verify(&mut self, _: &mut Tally) {
        // Every verdict, witness replay and Figure 2 pin is checked in the
        // pass itself.
    }

    fn layers(
        &mut self,
        spans: &Tracer,
        traced: &Timed<Counters>,
        tally: &mut Tally,
        metrics: &mut Metrics,
    ) {
        let search_s = spans.total_seconds("model_check.search");
        metrics.insert("model_check.search_s".into(), search_s);
        metrics.insert(
            "model_check.replay_s".into(),
            spans.total_seconds("model_check.replay"),
        );
        metrics.insert("model_check.widest_s".into(), self.widest_s);
        let expanded = metrics["model_check.expanded"];
        metrics.insert(
            "model_check.dedup_ratio".into(),
            expanded / metrics["model_check.visited"],
        );
        let per_call: f64 = [
            "checkpoint.restore_ns",
            "sim.step_with_edge_ns",
            "checkpoint.checkpoint_into_ns",
            "checkpoint.canonical_key_ns",
        ]
        .iter()
        .map(|name| metrics[*name])
        .sum();
        metrics.insert(
            "model_check.frontier_other_ns".into(),
            search_s * 1e9 / expanded - per_call,
        );

        // The same pass on two search workers; release the sequential
        // context's buffers first so the peak is the parallel search's own.
        self.ctx = SearchContext::new(1);
        let mut ctx2 = SearchContext::new(2);
        let two = timed(|| {
            pass(
                &self.cells,
                &self.figure2,
                &mut ctx2,
                &mut Tracer::new(false),
                tally,
            )
            .0
        });
        drop(ctx2);
        tally.check(two.value == traced.value, || {
            "the two-worker search expanded different states than the sequential one".into()
        });
        metrics.insert("model_check.speedup_2t".into(), traced.wall_s / two.wall_s);
        metrics.insert("model_check.peak_rss_mib_2t".into(), peak_rss_mib());
    }
}
