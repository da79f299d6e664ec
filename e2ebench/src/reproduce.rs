//! `reproduce-huge`: the paper's Tables 1–4, figures and lower bounds at the
//! `--huge` scale of `examples/feasibility_map.rs`, on two batch threads.

use crate::trace::{timed, Timed, Tracer};
use crate::{Counters, Metrics, Tally, Workload};
use dynring_analysis::{
    figures, lower_bounds, markdown_table, tables, BatchRunner, PlacementDensity, RowResult,
};

/// Ring sizes and seeds of one regeneration of the map (the fields of the
/// example's `MapConfig`).
struct MapSizes {
    fsync_sizes: &'static [usize],
    ssync_sizes: &'static [usize],
    seeds: u64,
    impossibility_n: usize,
    ssync_impossibility_n: usize,
    figures_n: usize,
    lower_bound_n: usize,
}

/// `MapConfig::huge()` of `examples/feasibility_map.rs`, with the dense
/// start-placement grid.
const HUGE: MapSizes = MapSizes {
    fsync_sizes: &[8, 16, 32, 64, 128],
    ssync_sizes: &[6, 9, 12, 16],
    seeds: 4,
    impossibility_n: 24,
    ssync_impossibility_n: 12,
    figures_n: 16,
    lower_bound_n: 16,
};

/// `MapConfig::small()`: the warm-up of the set-up.
const SMALL: MapSizes = MapSizes {
    fsync_sizes: &[6, 9, 12],
    ssync_sizes: &[6, 8],
    seeds: 1,
    impossibility_n: 16,
    ssync_impossibility_n: 10,
    figures_n: 12,
    lower_bound_n: 12,
};

const THREADS: usize = 2;

/// Every artifact of the map, each with its markdown title.
fn artifacts(
    runner: &BatchRunner,
    m: &MapSizes,
    t: &mut Tracer,
) -> Vec<(&'static str, Vec<RowResult>)> {
    let dense = PlacementDensity::Dense;
    let t1 = t.span("tables.table1", |_| {
        tables::table1_with(runner, m.impossibility_n)
    });
    let t2 = t.span("tables.table2", |_| {
        tables::table2_battery(runner, m.fsync_sizes, m.seeds, dense)
    });
    let t3 = t.span("tables.table3", |_| {
        tables::table3_with(runner, m.ssync_impossibility_n)
    });
    let t4 = t.span("tables.table4", |_| {
        tables::table4_battery(runner, m.ssync_sizes, m.seeds, dense)
    });
    let figs = t.span("figures.all", |_| {
        figures::all_figures_with(runner, m.figures_n)
    });
    let mut lb = vec![t.span("lower_bounds.theorem4", |_| {
        lower_bounds::theorem4(m.lower_bound_n)
    })];
    lb.extend(t.span("lower_bounds.theorem13_15", |_| {
        lower_bounds::theorem13_15_battery(runner, m.ssync_sizes, m.seeds, dense)
    }));
    vec![
        ("Table 1 — FSYNC impossibility results", t1),
        ("Table 2 — FSYNC possibility results", t2),
        ("Table 3 — SSYNC impossibility results", t3),
        ("Table 4 — SSYNC possibility results", t4),
        ("Figures 2, 5–7, 12, 15, 16", figs),
        ("Lower bounds (Theorems 4, 13, 15)", lb),
    ]
}

fn render(artifacts: &[(&str, Vec<RowResult>)]) -> String {
    artifacts
        .iter()
        .map(|(title, rows)| markdown_table(title, rows))
        .collect()
}

pub struct Reproduce {
    runner: BatchRunner,
    /// The rendered map of the latest timed iteration (two threads).
    rendered: Option<String>,
    /// The rendered map at one thread, once computed.
    rendered_1t: Option<String>,
}

impl Reproduce {
    pub fn setup() -> Self {
        let runner = BatchRunner::new(THREADS);
        std::hint::black_box(artifacts(&runner, &SMALL, &mut Tracer::new(false)));
        Reproduce {
            runner,
            rendered: None,
            rendered_1t: None,
        }
    }
}

impl Workload for Reproduce {
    fn threads(&self) -> usize {
        THREADS
    }

    fn iterate(&mut self, t: &mut Tracer, tally: &mut Tally) -> Counters {
        let arts = t.span("reproduce", |t| artifacts(&self.runner, &HUGE, t));
        let mut counters = Counters::new();
        for row in arts.iter().flat_map(|(_, rows)| rows) {
            tally.check(row.holds, || {
                format!("row {} does not hold: {}", row.id, row.observed)
            });
            *counters.entry("tables.rows".into()).or_default() += 1;
            *counters.entry("tables.runs".into()).or_default() += row.runs as u64;
        }
        self.rendered = Some(render(&arts));
        counters
    }

    fn verify(&mut self, tally: &mut Tally) {
        let one = self.rendered_1t.get_or_insert_with(|| {
            render(&artifacts(
                &BatchRunner::new(1),
                &HUGE,
                &mut Tracer::new(false),
            ))
        });
        tally.check(self.rendered.as_ref() == Some(one), || {
            "the map rendered at 1 thread differs from the map rendered at 2 threads".into()
        });
    }

    fn layers(
        &mut self,
        spans: &Tracer,
        traced: &Timed<Counters>,
        _: &mut Tally,
        metrics: &mut Metrics,
    ) {
        for (name, seconds) in spans.self_seconds() {
            let metric = format!("{name}_s");
            if metrics.contains_key(&metric) {
                metrics.insert(metric, seconds);
            }
        }
        let one = timed(|| {
            render(&artifacts(
                &BatchRunner::new(1),
                &HUGE,
                &mut Tracer::new(false),
            ))
        });
        self.rendered_1t = Some(one.value);
        metrics.insert("batch.speedup_2t".into(), one.wall_s / traced.wall_s);
        metrics.insert("batch.cpu_over_wall".into(), traced.cpu_s / traced.wall_s);
    }
}
