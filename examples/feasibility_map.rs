//! Regenerates the paper's feasibility map (Tables 1–4) and the figure
//! experiments, printing them as markdown tables.
//!
//! This is the programme behind `EXPERIMENTS.md`. Ring sizes are kept small
//! so the whole map runs in a couple of minutes; pass `--large` for the
//! larger sweep used in the benchmark harness, or `--huge` for the
//! *Revisited*-scale battery (larger rings, more seeds, dense start
//! placements — affordable thanks to the recycled run lifecycle; set
//! `DYNRING_HUGE_SMOKE=1` to exercise the huge configuration on tiny rings,
//! as CI does).
//!
//! ```bash
//! cargo run --release --example feasibility_map
//! cargo run --release --example feasibility_map -- --huge
//! ```

use dynring_analysis::{
    figures, lower_bounds, markdown_table, tables, BatchRunner, PlacementDensity,
};

/// Ring sizes and seed counts for one regeneration of the map.
pub struct MapConfig {
    /// Ring sizes for the FSYNC possibility rows (Table 2).
    pub fsync_sizes: Vec<usize>,
    /// Ring sizes for the SSYNC possibility and lower-bound rows (Table 4).
    pub ssync_sizes: Vec<usize>,
    /// Number of random seeds per scenario.
    pub seeds: u64,
    /// Ring size for the FSYNC impossibility rows (Table 1, minimum 12).
    pub impossibility_n: usize,
    /// Ring size for the SSYNC impossibility rows (Table 3, kept smaller
    /// because its witnesses run quadratic-move algorithms to exhaustion).
    pub ssync_impossibility_n: usize,
    /// Ring size for the figure experiments.
    pub figures_n: usize,
    /// Ring size for the Theorem 4 lower-bound row.
    pub lower_bound_n: usize,
    /// Start-placement density of the possibility batteries (the `--huge`
    /// map sweeps the dense grid of the Revisited follow-up).
    pub density: PlacementDensity,
}

impl MapConfig {
    /// The small default map (a few seconds).
    pub fn small() -> Self {
        MapConfig {
            fsync_sizes: vec![6, 9, 12],
            ssync_sizes: vec![6, 8],
            seeds: 1,
            impossibility_n: 16,
            ssync_impossibility_n: 10,
            figures_n: 12,
            lower_bound_n: 12,
            density: PlacementDensity::Standard,
        }
    }

    /// The larger sweep used by the benchmark harness.
    pub fn large() -> Self {
        MapConfig {
            fsync_sizes: vec![8, 16, 32, 64],
            ssync_sizes: vec![6, 9, 12, 16],
            seeds: 3,
            impossibility_n: 16,
            ssync_impossibility_n: 10,
            figures_n: 12,
            lower_bound_n: 12,
            density: PlacementDensity::Standard,
        }
    }

    /// The `--huge` battery of the ROADMAP (per the *Revisited* follow-up,
    /// arXiv:2001.04525): larger rings, more seeds and the dense
    /// start-placement grid. Honour `DYNRING_HUGE_SMOKE=1` (the CI knob)
    /// by shrinking the rings back to smoke scale while keeping the dense
    /// grid and extra seeds, so the configuration itself stays exercised.
    pub fn huge() -> Self {
        if std::env::var("DYNRING_HUGE_SMOKE").is_ok_and(|v| v != "0" && !v.is_empty()) {
            return MapConfig {
                seeds: 2,
                density: PlacementDensity::Dense,
                ..MapConfig::small()
            };
        }
        MapConfig {
            fsync_sizes: vec![8, 16, 32, 64, 128],
            ssync_sizes: vec![6, 9, 12, 16],
            seeds: 4,
            impossibility_n: 24,
            ssync_impossibility_n: 12,
            figures_n: 16,
            lower_bound_n: 16,
            density: PlacementDensity::Dense,
        }
    }
}

/// The example's core path, callable from the smoke tests: regenerates every
/// table, figure and lower-bound row and returns whether all of them are
/// consistent with the paper.
pub fn run(config: &MapConfig) -> bool {
    // Every battery fans its independent runs across this runner's threads
    // (`DYNRING_THREADS` overrides the default). Results are merged in input
    // order, so stdout is byte-identical whatever the thread count; the
    // runner configuration itself goes to stderr.
    let runner = BatchRunner::from_env();
    eprintln!("batch runner: {} thread(s); set DYNRING_THREADS to override", runner.threads());

    println!("# Feasibility map of Live Exploration of Dynamic Rings\n");

    let t1 = tables::table1_with(&runner, config.impossibility_n);
    println!("{}", markdown_table("Table 1 — FSYNC impossibility results", &t1));

    let t2 = tables::table2_battery(&runner, &config.fsync_sizes, config.seeds, config.density);
    println!("{}", markdown_table("Table 2 — FSYNC possibility results", &t2));

    let t3 = tables::table3_with(&runner, config.ssync_impossibility_n);
    println!("{}", markdown_table("Table 3 — SSYNC impossibility results", &t3));

    let t4 = tables::table4_battery(&runner, &config.ssync_sizes, config.seeds, config.density);
    println!("{}", markdown_table("Table 4 — SSYNC possibility results", &t4));

    let figs = figures::all_figures_with(&runner, config.figures_n);
    println!("{}", markdown_table("Figures 2, 5–7, 12, 15, 16", &figs));

    let mut lb = vec![lower_bounds::theorem4(config.lower_bound_n)];
    lb.extend(lower_bounds::theorem13_15_battery(
        &runner,
        &config.ssync_sizes,
        config.seeds,
        config.density,
    ));
    println!("{}", markdown_table("Lower bounds (Theorems 4, 13, 15)", &lb));

    let all_hold = t1
        .iter()
        .chain(&t2)
        .chain(&t3)
        .chain(&t4)
        .chain(&figs)
        .chain(&lb)
        .all(|row| row.holds);
    println!("\nAll rows consistent with the paper: {}", if all_hold { "yes" } else { "NO" });
    all_hold
}

fn main() {
    let config = if std::env::args().any(|a| a == "--huge") {
        MapConfig::huge()
    } else if std::env::args().any(|a| a == "--large") {
        MapConfig::large()
    } else {
        MapConfig::small()
    };
    assert!(run(&config), "feasibility map inconsistent with the paper");
}
