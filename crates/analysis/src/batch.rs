//! Parallel execution of independent scenario batteries.
//!
//! The feasibility map runs thousands of independent [`Scenario`]s (ring
//! sizes × placements × orientations × adversaries). A [`BatchRunner`] fans
//! such a battery across OS threads with [`std::thread::scope`] (no external
//! dependency) and merges the results **in input order**, so every consumer —
//! sweeps, tables, the `feasibility_map` example — produces output
//! bit-identical to the sequential path regardless of thread count or
//! scheduling.
//!
//! The default thread count comes from the `DYNRING_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`]; a runner
//! with one thread runs inline on the caller's thread (no spawn at all), which
//! is the reference path the equivalence tests compare against.

use crate::scenario::{Scenario, ScenarioRunner};
use dynring_engine::sim::RunReport;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A worker panic captured by [`BatchRunner::run_map_catching`], identifying
/// the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the input whose `work` call panicked.
    pub index: usize,
    /// The panic payload, if it was a string (the common `panic!` case);
    /// otherwise a placeholder.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked on input {}: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Fans independent work items across threads, merging results in input
/// order.
///
/// ```
/// use dynring_analysis::batch::BatchRunner;
///
/// let doubled = BatchRunner::new(4).run_map(&[1, 2, 3], |x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BatchRunner {
    threads: usize,
}

impl BatchRunner {
    /// A runner using `threads` worker threads (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        BatchRunner { threads: threads.max(1) }
    }

    /// The inline sequential runner (the reference path: no thread is ever
    /// spawned).
    #[must_use]
    pub fn sequential() -> Self {
        BatchRunner::new(1)
    }

    /// The default runner: `DYNRING_THREADS` if set (a positive integer),
    /// otherwise the machine's available parallelism.
    ///
    /// # Panics
    ///
    /// An unparsable `DYNRING_THREADS` (e.g. `"8x"` or `"0"`) is a hard
    /// error: a typo'd knob silently falling back to all cores would skew
    /// every "sequential reference" comparison, so the misconfiguration
    /// aborts loudly instead.
    #[must_use]
    pub fn from_env() -> Self {
        let threads = match std::env::var("DYNRING_THREADS") {
            Ok(raw) => match parse_thread_count(&raw) {
                Ok(t) => t,
                Err(message) => panic!("invalid DYNRING_THREADS: {message}"),
            },
            Err(std::env::VarError::NotPresent) => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Err(std::env::VarError::NotUnicode(_)) => {
                panic!("invalid DYNRING_THREADS: value is not valid unicode")
            }
        };
        BatchRunner::new(threads)
    }

    /// Number of worker threads this runner uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `work` to every input and returns the results in input order.
    ///
    /// With more than one thread the items are handed out through a shared
    /// counter (work stealing — batteries mix cheap and expensive scenarios),
    /// and each result is reassembled into its input slot afterwards, so the
    /// output is deterministic whatever the interleaving.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic, identifying the offending input index in
    /// the message. The other inputs still run to completion first (see
    /// [`BatchRunner::run_map_catching`], which returns them instead).
    pub fn run_map<I, T, F>(&self, inputs: &[I], work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.run_map_with(inputs, || (), |(), input| work(input))
    }

    /// [`BatchRunner::run_map`] with **per-worker mutable state**: every
    /// worker thread calls `state` once and threads the result through its
    /// share of the inputs. This is what lets a battery hold one recycled
    /// [`ScenarioRunner`] (and therefore
    /// one reusable `Simulation`) per
    /// thread without any cross-thread sharing; results are still merged in
    /// input order, so the output is identical whatever the thread count.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic, identifying the offending input index in
    /// the message.
    pub fn run_map_with<I, T, S, FS, F>(&self, inputs: &[I], state: FS, work: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, &I) -> T + Sync,
    {
        self.run_map_catching(inputs, state, work)
            .into_iter()
            .map(|slot| match slot {
                Ok(result) => result,
                Err(panic) => panic!("batch {panic}"),
            })
            .collect()
    }

    /// [`BatchRunner::run_map_with`] with **per-cell panic isolation**: each
    /// `work` call runs under [`std::panic::catch_unwind`], so one panicking
    /// input no longer aborts the whole batch — its slot comes back as
    /// `Err(WorkerPanic)` (with the input index and panic message) and every
    /// other input still produces its `Ok` result.
    ///
    /// A panic may leave the per-worker state half-updated, so the worker
    /// **quarantines the poisoned state**: it drops its local `S` and builds
    /// a fresh one via `state` before touching the next input. Results after
    /// a panic are therefore exactly what a fresh worker would produce —
    /// this is what lets the service layer's supervisor trust the survivors
    /// of a poisoned battery.
    ///
    /// The panic still unwinds through the standard panic hook before being
    /// captured, so the usual `thread '…' panicked` line appears on stderr;
    /// only the *abort* is suppressed.
    pub fn run_map_catching<I, T, S, FS, F>(
        &self,
        inputs: &[I],
        state: FS,
        work: F,
    ) -> Vec<Result<T, WorkerPanic>>
    where
        I: Sync,
        T: Send,
        FS: Fn() -> S + Sync,
        F: Fn(&mut S, &I) -> T + Sync,
    {
        let caught = |local: &mut S, index: usize, input: &I| -> Result<T, WorkerPanic> {
            catch_unwind(AssertUnwindSafe(|| work(local, input))).map_err(|payload| {
                WorkerPanic { index, message: panic_message(payload.as_ref()) }
            })
        };
        let workers = self.threads.min(inputs.len());
        if workers <= 1 {
            let mut local = state();
            return inputs
                .iter()
                .enumerate()
                .map(|(index, input)| {
                    let result = caught(&mut local, index, input);
                    if result.is_err() {
                        local = state();
                    }
                    result
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<Result<T, WorkerPanic>>> = Vec::with_capacity(inputs.len());
        slots.resize_with(inputs.len(), || None);
        let chunks = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = state();
                        let mut produced: Vec<(usize, Result<T, WorkerPanic>)> = Vec::new();
                        loop {
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(input) = inputs.get(index) else { break };
                            let result = caught(&mut local, index, input);
                            if result.is_err() {
                                local = state();
                            }
                            produced.push((index, result));
                        }
                        produced
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().expect(
                        "batch workers catch work panics; a join failure is a harness bug",
                    )
                })
                .collect::<Vec<_>>()
        });
        for (index, result) in chunks.into_iter().flatten() {
            slots[index] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every input index was claimed exactly once"))
            .collect()
    }

    /// Runs every scenario and returns the reports in input order.
    ///
    /// Each worker runs its share of the cells one by one on its own
    /// recycled [`ScenarioRunner`]. Results are merged in input order, so
    /// the output is byte-identical to the cell-by-cell sequential path
    /// whatever the thread count.
    #[must_use]
    pub fn run_reports(&self, scenarios: &[Scenario]) -> Vec<RunReport> {
        self.run_map_with(scenarios, ScenarioRunner::new, ScenarioRunner::run)
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        BatchRunner::from_env()
    }
}

/// Interns identical battery cells, so a battery runs each distinct cell
/// once.
///
/// Batteries repeat cells: a sweep rebuilds every seed-independent
/// adversary (`Static`, `BlockForever`, ...) once per seed, an FSYNC
/// [`Scenario`] carries no seed of its own, and an SSYNC one's seed only
/// feeds the sticky adversary the sweep replaces. The key of a cell is a
/// 64-bit hash of its `Debug` form, streamed into the hasher without
/// building a `String`. A key hit is reused only when [`Scenario`]'s `PartialEq` holds
/// too (the equality `ScenarioRunner`'s spec cache already trusts), so a
/// hash collision costs at most an extra distinct cell, never a wrong
/// reuse. Cells are interned while a battery is enumerated, so a repeat is
/// never stored.
pub(crate) struct CellInterner {
    cells: Vec<Scenario>,
    first: HashMap<u64, usize>,
}

impl CellInterner {
    pub(crate) fn new() -> Self {
        CellInterner { cells: Vec::new(), first: HashMap::new() }
    }

    /// The index of `cell` among the distinct cells: that of the first
    /// equal cell interned (`cell` itself is dropped), or the next free
    /// index, at which `cell` is stored.
    pub(crate) fn intern(&mut self, cell: Scenario) -> usize {
        let next = self.cells.len();
        match self.first.entry(debug_hash(&cell)) {
            Entry::Occupied(hit) if self.cells[*hit.get()] == cell => {
                return *hit.get();
            }
            // A hash collision: keep `cell` as a distinct cell of its own.
            Entry::Occupied(_) => {}
            Entry::Vacant(slot) => {
                slot.insert(next);
            }
        }
        self.cells.push(cell);
        next
    }

    /// The distinct cells, in order of first occurrence.
    pub(crate) fn cells(&self) -> &[Scenario] {
        &self.cells
    }
}

/// The 64-bit hash of a cell's `Debug` form.
fn debug_hash(cell: &Scenario) -> u64 {
    struct HashWriter(DefaultHasher);
    impl fmt::Write for HashWriter {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }
    let mut writer = HashWriter(DefaultHasher::new());
    write!(writer, "{cell:?}").expect("hashing a Debug form cannot fail");
    writer.0.finish()
}

/// Parses a `DYNRING_THREADS`-style value: a positive integer, rejecting
/// everything else with a human-readable message (the strict core behind
/// [`BatchRunner::from_env`], split out so it can be tested without touching
/// the process environment).
///
/// # Errors
///
/// Returns the message to show the user when the value is not a positive
/// integer.
pub fn parse_thread_count(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!(
            "{trimmed:?} is zero; use a positive thread count (or unset the variable \
             to use all cores)"
        )),
        Ok(t) => Ok(t),
        Err(_) => Err(format!(
            "{raw:?} is not a positive integer thread count (examples: 1, 8)"
        )),
    }
}

/// Chunk size of [`group_ranges`].
#[doc(hidden)]
pub const DEFAULT_BATCH_LANES: usize = 16;

/// Splits `0..items.len()` into consecutive ranges of at most `max_lanes`
/// items (clamped to at least 1). Its only caller is the engine probe of the
/// end-to-end benchmark (`e2ebench`), which concatenates the per-range
/// results; it goes together with that probe in the next change to the
/// benchmark.
#[doc(hidden)]
#[must_use]
pub fn group_ranges<T>(
    items: &[T],
    _scenario_of: impl Fn(&T) -> &Scenario,
    max_lanes: usize,
) -> Vec<std::ops::Range<usize>> {
    let max_lanes = max_lanes.max(1);
    (0..items.len())
        .step_by(max_lanes)
        .map(|start| start..items.len().min(start + max_lanes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AdversaryKind, ScenarioRunner};
    use crate::sweeps::{for_each_cell, PlacementDensity};
    use dynring_core::Algorithm;
    use dynring_graph::Handedness;

    /// The cells of a `--huge` battery (4 seeds, dense placements).
    fn huge_battery(
        make: impl Fn(usize) -> Algorithm,
        sizes: &[usize],
        ssync: bool,
    ) -> Vec<Scenario> {
        let mut cells = Vec::new();
        for_each_cell(make, sizes, 4, ssync, PlacementDensity::Dense, |_, _, cell| {
            cells.push(cell);
        });
        cells
    }

    #[test]
    fn the_huge_landmark_battery_interns_to_half_its_cells() {
        // Theorem 8's row of the `--huge` Table 2 at n = 128: the four
        // seed-independent adversaries repeat once per seed.
        let cells = huge_battery(|_| Algorithm::LandmarkNoChirality, &[128], false);
        let mut distinct = CellInterner::new();
        let slots: Vec<usize> = cells.iter().map(|cell| distinct.intern(cell.clone())).collect();
        assert_eq!((distinct.cells().len(), cells.len()), (216, 432));
        // Every slot maps to its cell's first occurrence, and distinct cells
        // are numbered in order of first occurrence.
        let mut introduced = 0;
        for (index, cell) in cells.iter().enumerate() {
            let first = cells.iter().position(|c| c == cell).expect("cell is in the battery");
            if first == index {
                assert_eq!(slots[index], introduced);
                introduced += 1;
            } else {
                assert_eq!(slots[index], slots[first]);
            }
            assert_eq!(&distinct.cells()[slots[index]], cell);
        }
    }

    #[test]
    fn the_huge_table4_batteries_intern_to_half_their_cells() {
        // An SSYNC cell's own seed only feeds the sticky adversary that the
        // battery replaces, and its schedulers carry none, so the
        // seed-independent adversaries repeat once per seed here too.
        let sizes = [6, 9, 12, 16];
        let table4: [&dyn Fn(usize) -> Algorithm; 6] = [
            &|n| Algorithm::PtBoundChirality { upper_bound: n },
            &|_| Algorithm::PtLandmarkChirality,
            &|n| Algorithm::PtBoundNoChirality { upper_bound: n },
            &|_| Algorithm::PtLandmarkNoChirality,
            &|n| Algorithm::EtBoundNoChirality { ring_size: n },
            &|_| Algorithm::EtUnconscious,
        ];
        let counts: Vec<(usize, usize)> = table4
            .iter()
            .map(|make| {
                let cells = huge_battery(make, &sizes, true);
                let mut distinct = CellInterner::new();
                for cell in &cells {
                    distinct.intern(cell.clone());
                }
                (distinct.cells().len(), cells.len())
            })
            .collect();
        let pinned = [(432, 864), (432, 864), (864, 1728), (864, 1728), (864, 1728), (432, 864)];
        assert_eq!(counts, pinned);
    }

    #[test]
    fn near_duplicate_cells_stay_distinct() {
        let base = Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 })
            .with_adversary(AdversaryKind::Random { p: 0.7, seed: 3 });
        let near = [
            base.clone().with_adversary(AdversaryKind::Random {
                p: f64::from_bits(0.7f64.to_bits() + 1),
                seed: 3,
            }),
            base.clone().with_trace(),
            base.clone().with_orientations(vec![Handedness::LeftIsCw, Handedness::LeftIsCcw]),
            base.clone().with_max_rounds(base.max_rounds + 1),
        ];
        let mut distinct = CellInterner::new();
        assert_eq!(distinct.intern(base.clone()), 0);
        for (index, cell) in near.iter().enumerate() {
            assert_eq!(distinct.intern(cell.clone()), index + 1, "{cell:?}");
        }
        assert_eq!(distinct.intern(base), 0);
        assert_eq!(distinct.cells().len(), 1 + near.len());
    }

    #[test]
    fn results_come_back_in_input_order() {
        let inputs: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7] {
            let out = BatchRunner::new(threads).run_map(&inputs, |x| x * 3);
            assert_eq!(out, inputs.iter().map(|x| x * 3).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn parallel_reports_match_the_sequential_reference() {
        let scenarios: Vec<Scenario> = (0..6)
            .map(|i| {
                Scenario::fsync(6 + i % 3, Algorithm::KnownBound { upper_bound: 6 + i % 3 })
                    .with_adversary(AdversaryKind::Sticky {
                        min_hold: 1,
                        max_hold: 6,
                        present: 0.25,
                        seed: i as u64,
                    })
            })
            .collect();
        let sequential = BatchRunner::sequential().run_reports(&scenarios);
        let parallel = BatchRunner::new(4).run_reports(&scenarios);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn thread_count_is_clamped_and_env_parse_is_safe() {
        assert_eq!(BatchRunner::new(0).threads(), 1);
        assert_eq!(BatchRunner::sequential().threads(), 1);
        assert!(BatchRunner::from_env().threads() >= 1);
    }

    #[test]
    fn empty_and_singleton_batches_run_inline() {
        let empty: Vec<usize> = Vec::new();
        assert!(BatchRunner::new(8).run_map(&empty, |x| *x).is_empty());
        assert_eq!(BatchRunner::new(8).run_map(&[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn thread_count_parsing_is_strict() {
        assert_eq!(parse_thread_count("4"), Ok(4));
        assert_eq!(parse_thread_count(" 16 "), Ok(16));
        for bad in ["8x", "0", "-2", "", "all", "3.5"] {
            let err = parse_thread_count(bad).unwrap_err();
            assert!(
                err.contains("positive") || err.contains("zero"),
                "{bad:?} -> {err}"
            );
        }
    }

    #[test]
    fn catching_map_quarantines_the_panicking_cell() {
        let inputs: Vec<usize> = (0..40).collect();
        for threads in [1, 4] {
            let results = BatchRunner::new(threads).run_map_catching(
                &inputs,
                || (),
                |(), x| {
                    assert!(*x != 17, "cell seventeen is poisoned");
                    x * 2
                },
            );
            assert_eq!(results.len(), inputs.len());
            for (i, result) in results.iter().enumerate() {
                if i == 17 {
                    let panic = result.as_ref().unwrap_err();
                    assert_eq!(panic.index, 17);
                    assert!(panic.message.contains("seventeen"), "{panic}");
                } else {
                    assert_eq!(result.as_ref().unwrap(), &(i * 2), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn catching_map_rebuilds_poisoned_worker_state() {
        // Sequential so one worker state sees both the panic and the
        // survivors: the counter must restart from zero after the panic,
        // proving the poisoned state was quarantined and rebuilt.
        let inputs: Vec<usize> = (0..6).collect();
        let results = BatchRunner::sequential().run_map_catching(
            &inputs,
            || 0usize,
            |count, x| {
                *count += 1;
                assert!(*x != 2, "poison");
                *count
            },
        );
        let counts: Vec<Option<usize>> = results.into_iter().map(Result::ok).collect();
        assert_eq!(counts, vec![Some(1), Some(2), None, Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn run_map_panics_name_the_offending_index() {
        let inputs: Vec<usize> = (0..8).collect();
        let outcome = std::panic::catch_unwind(|| {
            BatchRunner::new(2).run_map(&inputs, |x| {
                assert!(*x != 5, "boom");
                *x
            })
        });
        let payload = outcome.expect_err("a worker panic must propagate");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("propagated panic carries a formatted message");
        assert!(message.contains("input 5"), "{message}");
        assert!(message.contains("boom"), "{message}");
    }

    #[test]
    fn reports_survive_a_poisoned_sibling_cell() {
        // A battery where one scenario panics (start out of range) must
        // still produce every other report, identical to running them alone.
        let good = Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 });
        let bad = good.clone().with_starts(vec![99, 100]);
        let scenarios = vec![good.clone(), bad, good.clone()];
        let results = BatchRunner::new(2).run_map_catching(
            &scenarios,
            ScenarioRunner::new,
            |runner, scenario| runner.run(scenario),
        );
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
        assert!(results[2].is_ok());
        let reference = good.run();
        assert_eq!(results[0].as_ref().unwrap(), &reference);
        assert_eq!(results[2].as_ref().unwrap(), &reference);
    }
}
