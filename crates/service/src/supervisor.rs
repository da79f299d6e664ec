//! The supervised worker-pool runtime: runs a [`Job`] chunk by chunk on a
//! [`BatchRunner`] pool, journaling every cell transition so a crashed or
//! killed process resumes from the last durable cell boundary.
//!
//! The execution shape is a **wave loop**: take up to `chunk` pending
//! cells, run them with per-cell panic isolation
//! ([`BatchRunner::run_map_catching`]), journal each result, then
//! `commit()` (fsync) the wave. A SIGKILL therefore loses at most the
//! in-flight wave; everything journaled before it replays on resume.
//! Failed cells re-enter the queue with a bounded, deterministically
//! backed-off retry; cells that exhaust the retry budget are quarantined
//! (journaled, reported, and excluded — the sweep goes on). A per-job
//! failure budget degrades the whole job to a partial result once too many
//! cells quarantine, instead of grinding through a battery that is clearly
//! broken.

use crate::fault::FaultPlan;
use crate::job::{CellFailure, Job, JobOutcome, JobStatus};
use crate::journal::{self, FileSink, Journal, JournalEvent, Replay};
use crate::ServiceError;
use dynring_analysis::batch::BatchRunner;
use dynring_analysis::scenario::ScenarioRunner;
use dynring_engine::sim::RunReport;
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::time::Duration;

/// Deterministic exponential backoff between retry attempts of one cell:
/// `delay(attempt) = min(cap, base << (attempt - 1))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// Delay before the second attempt (the first retry).
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
}

impl Backoff {
    /// No waiting at all — the default, and what tests use.
    #[must_use]
    pub fn none() -> Self {
        Backoff { base: Duration::ZERO, cap: Duration::ZERO }
    }

    /// The delay before retrying after `attempt` (1-based) failed.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.base.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        (self.base * factor).min(self.cap)
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff::none()
    }
}

/// The job runtime. Construct with [`Supervisor::new`], tune with the
/// builder methods, execute with [`Supervisor::run`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    threads: usize,
    chunk: usize,
    fsync_every: usize,
    max_attempts: u32,
    failure_budget: usize,
    backoff: Backoff,
    throttle: Duration,
    fault: FaultPlan,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            threads: BatchRunner::from_env().threads(),
            chunk: 16,
            fsync_every: 8,
            max_attempts: 3,
            failure_budget: usize::MAX,
            backoff: Backoff::none(),
            throttle: Duration::ZERO,
            fault: FaultPlan::none(),
        }
    }
}

impl Supervisor {
    /// A supervisor with default tuning: pool size from `DYNRING_THREADS`
    /// (or all cores), chunk 16, fsync every 8 events, 3 attempts per cell,
    /// unlimited failure budget, no backoff, no faults.
    #[must_use]
    pub fn new() -> Self {
        Supervisor::default()
    }

    /// Worker pool size (clamped to at least 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Cells per wave: the unit of journaling/fsync, and therefore the
    /// most work a kill can lose (clamped to at least 1).
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Fsync batch size inside a wave (clamped to at least 1; every wave
    /// ends with an unconditional fsync regardless).
    #[must_use]
    pub fn fsync_every(mut self, fsync_every: usize) -> Self {
        self.fsync_every = fsync_every.max(1);
        self
    }

    /// Attempts per cell before quarantine (clamped to at least 1).
    #[must_use]
    pub fn max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// How many quarantined cells the job tolerates before degrading to a
    /// partial result (remaining cells are skipped, not run).
    #[must_use]
    pub fn failure_budget(mut self, budget: usize) -> Self {
        self.failure_budget = budget;
        self
    }

    /// Retry backoff policy.
    #[must_use]
    pub fn backoff(mut self, backoff: Backoff) -> Self {
        self.backoff = backoff;
        self
    }

    /// Sleeps this long inside every cell execution. Exists to widen the
    /// kill window for the CI crash-resume smoke; leave at zero otherwise.
    #[must_use]
    pub fn throttle(mut self, throttle: Duration) -> Self {
        self.throttle = throttle;
        self
    }

    /// Installs a fault plan (tests only; production runs keep
    /// [`FaultPlan::none`]).
    #[must_use]
    pub fn fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Runs `job`, journaling to `journal_path`. If the journal already
    /// exists it is replayed first and only the cells it does not settle
    /// are executed; a journal closed by `job_finished` short-circuits to
    /// the recorded outcome without running anything.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] on journal I/O failure (real or injected),
    /// [`ServiceError::Corrupt`] / [`ServiceError::WrongJob`] if the
    /// existing journal does not validate against `job`, and
    /// [`ServiceError::Killed`] when the fault plan kills the worker pool
    /// (the journal retains everything committed before the kill).
    pub fn run(&self, job: &Job, journal_path: &Path) -> Result<JobOutcome, ServiceError> {
        let existing = std::fs::metadata(journal_path).map(|m| m.len() > 0).unwrap_or(false);
        let replayed = if existing {
            journal::replay(journal_path, job)?
        } else {
            Replay::default()
        };
        let resumed = replayed.completed.len();
        if replayed.finished {
            // Terminal journal: the outcome is fully recorded; nothing runs
            // and nothing is appended.
            return Ok(assemble(job, &replayed, collect_skipped(job, &replayed), resumed));
        }

        let sink = FileSink::open(journal_path).map_err(|source| ServiceError::Io {
            context: format!("opening journal {}", journal_path.display()),
            source,
        })?;
        let mut journal = Journal::new(self.fault.wrap_sink(Box::new(sink)), self.fsync_every);
        let io = |context: &str| {
            let context = context.to_owned();
            move |source: std::io::Error| ServiceError::Io { context, source }
        };

        // Queue of (cell, next attempt). Completed and quarantined cells
        // are terminal; failed-but-retryable cells resume at the attempt
        // after their last journaled failure.
        let mut pending: VecDeque<(usize, u32)> = (0..job.len())
            .filter(|i| {
                !replayed.completed.contains_key(i) && !replayed.quarantined.contains_key(i)
            })
            .map(|i| (i, replayed.attempts.get(&i).copied().unwrap_or(0) + 1))
            .collect();

        if existing {
            journal
                .append(&JournalEvent::JobResumed { pending: pending.len() })
                .map_err(io("appending job_resumed"))?;
        } else {
            journal
                .append(&JournalEvent::JobStarted {
                    job_id: job.id().to_owned(),
                    fingerprint: job.fingerprint(),
                    cells: job.len(),
                })
                .map_err(io("appending job_started"))?;
        }

        let mut completed: BTreeMap<usize, RunReport> =
            replayed.completed.iter().map(|(i, (_, r))| (*i, r.clone())).collect();
        let mut quarantined: BTreeMap<usize, CellFailure> = replayed.quarantined.clone();
        let runner = BatchRunner::new(self.threads);

        while let Some(wave) = self.next_wave(&mut pending, quarantined.len()) {
            let (items, kill_at) = wave;
            if items.is_empty() {
                // Kill planned at the very front of the wave: nothing runs.
                journal.commit().map_err(io("committing before kill"))?;
                return Err(ServiceError::Killed { cell: kill_at.expect("empty wave has a kill") });
            }

            // One cell per work item, each worker recycling its own
            // runner: a panic poisons only its own cell, and the worker
            // rebuilds its runner before the next one.
            let results = runner.run_map_catching(
                &items,
                ScenarioRunner::new,
                |local, (index, attempt): &(usize, u32)| {
                    self.fault.maybe_panic(*index, *attempt);
                    if !self.throttle.is_zero() {
                        std::thread::sleep(self.throttle);
                    }
                    local.run(&job.cells()[*index])
                },
            );

            for ((index, attempt), result) in items.iter().copied().zip(results) {
                match result {
                    Ok(report) => {
                        journal
                            .append(&JournalEvent::CellCompleted {
                                index,
                                attempt,
                                digest: journal::report_digest(&report),
                                report: report.clone(),
                            })
                            .map_err(io("appending cell_completed"))?;
                        completed.insert(index, report);
                    }
                    Err(panic) => {
                        journal
                            .append(&JournalEvent::CellFailed {
                                index,
                                attempt,
                                error: panic.message.clone(),
                            })
                            .map_err(io("appending cell_failed"))?;
                        if attempt >= self.max_attempts {
                            journal
                                .append(&JournalEvent::CellQuarantined {
                                    index,
                                    attempts: attempt,
                                    error: panic.message.clone(),
                                })
                                .map_err(io("appending cell_quarantined"))?;
                            quarantined.insert(
                                index,
                                CellFailure { index, attempts: attempt, error: panic.message },
                            );
                        } else {
                            let delay = self.backoff.delay(attempt);
                            if !delay.is_zero() {
                                std::thread::sleep(delay);
                            }
                            // Retry at the *front*: a cell is settled
                            // (completed or quarantined) before the queue
                            // moves on, so the failure budget can stop a
                            // clearly-broken battery before burning through
                            // its tail.
                            pending.push_front((index, attempt + 1));
                        }
                    }
                }
            }
            // The wave boundary: everything above is now on stable storage.
            journal.commit().map_err(io("committing wave"))?;
            if let Some(cell) = kill_at {
                return Err(ServiceError::Killed { cell });
            }
        }

        // Whatever is still pending was skipped by the failure budget.
        let skipped: Vec<usize> = {
            let mut cells: Vec<usize> = pending.iter().map(|(i, _)| *i).collect();
            cells.sort_unstable();
            cells.dedup();
            cells
        };
        let outcome = finish(job, completed, quarantined, skipped, resumed);
        journal
            .append(&JournalEvent::JobFinished {
                completed: outcome.completed(),
                quarantined: outcome.failures.len(),
                digest: outcome.digest(),
            })
            .map_err(io("appending job_finished"))?;
        journal.commit().map_err(io("committing job_finished"))?;
        Ok(outcome)
    }

    /// Takes the next wave off the queue: up to `chunk` items, truncated at
    /// the first cell the fault plan kills before (that cell and everything
    /// after it stay pending — mirroring a SIGKILL, which also leaves them
    /// unjournaled). Returns `None` when the queue is empty or the failure
    /// budget is exhausted (remaining cells stay in `pending` as skipped).
    #[allow(clippy::type_complexity)]
    fn next_wave(
        &self,
        pending: &mut VecDeque<(usize, u32)>,
        failures: usize,
    ) -> Option<(Vec<(usize, u32)>, Option<usize>)> {
        if pending.is_empty() || failures > self.failure_budget {
            return None;
        }
        let mut items = Vec::with_capacity(self.chunk.min(pending.len()));
        let mut kill_at = None;
        while items.len() < self.chunk {
            let Some(&(index, _)) = pending.front() else { break };
            if self.fault.kills_before(index) {
                kill_at = Some(index);
                break;
            }
            items.push(pending.pop_front().expect("front checked above"));
        }
        Some((items, kill_at))
    }
}

/// Collects the cells a replayed journal leaves unsettled (used when the
/// journal was already finished: those cells were recorded as skipped).
fn collect_skipped(job: &Job, replayed: &Replay) -> Vec<usize> {
    (0..job.len())
        .filter(|i| !replayed.completed.contains_key(i) && !replayed.quarantined.contains_key(i))
        .collect()
}

/// Builds the outcome for a journal that was already closed.
fn assemble(job: &Job, replayed: &Replay, skipped: Vec<usize>, resumed: usize) -> JobOutcome {
    finish(
        job,
        replayed.completed.iter().map(|(i, (_, r))| (*i, r.clone())).collect(),
        replayed.quarantined.clone(),
        skipped,
        resumed,
    )
}

fn finish(
    job: &Job,
    completed: BTreeMap<usize, RunReport>,
    quarantined: BTreeMap<usize, CellFailure>,
    skipped: Vec<usize>,
    resumed: usize,
) -> JobOutcome {
    let mut completed = completed;
    let reports: Vec<Option<RunReport>> =
        (0..job.len()).map(|i| completed.remove(&i)).collect();
    let failures: Vec<CellFailure> = quarantined.into_values().collect();
    let status = if !skipped.is_empty() {
        JobStatus::Partial
    } else if failures.is_empty() {
        JobStatus::Complete
    } else {
        JobStatus::CompleteWithFailures
    };
    JobOutcome { job_id: job.id().to_owned(), reports, failures, skipped, resumed, status }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::INJECTED_FAULT_MARKER;
    use dynring_analysis::Scenario;
    use dynring_core::Algorithm;

    fn battery(cells: usize) -> Job {
        let cells: Vec<Scenario> = (0..cells)
            .map(|i| Scenario::fsync(6 + i, Algorithm::KnownBound { upper_bound: 6 + i }))
            .collect();
        Job::new("test-battery", cells)
    }

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir()
            .join(format!("dynring-supervisor-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn clean_run_completes_and_journal_short_circuits() {
        let job = battery(5);
        let path = temp_journal("clean");
        let sup = Supervisor::new().threads(2).chunk(2);
        let outcome = sup.run(&job, &path).unwrap();
        assert_eq!(outcome.status, JobStatus::Complete);
        assert_eq!(outcome.completed(), 5);
        assert_eq!(outcome.resumed, 0);
        // Re-running against the finished journal replays, never executes.
        let again = sup.run(&job, &path).unwrap();
        assert_eq!(again.resumed, 5);
        assert_eq!(again.render(&job), outcome.render(&job));
        assert_eq!(again.digest(), outcome.digest());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transient_panic_retries_and_completes() {
        let job = battery(4);
        let path = temp_journal("transient");
        let outcome = Supervisor::new()
            .threads(1)
            .fault_plan(FaultPlan::none().with_panic(2, 1))
            .run(&job, &path)
            .unwrap();
        assert_eq!(outcome.status, JobStatus::Complete);
        assert_eq!(outcome.completed(), 4);
        // The journal records the failed first attempt.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("cell_failed"), "{text}");
        assert!(text.contains(INJECTED_FAULT_MARKER));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn persistent_panic_quarantines_without_aborting() {
        let job = battery(4);
        let path = temp_journal("quarantine");
        let outcome = Supervisor::new()
            .threads(2)
            .max_attempts(3)
            .fault_plan(FaultPlan::none().with_persistent_panic(1, 3))
            .run(&job, &path)
            .unwrap();
        assert_eq!(outcome.status, JobStatus::CompleteWithFailures);
        assert_eq!(outcome.completed(), 3);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 1);
        assert_eq!(outcome.failures[0].attempts, 3);
        assert!(outcome.reports[1].is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failure_budget_degrades_to_partial() {
        let job = battery(6);
        let path = temp_journal("budget");
        let plan = FaultPlan::none()
            .with_persistent_panic(0, 2)
            .with_persistent_panic(1, 2);
        let outcome = Supervisor::new()
            .threads(1)
            .chunk(1)
            .max_attempts(2)
            .failure_budget(1)
            .fault_plan(plan)
            .run(&job, &path)
            .unwrap();
        assert_eq!(outcome.status, JobStatus::Partial);
        assert_eq!(outcome.failures.len(), 2);
        assert!(!outcome.skipped.is_empty(), "budget must skip the tail");
        let rendered = outcome.render(&job);
        assert!(rendered.contains("SKIPPED"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_and_resume_is_byte_identical_to_uninterrupted() {
        let job = battery(8);
        // Uninterrupted reference.
        let reference_path = temp_journal("kill-reference");
        let reference = Supervisor::new().threads(2).run(&job, &reference_path).unwrap();
        // Killed before cell 5, then resumed without the kill.
        let path = temp_journal("kill");
        let sup = Supervisor::new().threads(2).chunk(3);
        let killed = sup
            .clone()
            .fault_plan(FaultPlan::none().with_kill_before(5))
            .run(&job, &path)
            .unwrap_err();
        assert!(matches!(killed, ServiceError::Killed { cell: 5 }));
        let resumed = sup.run(&job, &path).unwrap();
        assert!(resumed.resumed > 0, "resume must reuse journaled cells");
        assert_eq!(resumed.render(&job), reference.render(&job));
        assert_eq!(resumed.digest(), reference.digest());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&reference_path).unwrap();
    }

    #[test]
    fn injected_journal_io_error_surfaces_and_resume_recovers() {
        let job = battery(4);
        let path = temp_journal("io");
        let sup = Supervisor::new().threads(1).chunk(1);
        let err = sup
            .clone()
            .fault_plan(FaultPlan::none().with_io_error(2))
            .run(&job, &path)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Io { .. }), "{err}");
        assert!(err.to_string().contains(INJECTED_FAULT_MARKER));
        // Resume without the fault finishes the job.
        let reference_path = temp_journal("io-reference");
        let reference = sup.run(&job, &reference_path).unwrap();
        let resumed = sup.run(&job, &path).unwrap();
        assert_eq!(resumed.render(&job), reference.render(&job));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&reference_path).unwrap();
    }

    #[test]
    fn resuming_against_the_wrong_job_is_refused() {
        let job = battery(3);
        let path = temp_journal("wrong");
        Supervisor::new().run(&job, &path).unwrap();
        let other = Job::new("other-battery", job.cells().to_vec());
        let err = Supervisor::new().run(&other, &path).unwrap_err();
        assert!(matches!(err, ServiceError::WrongJob { .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trailing_partial_line_is_dropped_on_resume() {
        let job = battery(4);
        let path = temp_journal("partial");
        let reference_path = temp_journal("partial-reference");
        let sup = Supervisor::new().threads(1).chunk(2);
        let reference = sup.run(&job, &reference_path).unwrap();
        // Kill mid-run, then simulate the crash-mid-write signature by
        // appending a truncated line.
        let err = sup
            .clone()
            .fault_plan(FaultPlan::none().with_kill_before(2))
            .run(&job, &path)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Killed { .. }));
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "{{\"event\":\"cell_comp").unwrap();
        drop(file);
        let resumed = sup.run(&job, &path).unwrap();
        assert_eq!(resumed.render(&job), reference.render(&job));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&reference_path).unwrap();
    }

    /// A battery where every cell shares one shape (ring 8, two agents, same
    /// budget and stop) while the placements vary, so consecutive cells of a
    /// wave recycle one runner.
    fn same_shape_battery(cells: usize) -> Job {
        let cells: Vec<Scenario> = (0..cells)
            .map(|i| {
                Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 })
                    .with_starts(vec![i % 8, (i + 3) % 8])
            })
            .collect();
        Job::new("same-shape-battery", cells)
    }

    #[test]
    fn panic_inside_a_wave_quarantines_only_the_offending_cell() {
        let job = same_shape_battery(6);
        let path = temp_journal("wave-quarantine");
        // All six cells fit one wave; cell 3 panics on every attempt. Only
        // cell 3 may quarantine: its five wave-mates, run after it on the
        // rebuilt runner, must come back with reports identical to running
        // them alone.
        let outcome = Supervisor::new()
            .threads(1)
            .max_attempts(2)
            .fault_plan(FaultPlan::none().with_persistent_panic(3, 2))
            .run(&job, &path)
            .unwrap();
        assert_eq!(outcome.status, JobStatus::CompleteWithFailures);
        assert_eq!(outcome.completed(), 5);
        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].index, 3);
        for (index, report) in outcome.reports.iter().enumerate() {
            if index == 3 {
                assert!(report.is_none());
            } else {
                assert_eq!(report.as_ref().unwrap(), &job.cells()[index].run(), "cell {index}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn batched_waves_resume_byte_identically_after_a_kill() {
        let job = same_shape_battery(9);
        let reference_path = temp_journal("batched-kill-reference");
        let reference = Supervisor::new().threads(2).run(&job, &reference_path).unwrap();
        let path = temp_journal("batched-kill");
        let sup = Supervisor::new().threads(2).chunk(4);
        let killed = sup
            .clone()
            .fault_plan(FaultPlan::none().with_kill_before(6))
            .run(&job, &path)
            .unwrap_err();
        assert!(matches!(killed, ServiceError::Killed { cell: 6 }));
        let resumed = sup.run(&job, &path).unwrap();
        assert!(resumed.resumed > 0, "resume must reuse journaled cells");
        assert_eq!(resumed.render(&job), reference.render(&job));
        assert_eq!(resumed.digest(), reference.digest());
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&reference_path).unwrap();
    }

    #[test]
    fn backoff_is_deterministic_and_capped() {
        let backoff =
            Backoff { base: Duration::from_millis(2), cap: Duration::from_millis(10) };
        assert_eq!(backoff.delay(1), Duration::from_millis(2));
        assert_eq!(backoff.delay(2), Duration::from_millis(4));
        assert_eq!(backoff.delay(3), Duration::from_millis(8));
        assert_eq!(backoff.delay(4), Duration::from_millis(10));
        assert_eq!(backoff.delay(63), Duration::from_millis(10));
        assert_eq!(Backoff::none().delay(5), Duration::ZERO);
    }
}
