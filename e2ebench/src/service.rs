//! `service-journal`: a seeded job of small FSYNC/SSYNC cells run by the
//! supervisor into a fresh journal on local disk, then resumed from the
//! finished journal.

use crate::cells::{self, Rng};
use crate::trace::{timed, Timed, Tracer};
use crate::{Counters, Metrics, Tally, Workload};
use dynring_analysis::{BatchRunner, Scenario};
use dynring_engine::RunReport;
use dynring_service::journal::{self, FileSink, JournalEvent};
use dynring_service::{Job, JobOutcome, JobStatus, Journal, Supervisor};
use std::path::{Path, PathBuf};
use std::time::Instant;

const THREADS: usize = 2;
/// Cells of the generated job.
const JOB_CELLS: usize = 20_000;
/// Cells of the set-up's warm-up job.
const WARMUP_CELLS: usize = 512;
/// Ring sizes of the small cells.
const FSYNC_SIZES: std::ops::RangeInclusive<usize> = 6..=12;
const SSYNC_SIZES: [usize; 2] = [6, 8];
/// Cells per block: consecutive cells of one algorithm on one ring.
const BLOCK_LEN: std::ops::RangeInclusive<usize> = 8..=24;
/// The supervisor's default fsync cadence, which the journal probe follows.
const FSYNC_EVERY: usize = 8;

/// The job's cells: the seed picks each block's ring size, algorithm and
/// length, and each cell's adversary seed, placement and orientation.
///
/// FSYNC blocks leave out `LandmarkNoChirality`: its cells run 6 000 to
/// 18 000 rounds at these sizes, several hundred times the others, and a
/// few of them would turn the job from a journal workload into an engine
/// one (`reproduce-huge` already runs it at scale).
fn job_cells(seed: u64, count: usize) -> Vec<Scenario> {
    let mut rng = Rng::new(seed);
    let mut cells = Vec::with_capacity(count);
    while cells.len() < count {
        let len = BLOCK_LEN.start() + rng.below(BLOCK_LEN.end() - BLOCK_LEN.start() + 1);
        let (n, algorithm) = if rng.below(4) < 3 {
            let sizes: Vec<usize> = FSYNC_SIZES.collect();
            let n = *rng.pick(&sizes);
            (n, *rng.pick(&cells::table2_algorithms(n)[..2]))
        } else {
            let n = *rng.pick(&SSYNC_SIZES);
            (n, *rng.pick(&cells::table4_algorithms(n)))
        };
        cells.extend(cells::block(&mut rng, n, algorithm, len));
    }
    cells.truncate(count);
    cells
}

pub struct ServiceJournal {
    job: Job,
    journal: PathBuf,
    supervisor: Supervisor,
    /// The fresh run's outcome of the latest iteration.
    last: Option<JobOutcome>,
    /// `BatchRunner::run_reports` over the job's cells, once computed.
    reference: Option<Vec<RunReport>>,
}

fn remove(path: &Path) {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            panic!("cannot remove {}: {e}", path.display())
        }
        _ => {}
    }
}

impl ServiceJournal {
    pub fn setup(seed: u64, work: &Path) -> Result<Self, String> {
        let cells = job_cells(seed, JOB_CELLS);
        let job = Job::new(format!("e2ebench-service-journal-seed{seed}"), cells);
        let supervisor = Supervisor::new().threads(THREADS);
        let warmup = Job::new("e2ebench-warmup", job.cells()[..WARMUP_CELLS].to_vec());
        let warmup_path = work.join("warmup.jsonl");
        remove(&warmup_path);
        supervisor
            .run(&warmup, &warmup_path)
            .map_err(|e| format!("warm-up job: {e}"))?;
        remove(&warmup_path);
        Ok(ServiceJournal {
            job,
            journal: work.join("journal.jsonl"),
            supervisor,
            last: None,
            reference: None,
        })
    }

    fn reference(&mut self) -> &[RunReport] {
        let cells = self.job.cells();
        self.reference
            .get_or_insert_with(|| BatchRunner::new(THREADS).run_reports(cells))
    }
}

impl Workload for ServiceJournal {
    fn threads(&self) -> usize {
        THREADS
    }

    fn iterate(&mut self, t: &mut Tracer, tally: &mut Tally) -> Counters {
        // Free the previous outcome first, so the peak does not depend on
        // how many iterations ran.
        self.last = None;
        remove(&self.journal);
        let (job, path, supervisor) = (&self.job, &self.journal, &self.supervisor);
        let fresh = t.span("supervisor.run", |_| supervisor.run(job, path));
        let resumed = t.span("supervisor.resume", |_| supervisor.run(job, path));
        let (fresh, resumed) = match (fresh, resumed) {
            (Ok(fresh), Ok(resumed)) => (fresh, resumed),
            (fresh, resumed) => {
                tally.check(false, || {
                    format!(
                        "job failed: run {:?}, resume {:?}",
                        fresh.err(),
                        resumed.err()
                    )
                });
                return Counters::new();
            }
        };
        for (index, report) in fresh.reports.iter().enumerate() {
            tally.check(report.is_some(), || {
                format!("job cell {index} did not complete")
            });
        }
        tally.check(fresh.status == JobStatus::Complete, || {
            format!("job ended {}", fresh.status.label())
        });
        tally.check(resumed.resumed == job.len(), || {
            format!("resume re-used {} of {} cells", resumed.resumed, job.len())
        });
        tally.check(resumed.render(job) == fresh.render(job), || {
            "the resumed report renders differently from the fresh one".into()
        });
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        let mut counters = Counters::new();
        counters.insert("supervisor.cells".into(), job.len() as u64);
        counters.insert("supervisor.quarantined".into(), fresh.failures.len() as u64);
        counters.insert("journal.bytes".into(), bytes);
        // Equal across iterations by the counter check, and equal to the
        // reference digest by `verify`.
        counters.insert("supervisor.outcome_digest".into(), fresh.digest());
        self.last = Some(fresh);
        counters
    }

    fn verify(&mut self, tally: &mut Tally) {
        let Some(fresh) = self.last.take() else {
            return;
        };
        let reference = self.reference();
        let expected = JobOutcome {
            job_id: fresh.job_id.clone(),
            reports: reference.iter().cloned().map(Some).collect(),
            failures: Vec::new(),
            skipped: Vec::new(),
            resumed: 0,
            status: JobStatus::Complete,
        };
        tally.check(fresh.digest() == expected.digest(), || {
            let differing = fresh
                .reports
                .iter()
                .zip(&expected.reports)
                .filter(|(a, b)| a != b);
            format!(
                "job outcome digest differs from BatchRunner::run_reports ({} cells differ)",
                differing.count()
            )
        });
        self.last = Some(fresh);
    }

    fn layers(
        &mut self,
        spans: &Tracer,
        _: &Timed<Counters>,
        tally: &mut Tally,
        metrics: &mut Metrics,
    ) {
        let cells = self.job.cells();
        let one = timed(|| BatchRunner::new(1).run_reports(cells));
        let two = timed(|| BatchRunner::new(THREADS).run_reports(cells));
        tally.check(one.value == two.value, || {
            "run_reports differs between 1 and 2 threads".into()
        });
        self.reference = Some(two.value);
        let run_s = spans.total_seconds("supervisor.run");
        metrics.insert("supervisor.exec_s".into(), two.wall_s);
        metrics.insert("supervisor.overhead_s".into(), run_s - two.wall_s);
        metrics.insert("batch.speedup_2t".into(), one.wall_s / two.wall_s);
        metrics.insert("batch.cpu_over_wall".into(), two.cpu_s / two.wall_s);
        metrics.insert("resume_s".into(), spans.total_seconds("supervisor.resume"));

        // The finished journal of the traced iteration, read back.
        match timed(|| journal::replay(&self.journal, &self.job)) {
            Timed {
                value: Ok(replay),
                wall_s,
                ..
            } => {
                metrics.insert("journal.replay_s".into(), wall_s);
                metrics.insert("journal.events".into(), replay.events as f64);
                let retried: u32 = replay.attempts.values().sum();
                metrics.insert("supervisor.retried".into(), f64::from(retried));
            }
            Timed { value: Err(e), .. } => tally.check(false, || format!("journal replay: {e}")),
        }

        // The job's events through `Journal::append`/`commit` at the
        // supervisor's fsync cadence, into a second journal file.
        let probe_path = self.journal.with_file_name("probe.jsonl");
        remove(&probe_path);
        let reference = self.reference.as_deref().expect("set above");
        let sink = FileSink::open(&probe_path).expect("the work directory is writable");
        let mut journal = Journal::new(Box::new(sink), usize::MAX);
        let mut events = vec![JournalEvent::JobStarted {
            job_id: self.job.id().to_owned(),
            fingerprint: self.job.fingerprint(),
            cells: self.job.len(),
        }];
        events.extend(reference.iter().enumerate().map(|(index, report)| {
            JournalEvent::CellCompleted {
                index,
                attempt: 1,
                digest: journal::report_digest(report),
                report: report.clone(),
            }
        }));
        let (mut append_s, mut commit_s, mut commits) = (0.0, 0.0, 0u64);
        let mut ok = true;
        for (i, event) in events.iter().enumerate() {
            let start = Instant::now();
            ok &= journal.append(event).is_ok();
            append_s += start.elapsed().as_secs_f64();
            if (i + 1) % FSYNC_EVERY == 0 || i + 1 == events.len() {
                let start = Instant::now();
                ok &= journal.commit().is_ok();
                commit_s += start.elapsed().as_secs_f64();
                commits += 1;
            }
        }
        drop(journal);
        remove(&probe_path);
        tally.check(ok, || "the journal probe hit an I/O error".into());
        metrics.insert(
            "journal.append_ns".into(),
            append_s * 1e9 / events.len() as f64,
        );
        metrics.insert("journal.commit_ns".into(), commit_s * 1e9 / commits as f64);
        metrics.insert("journal.commits".into(), commits as f64);
    }
}
