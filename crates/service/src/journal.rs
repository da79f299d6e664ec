//! The append-only JSONL event store behind journaled job execution.
//!
//! One JSON object per line, in the order events happened:
//!
//! ```text
//! {"event":"job_started","job_id":"huge","fingerprint":…,"cells":432}
//! {"event":"cell_completed","index":0,"attempt":1,"digest":…,"report":{…}}
//! {"event":"cell_failed","index":3,"attempt":1,"error":"…"}
//! {"event":"cell_quarantined","index":3,"attempts":3,"error":"…"}
//! {"event":"job_resumed","pending":12}
//! {"event":"job_finished","completed":431,"quarantined":1,"digest":…}
//! ```
//!
//! Lines are flushed to the OS on every append and `fsync`'d in batches
//! (every `fsync_every` events and at every
//! [`Journal::commit`]), so a SIGKILL can lose at most the tail written
//! since the last sync — and a machine crash at most the tail since the
//! last fsync batch. A kill mid-write leaves a partial final line; replay
//! treats exactly that (an unparsable **last** line) as the expected crash
//! signature and drops it, while an unparsable line anywhere else is
//! reported as corruption.
//!
//! `cell_completed` carries the **full serialized `RunReport`**, not just a
//! digest: that is what lets resume assemble the final report without
//! re-running finished cells. The digest is still stored and re-checked on
//! replay, so a corrupted or hand-edited report body is caught before it is
//! trusted.

use crate::job::{CellFailure, Job};
use crate::{fnv1a, ServiceError};
use dynring_engine::sim::{RunReport, StopReason};
use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A job began executing against an empty journal.
    JobStarted {
        /// The job id.
        job_id: String,
        /// The job fingerprint (id + cell digests).
        fingerprint: u64,
        /// Number of cells in the battery.
        cells: usize,
    },
    /// A later process resumed the job from this journal.
    JobResumed {
        /// Cells still pending at resume time.
        pending: usize,
    },
    /// A cell ran to completion; `report` is its full serialized result.
    CellCompleted {
        /// The cell index.
        index: usize,
        /// Which attempt succeeded (1-based).
        attempt: u32,
        /// [`report_digest`] of `report`, re-checked on replay.
        digest: u64,
        /// The cell's result.
        report: RunReport,
    },
    /// An attempt at a cell panicked; it may be retried.
    CellFailed {
        /// The cell index.
        index: usize,
        /// Which attempt failed (1-based).
        attempt: u32,
        /// The panic message.
        error: String,
    },
    /// A cell exhausted its retry budget and was quarantined.
    CellQuarantined {
        /// The cell index.
        index: usize,
        /// Total attempts made.
        attempts: u32,
        /// The last panic message.
        error: String,
    },
    /// The job reached a terminal state; the journal is closed.
    JobFinished {
        /// Cells that completed successfully.
        completed: usize,
        /// Cells quarantined.
        quarantined: usize,
        /// The outcome digest ([`crate::JobOutcome::digest`]).
        digest: u64,
    },
}

/// Serializes a run report as a JSON object (field-for-field; integers stay
/// exact, so the round-trip is lossless).
#[must_use]
pub fn report_to_json(report: &RunReport) -> Value {
    let mut map = Map::new();
    map.insert("rounds".into(), Value::from(report.rounds));
    map.insert("ring_size".into(), Value::from(report.ring_size));
    map.insert("explored_at".into(), Value::from(report.explored_at));
    map.insert("visited_count".into(), Value::from(report.visited_count));
    map.insert(
        "termination_rounds".into(),
        Value::Array(report.termination_rounds.iter().map(|r| Value::from(*r)).collect()),
    );
    map.insert("all_terminated".into(), Value::from(report.all_terminated));
    map.insert(
        "moves_per_agent".into(),
        Value::Array(report.moves_per_agent.iter().map(|m| Value::from(*m)).collect()),
    );
    map.insert(
        "visited_per_agent".into(),
        Value::Array(report.visited_per_agent.iter().map(|v| Value::from(*v)).collect()),
    );
    map.insert("total_moves".into(), Value::from(report.total_moves));
    let stop = match report.stop_reason {
        StopReason::ConditionMet => "condition_met",
        StopReason::BudgetExhausted => "budget_exhausted",
        StopReason::Deadlocked => "deadlocked",
    };
    map.insert("stop_reason".into(), Value::from(stop));
    Value::Object(map)
}

fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    value.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?.as_u64().ok_or_else(|| format!("field {key:?} is not a u64"))
}

fn usize_field(value: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(u64_field(value, key)?).map_err(|_| format!("field {key:?} overflows usize"))
}

fn bool_field(value: &Value, key: &str) -> Result<bool, String> {
    field(value, key)?.as_bool().ok_or_else(|| format!("field {key:?} is not a bool"))
}

fn str_field<'v>(value: &'v Value, key: &str) -> Result<&'v str, String> {
    field(value, key)?.as_str().ok_or_else(|| format!("field {key:?} is not a string"))
}

fn array_field<'v>(value: &'v Value, key: &str) -> Result<&'v Vec<Value>, String> {
    field(value, key)?.as_array().ok_or_else(|| format!("field {key:?} is not an array"))
}

/// Deserializes a run report written by [`report_to_json`].
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn report_from_json(value: &Value) -> Result<RunReport, String> {
    let termination_rounds = array_field(value, "termination_rounds")?
        .iter()
        .map(|v| {
            if v.is_null() {
                Ok(None)
            } else {
                v.as_u64().map(Some).ok_or_else(|| "bad termination round".to_owned())
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    let moves_per_agent = array_field(value, "moves_per_agent")?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| "bad move count".to_owned()))
        .collect::<Result<Vec<_>, _>>()?;
    let visited_per_agent = array_field(value, "visited_per_agent")?
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| "bad visited count".to_owned())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let explored_at = match field(value, "explored_at")? {
        Value::Null => None,
        v => Some(v.as_u64().ok_or_else(|| "field \"explored_at\" is not a u64".to_owned())?),
    };
    let stop_reason = match str_field(value, "stop_reason")? {
        "condition_met" => StopReason::ConditionMet,
        "budget_exhausted" => StopReason::BudgetExhausted,
        "deadlocked" => StopReason::Deadlocked,
        other => return Err(format!("unknown stop_reason {other:?}")),
    };
    Ok(RunReport {
        rounds: u64_field(value, "rounds")?,
        ring_size: usize_field(value, "ring_size")?,
        explored_at,
        visited_count: usize_field(value, "visited_count")?,
        termination_rounds,
        all_terminated: bool_field(value, "all_terminated")?,
        moves_per_agent,
        visited_per_agent,
        total_moves: u64_field(value, "total_moves")?,
        stop_reason,
    })
}

/// The deterministic digest of a run report: FNV-1a over its canonical JSON
/// rendering. Byte-identical reports — and only those — share a digest, so
/// replayed journal entries can be checked against fresh runs.
#[must_use]
pub fn report_digest(report: &RunReport) -> u64 {
    fnv1a(report_to_json(report).to_string().as_bytes())
}

impl JournalEvent {
    /// The JSON object written to the journal (one line).
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        match self {
            JournalEvent::JobStarted { job_id, fingerprint, cells } => {
                map.insert("event".into(), Value::from("job_started"));
                map.insert("job_id".into(), Value::from(job_id.as_str()));
                map.insert("fingerprint".into(), Value::from(*fingerprint));
                map.insert("cells".into(), Value::from(*cells));
            }
            JournalEvent::JobResumed { pending } => {
                map.insert("event".into(), Value::from("job_resumed"));
                map.insert("pending".into(), Value::from(*pending));
            }
            JournalEvent::CellCompleted { index, attempt, digest, report } => {
                map.insert("event".into(), Value::from("cell_completed"));
                map.insert("index".into(), Value::from(*index));
                map.insert("attempt".into(), Value::from(*attempt));
                map.insert("digest".into(), Value::from(*digest));
                map.insert("report".into(), report_to_json(report));
            }
            JournalEvent::CellFailed { index, attempt, error } => {
                map.insert("event".into(), Value::from("cell_failed"));
                map.insert("index".into(), Value::from(*index));
                map.insert("attempt".into(), Value::from(*attempt));
                map.insert("error".into(), Value::from(error.as_str()));
            }
            JournalEvent::CellQuarantined { index, attempts, error } => {
                map.insert("event".into(), Value::from("cell_quarantined"));
                map.insert("index".into(), Value::from(*index));
                map.insert("attempts".into(), Value::from(*attempts));
                map.insert("error".into(), Value::from(error.as_str()));
            }
            JournalEvent::JobFinished { completed, quarantined, digest } => {
                map.insert("event".into(), Value::from("job_finished"));
                map.insert("completed".into(), Value::from(*completed));
                map.insert("quarantined".into(), Value::from(*quarantined));
                map.insert("digest".into(), Value::from(*digest));
            }
        }
        Value::Object(map)
    }

    /// Parses a journal line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let attempt_u32 = |value: &Value, key: &str| -> Result<u32, String> {
            u32::try_from(u64_field(value, key)?).map_err(|_| format!("field {key:?} overflows"))
        };
        match str_field(value, "event")? {
            "job_started" => Ok(JournalEvent::JobStarted {
                job_id: str_field(value, "job_id")?.to_owned(),
                fingerprint: u64_field(value, "fingerprint")?,
                cells: usize_field(value, "cells")?,
            }),
            "job_resumed" => {
                Ok(JournalEvent::JobResumed { pending: usize_field(value, "pending")? })
            }
            "cell_completed" => {
                let report = report_from_json(field(value, "report")?)?;
                let digest = u64_field(value, "digest")?;
                if report_digest(&report) != digest {
                    return Err(format!(
                        "cell {} report does not match its recorded digest",
                        usize_field(value, "index")?
                    ));
                }
                Ok(JournalEvent::CellCompleted {
                    index: usize_field(value, "index")?,
                    attempt: attempt_u32(value, "attempt")?,
                    digest,
                    report,
                })
            }
            "cell_failed" => Ok(JournalEvent::CellFailed {
                index: usize_field(value, "index")?,
                attempt: attempt_u32(value, "attempt")?,
                error: str_field(value, "error")?.to_owned(),
            }),
            "cell_quarantined" => Ok(JournalEvent::CellQuarantined {
                index: usize_field(value, "index")?,
                attempts: attempt_u32(value, "attempts")?,
                error: str_field(value, "error")?.to_owned(),
            }),
            "job_finished" => Ok(JournalEvent::JobFinished {
                completed: usize_field(value, "completed")?,
                quarantined: usize_field(value, "quarantined")?,
                digest: u64_field(value, "digest")?,
            }),
            other => Err(format!("unknown event {other:?}")),
        }
    }
}

/// Where journal lines go. The indirection exists so the fault-injection
/// harness can wrap the real file sink with one that fails on chosen
/// appends ([`crate::fault::FaultPlan::wrap_sink`]).
pub trait JournalSink: Send {
    /// Appends one line (without the trailing newline) durably enough to
    /// survive a process kill (i.e. hands it to the OS).
    ///
    /// # Errors
    ///
    /// Propagates I/O failure.
    fn append(&mut self, line: &str) -> std::io::Result<()>;

    /// Forces everything appended so far to stable storage (fsync).
    ///
    /// # Errors
    ///
    /// Propagates I/O failure.
    fn sync(&mut self) -> std::io::Result<()>;
}

/// The real sink: an append-mode file.
#[derive(Debug)]
pub struct FileSink {
    file: File,
}

impl FileSink {
    /// Opens (creating if needed) `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn open(path: &Path) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FileSink { file })
    }
}

impl JournalSink for FileSink {
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        // One write_all per line: after this returns, the line is in the OS
        // page cache and survives a SIGKILL of this process (fsync batches
        // additionally protect against machine crashes).
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// An in-memory sink for tests.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Everything appended so far (with newlines).
    pub contents: String,
    /// How many times `sync` was called.
    pub syncs: usize,
}

impl JournalSink for MemorySink {
    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.contents.push_str(line);
        self.contents.push('\n');
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.syncs += 1;
        Ok(())
    }
}

/// The append half of the store: writes events as JSONL, fsync'ing in
/// batches.
pub struct Journal {
    sink: Box<dyn JournalSink>,
    fsync_every: usize,
    appended_since_sync: usize,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("fsync_every", &self.fsync_every)
            .field("appended_since_sync", &self.appended_since_sync)
            .finish_non_exhaustive()
    }
}

impl Journal {
    /// Wraps a sink; `fsync_every` is the fsync batch size (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(sink: Box<dyn JournalSink>, fsync_every: usize) -> Self {
        Journal { sink, fsync_every: fsync_every.max(1), appended_since_sync: 0 }
    }

    /// Opens the journal file at `path` for appending.
    ///
    /// # Errors
    ///
    /// Propagates the open failure.
    pub fn open(path: &Path, fsync_every: usize) -> std::io::Result<Self> {
        Ok(Journal::new(Box::new(FileSink::open(path)?), fsync_every))
    }

    /// Appends one event; fsyncs when the batch is full.
    ///
    /// # Errors
    ///
    /// Propagates I/O failure (including injected faults). The journal's
    /// consistent prefix is untouched; the caller should abort the job and
    /// let a later resume re-run whatever was not journaled.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        self.sink.append(&event.to_json().to_string())?;
        self.appended_since_sync += 1;
        if self.appended_since_sync >= self.fsync_every {
            self.commit()?;
        }
        Ok(())
    }

    /// Flushes the current batch to stable storage (fsync), regardless of
    /// batch fill.
    ///
    /// # Errors
    ///
    /// Propagates I/O failure.
    pub fn commit(&mut self) -> std::io::Result<()> {
        if self.appended_since_sync > 0 {
            self.sink.sync()?;
            self.appended_since_sync = 0;
        }
        Ok(())
    }
}

/// What a journal on disk says about a job: the validated, replayable
/// state a resumed process starts from.
#[derive(Debug, Default)]
pub struct Replay {
    /// Completed cells: index → (report digest, report).
    pub completed: BTreeMap<usize, (u64, RunReport)>,
    /// Failed (but not quarantined) attempt counts per cell.
    pub attempts: BTreeMap<usize, u32>,
    /// Quarantined cells.
    pub quarantined: BTreeMap<usize, CellFailure>,
    /// Whether a `job_finished` event closed the journal.
    pub finished: bool,
    /// Whether a trailing partial line (the crash signature) was dropped.
    pub dropped_partial_tail: bool,
    /// Total events replayed.
    pub events: usize,
}

/// Loads and validates the journal at `path` against `job`.
///
/// The journal must start with a `job_started` event whose fingerprint
/// matches the job (otherwise resuming would silently mix batteries —
/// [`ServiceError::WrongJob`]). An unparsable **final** line is tolerated
/// and reported via [`Replay::dropped_partial_tail`]: it is exactly what a
/// kill mid-write leaves behind. Anything unparsable before the final line
/// is [`ServiceError::Corrupt`].
///
/// # Errors
///
/// [`ServiceError::Io`] on read failure, [`ServiceError::Corrupt`] /
/// [`ServiceError::WrongJob`] as described.
pub fn replay(path: &Path, job: &Job) -> Result<Replay, ServiceError> {
    let file = File::open(path).map_err(|source| ServiceError::Io {
        context: format!("opening journal {} for replay", path.display()),
        source,
    })?;
    let reader = BufReader::new(file);
    let mut lines: Vec<String> = Vec::new();
    for line in reader.lines() {
        let line = line.map_err(|source| ServiceError::Io {
            context: format!("reading journal {}", path.display()),
            source,
        })?;
        if !line.trim().is_empty() {
            lines.push(line);
        }
    }
    let mut replay = Replay::default();
    let last = lines.len().saturating_sub(1);
    for (number, line) in lines.iter().enumerate() {
        let parsed: Result<JournalEvent, String> = line
            .parse::<Value>()
            .map_err(|e| e.to_string())
            .and_then(|value| JournalEvent::from_json(&value));
        let event = match parsed {
            Ok(event) => event,
            Err(message) if number == last => {
                // The expected signature of a crash mid-write: drop the
                // partial tail and resume from the consistent prefix.
                replay.dropped_partial_tail = true;
                let _ = message;
                break;
            }
            Err(message) => {
                return Err(ServiceError::Corrupt { line: number + 1, message });
            }
        };
        if number == 0 {
            match &event {
                JournalEvent::JobStarted { fingerprint, cells, .. } => {
                    if *fingerprint != job.fingerprint() {
                        return Err(ServiceError::WrongJob {
                            expected: job.fingerprint(),
                            found: *fingerprint,
                        });
                    }
                    if *cells != job.len() {
                        return Err(ServiceError::Corrupt {
                            line: 1,
                            message: format!(
                                "journal says {cells} cells, job has {}",
                                job.len()
                            ),
                        });
                    }
                }
                _ => {
                    return Err(ServiceError::Corrupt {
                        line: 1,
                        message: "journal does not begin with job_started".into(),
                    });
                }
            }
        }
        replay.events += 1;
        if let JournalEvent::CellCompleted { index, .. }
        | JournalEvent::CellFailed { index, .. }
        | JournalEvent::CellQuarantined { index, .. } = &event
        {
            if *index >= job.len() {
                return Err(ServiceError::Corrupt {
                    line: number + 1,
                    message: format!("cell index {index} out of range"),
                });
            }
        }
        match event {
            JournalEvent::JobStarted { .. } | JournalEvent::JobResumed { .. } => {}
            JournalEvent::CellCompleted { index, digest, report, .. } => {
                if digest != crate::journal::report_digest(&report) {
                    return Err(ServiceError::Corrupt {
                        line: number + 1,
                        message: format!("cell {index} digest mismatch"),
                    });
                }
                replay.completed.insert(index, (digest, report));
            }
            JournalEvent::CellFailed { index, attempt, .. } => {
                let entry = replay.attempts.entry(index).or_insert(0);
                *entry = (*entry).max(attempt);
            }
            JournalEvent::CellQuarantined { index, attempts, error } => {
                replay.quarantined.insert(index, CellFailure { index, attempts, error });
            }
            JournalEvent::JobFinished { .. } => {
                replay.finished = true;
            }
        }
    }
    Ok(replay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynring_analysis::Scenario;
    use dynring_core::Algorithm;

    fn sample_report() -> RunReport {
        Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 }).run()
    }

    fn sample_events() -> Vec<JournalEvent> {
        let report = sample_report();
        vec![
            JournalEvent::JobStarted { job_id: "j".into(), fingerprint: 7, cells: 2 },
            JournalEvent::JobResumed { pending: 1 },
            JournalEvent::CellCompleted {
                index: 0,
                attempt: 2,
                digest: report_digest(&report),
                report,
            },
            JournalEvent::CellFailed { index: 1, attempt: 1, error: "panic \"quoted\"".into() },
            JournalEvent::CellQuarantined { index: 1, attempts: 3, error: "panic\nlines".into() },
            JournalEvent::JobFinished { completed: 1, quarantined: 1, digest: 99 },
        ]
    }

    #[test]
    fn every_event_roundtrips_through_json() {
        for event in sample_events() {
            let line = event.to_json().to_string();
            assert!(!line.contains('\n'), "journal lines must be single-line: {line}");
            let value: Value = line.parse().expect("journal line parses");
            let back = JournalEvent::from_json(&value).expect("journal event decodes");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn report_json_roundtrip_is_lossless() {
        let mut report = sample_report();
        report.termination_rounds.push(None);
        report.explored_at = None;
        let back = report_from_json(&report_to_json(&report)).unwrap();
        assert_eq!(back, report);
        assert_eq!(report_digest(&back), report_digest(&report));
    }

    #[test]
    fn report_digest_detects_tampering() {
        let report = sample_report();
        let mut tampered = report.clone();
        tampered.total_moves += 1;
        assert_ne!(report_digest(&report), report_digest(&tampered));
        // A completed event whose body was edited no longer decodes.
        let event = JournalEvent::CellCompleted {
            index: 0,
            attempt: 1,
            digest: report_digest(&report),
            report: tampered,
        };
        let err = JournalEvent::from_json(&event.to_json()).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn journal_batches_fsyncs() {
        let mut journal = Journal::new(Box::<MemorySink>::default(), 3);
        let events = sample_events();
        for event in &events[..5] {
            journal.append(event).unwrap();
        }
        journal.commit().unwrap();
        journal.commit().unwrap(); // idempotent on an empty batch
        // 5 appends with a batch of 3: one automatic sync + one commit.
        let debug = format!("{journal:?}");
        assert!(debug.contains("fsync_every: 3"), "{debug}");
    }

    #[test]
    fn replay_rejects_every_cell_event_outside_the_job() {
        let cell = Scenario::fsync(8, Algorithm::KnownBound { upper_bound: 8 });
        let job = Job::new("range", vec![cell]);
        let report = sample_report();
        let started = JournalEvent::JobStarted {
            job_id: "range".into(),
            fingerprint: job.fingerprint(),
            cells: 1,
        };
        let out_of_range = [
            JournalEvent::CellCompleted {
                index: 1,
                attempt: 1,
                digest: report_digest(&report),
                report,
            },
            JournalEvent::CellFailed { index: 1, attempt: 1, error: "boom".into() },
            JournalEvent::CellQuarantined { index: 1, attempts: 3, error: "boom".into() },
        ];
        let path = std::env::temp_dir()
            .join(format!("dynring-journal-range-{}.jsonl", std::process::id()));
        for event in out_of_range {
            let text = format!("{}\n{}\n", started.to_json(), event.to_json());
            std::fs::write(&path, text).unwrap();
            match replay(&path, &job) {
                Err(ServiceError::Corrupt { line: 2, message }) => {
                    assert!(message.contains("out of range"), "{message}");
                }
                other => panic!("{event:?} must be rejected as corrupt, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_events_are_rejected() {
        for bad in [
            "{\"event\":\"nope\"}",
            "{\"event\":\"cell_failed\",\"index\":0}",
            "{\"no_event\":1}",
            "{\"event\":\"cell_completed\",\"index\":0,\"attempt\":1,\"digest\":1,\"report\":{}}",
        ] {
            let value: Value = bad.parse().unwrap();
            assert!(JournalEvent::from_json(&value).is_err(), "{bad} must not decode");
        }
    }
}
