//! End-to-end benchmark of the dynamic-ring reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload reproduce-huge --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root: it reads the metric list from
//! `BENCHMARK.json` there and writes its run records under `e2ebench/out/`.
//! The last line of standard output is the JSON result; everything else
//! (progress, host context, failed checks) goes to standard error. See
//! `e2ebench/README.md` for the workloads and the metric → layer map.

mod cells;
mod exhaustive;
mod probes;
mod reproduce;
mod service;
mod trace;

use serde_json::{Map, Value};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::{median, timed, Timed, Tracer};

/// How many times set-up runs per process; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Where run records and scratch journals go, relative to the repository root.
const OUT_DIR: &str = "e2ebench/out";

/// Deterministic work counters of one iteration, by metric name.
pub type Counters = BTreeMap<String, u64>;

/// Per-layer metric values of a traced run, by metric name.
pub type Metrics = BTreeMap<String, f64>;

/// Attempts and failures of the output checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one attempt; a false `ok` is a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let problem = what();
            eprintln!("e2ebench: check failed: {problem}");
            self.problems.push(problem);
        }
    }
}

/// One workload: its set-up is its constructor, and the timed part is
/// [`Workload::iterate`], repeated for the run's `--seconds`.
pub trait Workload {
    /// Worker threads the timed part uses.
    fn threads(&self) -> usize;

    /// One timed pass: the calls into the library, with spans around each
    /// layer call, plus the cheap per-row output checks.
    fn iterate(&mut self, tracer: &mut Tracer, tally: &mut Tally) -> Counters;

    /// Output checks that need a second computation (run once, untimed).
    fn verify(&mut self, tally: &mut Tally);

    /// The workload's per-layer metrics of a traced run. `spans` holds the
    /// spans of the iteration `traced`; the engine and checkpoint
    /// probes have already filled their metrics.
    fn layers(
        &mut self,
        spans: &Tracer,
        traced: &Timed<Counters>,
        tally: &mut Tally,
        metrics: &mut Metrics,
    );
}

/// The names, units and workloads declared in `BENCHMARK.json`.
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Spec {
    fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json: Value = text
            .parse()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str| -> Result<&Vec<Value>, String> {
            json.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{} has no array {key:?}", path.display()))
        };
        let field = |item: &Value, key: &str| -> Result<String, String> {
            item.get(key)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("an entry of {} has no string {key:?}", path.display()))
        };
        let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
            list(key)?
                .iter()
                .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| field(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds the named workload: this is the set-up that `setup_s` times.
fn setup(name: &str, seed: u64, work: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "reproduce-huge" => Box::new(reproduce::Reproduce::setup()),
        "exhaustive-n9" => Box::new(exhaustive::Exhaustive::setup()),
        "service-journal" => Box::new(service::ServiceJournal::setup(seed, work)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

/// Runs `f`, turning a panic inside the library into a counted failure.
fn guarded<T>(tally: &mut Tally, what: &str, f: impl FnOnce(&mut Tally) -> T) -> Option<T> {
    match panic::catch_unwind(AssertUnwindSafe(|| f(&mut *tally))) {
        Ok(value) => Some(value),
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            tally.check(false, || format!("{what} panicked: {message}"));
            None
        }
    }
}

/// Host context recorded with each run, so that a contended host can be
/// told apart from a regression.
fn host_context(threads: usize, load_at_start: Option<[f64; 3]>) -> Value {
    let mut host = Map::new();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    host.insert("nproc".into(), Value::from(nproc));
    host.insert("threads".into(), Value::from(threads));
    host.insert(
        "loadavg_at_start".into(),
        load_at_start.map_or(Value::Null, |l| samples(&l)),
    );
    host.insert("git_revision".into(), Value::from(git_revision()));
    host.insert(
        "source_digest".into(),
        Value::from(format!("{:#018x}", source_digest())),
    );
    host.insert(
        "build_profile".into(),
        Value::from(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    let knobs: Map<String, Value> = std::env::vars()
        .filter(|(k, _)| k.starts_with("DYNRING_"))
        .map(|(k, v)| (k, Value::from(v)))
        .collect();
    host.insert("env".into(), Value::from(knobs));
    Value::from(host)
}

/// The commit checked out at the repository root, if it is a git checkout
/// (read from `.git` directly, without running git).
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|line| line.strip_suffix(reference).map(|id| id.trim().to_owned()))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// FNV-1a over the library sources and manifests, in path order: identifies
/// the code under test even where the checkout carries no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("vendor"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&file).unwrap_or_default());
    }
    dynring_service::fnv1a(&bytes)
}

fn metric_object(names: &[(String, String)], values: &Metrics) -> Result<Value, String> {
    let mut out = Map::new();
    for (name, unit) in names {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        let mut entry = Map::new();
        entry.insert("value".into(), Value::from(value));
        entry.insert("unit".into(), Value::from(unit.as_str()));
        out.insert(name.clone(), Value::from(entry));
    }
    if let Some(extra) = values.keys().find(|k| !names.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    Ok(Value::from(out))
}

fn counters_value(counters: &Counters) -> Value {
    Value::from(
        counters
            .iter()
            .map(|(k, &v)| (k.clone(), Value::from(v)))
            .collect::<Map<_, _>>(),
    )
}

fn samples(values: &[f64]) -> Value {
    Value::from(values.iter().map(|&v| Value::from(v)).collect::<Vec<_>>())
}

fn run(args: &Args, spec: &Spec) -> Result<(Value, Value), String> {
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "workload {:?} is not declared in BENCHMARK.json",
            args.workload
        ));
    }
    let work = Path::new(OUT_DIR).join(format!("work-{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = measure(args, spec, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure(args: &Args, spec: &Spec, work: &Path) -> Result<(Value, Value), String> {
    let load_at_start = trace::load_average();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(setup(&args.workload, args.seed, work)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPS is positive");
    let host = host_context(workload.threads(), load_at_start);
    eprintln!("e2ebench: host {host}");

    let mut tally = Tally::default();
    let mut record = Map::new();
    record.insert("workload".into(), Value::from(args.workload.as_str()));
    record.insert("seed".into(), Value::from(args.seed));
    record.insert("trace".into(), Value::from(args.trace));
    record.insert("host".into(), host);
    record.insert("setup_s".into(), samples(&setup_s));

    let metrics_value = if args.trace {
        let mut off = Tracer::new(false);
        let untraced = guarded(&mut tally, "untraced iteration", |t| {
            timed(|| workload.iterate(&mut off, t))
        });
        let mut tracer = Tracer::new(true);
        let traced = guarded(&mut tally, "traced iteration", |t| {
            timed(|| workload.iterate(&mut tracer, t))
        });
        let mut metrics: Metrics = spec
            .per_layer
            .iter()
            .map(|(n, _)| (n.clone(), 0.0))
            .collect();
        if let (Some(untraced), Some(traced)) = (untraced, traced) {
            tally.check(untraced.value == traced.value, || {
                "counters differ between the untraced and the traced iteration".into()
            });
            for (name, &value) in &traced.value {
                if metrics.contains_key(name) {
                    metrics.insert(name.clone(), value as f64);
                }
            }
            metrics.insert("trace.wall_s".into(), traced.wall_s);
            metrics.insert("trace.overhead_s".into(), traced.wall_s - untraced.wall_s);
            record.insert("counters".into(), counters_value(&traced.value));
            guarded(&mut tally, "engine probe", |t| {
                probes::engine(args.seed, t, &mut metrics)
            });
            guarded(&mut tally, "checkpoint probe", |t| {
                probes::checkpoint(t, &mut metrics)
            });
            guarded(&mut tally, "layer measurements", |t| {
                workload.layers(&tracer, &traced, t, &mut metrics);
            });
        }
        guarded(&mut tally, "output verification", |t| workload.verify(t));
        record.insert(
            "spans".into(),
            Value::from(
                tracer
                    .spans()
                    .iter()
                    .map(|s| {
                        let mut span = Map::new();
                        span.insert("name".into(), Value::from(s.name.as_str()));
                        span.insert("start_ns".into(), Value::from(s.start_ns));
                        span.insert("end_ns".into(), Value::from(s.end_ns));
                        span.insert("parent".into(), Value::from(s.parent));
                        Value::from(span)
                    })
                    .collect::<Vec<_>>(),
            ),
        );
        metric_object(&spec.per_layer, &metrics)?
    } else {
        let mut off = Tracer::new(false);
        let (mut walls, mut cpus) = (Vec::new(), Vec::new());
        let mut first: Option<Counters> = None;
        let start = Instant::now();
        while let Some(pass) = guarded(&mut tally, "timed iteration", |t| {
            timed(|| workload.iterate(&mut off, t))
        }) {
            walls.push(pass.wall_s);
            cpus.push(pass.cpu_s);
            match &first {
                None => first = Some(pass.value),
                Some(c) => tally.check(*c == pass.value, || {
                    format!(
                        "counters of iteration {} differ from the first",
                        walls.len()
                    )
                }),
            }
            // Start another iteration only if it should end within the budget.
            if start.elapsed().as_secs_f64() + median(&walls) > args.seconds {
                break;
            }
        }
        if walls.is_empty() {
            return Err(format!(
                "no iteration completed: {}",
                tally.problems.join("; ")
            ));
        }
        let peak_rss_mib = trace::peak_rss_mib();
        guarded(&mut tally, "output verification", |t| workload.verify(t));
        record.insert("wall_s".into(), samples(&walls));
        record.insert("cpu_s".into(), samples(&cpus));
        record.insert(
            "counters".into(),
            first.as_ref().map_or(Value::Null, counters_value),
        );
        let metrics: Metrics = [
            ("wall_s", median(&walls)),
            ("setup_s", median(&setup_s)),
            ("cpu_s", median(&cpus)),
            ("peak_rss_mib", peak_rss_mib),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
        metric_object(&spec.end_to_end, &metrics)?
    };

    record.insert(
        "problems".into(),
        Value::from(
            tally
                .problems
                .iter()
                .map(|p| Value::from(p.as_str()))
                .collect::<Vec<_>>(),
        ),
    );
    record.insert("metrics".into(), metrics_value.clone());
    let mut result = Map::new();
    result.insert(
        "correct".into(),
        Value::from(tally.failed == 0 && tally.attempted > 0),
    );
    result.insert("attempted".into(), Value::from(tally.attempted.max(1)));
    result.insert("failed".into(), Value::from(tally.failed));
    result.insert("metrics".into(), metrics_value);
    Ok((Value::from(result), Value::from(record)))
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let spec = Spec::load(Path::new("BENCHMARK.json"))?;
        let (result, record) = run(&args, &spec)?;
        let path = Path::new(OUT_DIR).join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        std::fs::write(&path, format!("{record}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("e2ebench: run record written to {}", path.display());
        Ok(result)
    });
    match outcome {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("e2ebench: {message}");
            ExitCode::from(2)
        }
    }
}
