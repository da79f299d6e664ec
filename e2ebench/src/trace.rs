//! Spans recorded from outside the library, and the process clocks.
//!
//! A span is put around one call into a layer's public function. Spans are
//! kept in memory and written out when the run ends; a layer's self time is
//! its spans' durations minus the part their child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: offsets in nanoseconds from the tracer's origin.
#[derive(Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. When off, [`Tracer::span`] only calls its
/// closure, so the untraced runs pay nothing for the instrumentation.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// durations of its direct children (children run inside their parent
    /// and never overlap one another, so their sum is the covered part).
    pub fn self_seconds(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *out.entry(span.name.clone()).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }
}

/// `struct timeval` of the C library on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of the C library on 64-bit Linux: two `timeval`s and
/// fourteen `long`s, the first of which is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn getloadavg(loadavg: *mut f64, nelem: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C layout
    // of this platform, which is all `getrusage` writes to.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        status, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    usage
}

/// User plus system CPU time of the whole process so far, in seconds
/// (worker threads included once they have been joined or while running).
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    secs(&u.ru_utime) + secs(&u.ru_stime)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

/// The 1, 5 and 15 minute load averages, or `None` if unavailable.
pub fn load_average() -> Option<[f64; 3]> {
    let mut loads = [0.0f64; 3];
    // SAFETY: `loads` holds exactly the three doubles requested.
    let got = unsafe { getloadavg(loads.as_mut_ptr(), 3) };
    (got == 3).then_some(loads)
}

/// Wall and CPU time of one closure call.
pub struct Timed<T> {
    pub value: T,
    pub wall_s: f64,
    pub cpu_s: f64,
}

pub fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    let wall_s = t0.elapsed().as_secs_f64();
    Timed {
        value,
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}
