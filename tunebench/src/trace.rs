//! In-memory spans recorded from the benchmark's own code, around
//! calls into the library's public functions.
//!
//! A span is a name, a start and end on one process-wide clock, the
//! span that caused it, and the thread that ran it. Spans stay in
//! memory until the run ends; nothing is recorded unless the run is
//! traced, and the untraced path never touches the recorder. Spans too
//! frequent to keep one by one (a request takes microseconds on some
//! workloads) are tallied instead: a count and a total per parent and
//! name.

use pb_config::{Config, Schema};
use pb_runtime::{TraceNode, TrialOutcome, TrialRunner};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The causing span's id; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static TALLIES: Mutex<BTreeMap<(u64, &'static str), Tally>> = Mutex::new(BTreeMap::new());

/// Tallied spans of one name under one parent.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub count: u64,
    pub total_ns: u64,
}

/// Tallies by `(parent, name)`.
pub type Tallies = BTreeMap<(u64, &'static str), Tally>;

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Fixes the clock's zero; call first thing in `main`.
pub fn start_clock() {
    EPOCH.get_or_init(Instant::now);
}

/// Nanoseconds since [`start_clock`].
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; closing it records it.
#[must_use]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Closes the span, recording it.
    pub fn close(self) {
        let end_ns = now_ns();
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            thread: THREAD.with(|t| *t),
        };
        SPANS.lock().expect("span recorder poisoned").push(span);
    }

    /// Closes the span into its parent's tally for its name. Tallied
    /// spans must run one after another on their parent's thread, so
    /// that their total is the part of the parent they cover.
    pub fn tally(self) {
        let dur = now_ns() - self.start_ns;
        let mut tallies = TALLIES.lock().expect("span tallies poisoned");
        let tally = tallies.entry((self.parent, self.name)).or_default();
        tally.count += 1;
        tally.total_ns += dur;
    }
}

/// Opens a span under `parent` (0 for a root).
pub fn open(name: &'static str, parent: u64) -> Open {
    Open {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        start_ns: now_ns(),
    }
}

/// Every span recorded so far, by start time, and every tally.
pub fn take() -> (Vec<Span>, Tallies) {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    let tallies = std::mem::take(&mut *TALLIES.lock().expect("span tallies poisoned"));
    (spans, tallies)
}

/// Length of the union of `intervals`, in nanoseconds.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    covered + current.map_or(0, |(s, e)| e - s)
}

/// Self time per span id: its duration minus the part of it that its
/// children cover (children that overlap, such as trials running on
/// several pool threads at once, count once; tallied children cover
/// their total).
pub fn self_times(spans: &[Span], tallies: &Tallies) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut tallied: HashMap<u64, u64> = HashMap::new();
    for (&(parent, _), tally) in tallies {
        *tallied.entry(parent).or_default() += tally.total_ns;
    }
    spans
        .iter()
        .map(|s| {
            let recorded = children.get(&s.id).map_or(0, |c| {
                union_ns(
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|&(a, b)| a < b)
                        .collect(),
                )
            });
            let covered = recorded + tallied.get(&s.id).copied().unwrap_or(0);
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Wall time per layer (span name): the self times of its spans that
/// have children, the time at least one of its childless spans is open
/// (so trials running on several pool threads at once count once), and
/// its tallies. Together the layers cover what the spans cover.
pub fn layer_times(
    spans: &[Span],
    tallies: &Tallies,
    selfs: &HashMap<u64, u64>,
) -> BTreeMap<&'static str, u64> {
    let parents: HashSet<u64> = spans
        .iter()
        .map(|s| s.parent)
        .chain(tallies.keys().map(|&(parent, _)| parent))
        .collect();
    let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut leaves: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if parents.contains(&s.id) {
            *layers.entry(s.name).or_default() += selfs[&s.id];
        } else {
            leaves
                .entry(s.name)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    for (name, intervals) in leaves {
        *layers.entry(name).or_default() += union_ns(intervals);
    }
    for (&(_, name), tally) in tallies {
        *layers.entry(name).or_default() += tally.total_ns;
    }
    layers
}

/// The spans and tallies as JSON lines (one object each).
pub fn to_jsonl(spans: &[Span], tallies: &Tallies) -> String {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.thread
        );
    }
    for (&(parent, name), t) in tallies {
        let _ = writeln!(
            out,
            "{{\"parent\":{parent},\"name\":\"{name}\",\"count\":{},\"total_ns\":{}}}",
            t.count, t.total_ns
        );
    }
    out
}

/// What one executed trial reported, for the cost-model check.
#[derive(Debug, Clone, Copy)]
pub struct TrialRecord {
    pub n: u64,
    pub virtual_cost: f64,
    pub wall_seconds: f64,
}

/// A [`TrialRunner`] decorator that records a span around every trial
/// the tuner executes, plus the trial's reported costs. Everything
/// else forwards, so the tuner makes the same decisions through it.
pub struct TracingRunner<'a> {
    inner: &'a dyn TrialRunner,
    parent: u64,
    records: Mutex<Vec<TrialRecord>>,
}

impl<'a> TracingRunner<'a> {
    pub fn new(inner: &'a dyn TrialRunner, parent: u64) -> Self {
        TracingRunner {
            inner,
            parent,
            records: Mutex::new(Vec::new()),
        }
    }

    pub fn into_records(self) -> Vec<TrialRecord> {
        self.records.into_inner().expect("trial records poisoned")
    }

    fn record(&self, n: u64, outcome: &TrialOutcome) {
        self.records
            .lock()
            .expect("trial records poisoned")
            .push(TrialRecord {
                n,
                virtual_cost: outcome.virtual_cost,
                wall_seconds: outcome.wall_seconds,
            });
    }
}

impl TrialRunner for TracingRunner<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn deterministic(&self) -> bool {
        self.inner.deterministic()
    }

    fn run_trial(&self, config: &Config, n: u64, seed: u64) -> TrialOutcome {
        let span = open("trial", self.parent);
        let outcome = self.inner.run_trial(config, n, seed);
        span.close();
        self.record(n, &outcome);
        outcome
    }

    fn run_traced(&self, config: &Config, n: u64, seed: u64) -> (TrialOutcome, TraceNode) {
        let span = open("trial", self.parent);
        let result = self.inner.run_traced(config, n, seed);
        span.close();
        self.record(n, &result.0);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    #[test]
    fn overlapping_children_count_once() {
        // A tune span 0..100 with trials 10..40 and 30..60 (overlapping,
        // as on two pool threads) and 90..120 (clipped to the parent),
        // then a serve span 100..150 with 30 ns of tallied requests.
        let spans = [
            span(1, 0, "tune", 0, 100),
            span(2, 1, "trial", 10, 40),
            span(3, 1, "trial", 30, 60),
            span(4, 1, "trial", 90, 120),
            span(5, 0, "serve", 100, 150),
        ];
        let tallies = Tallies::from([(
            (5, "request"),
            Tally {
                count: 3,
                total_ns: 30,
            },
        )]);
        let selfs = self_times(&spans, &tallies);
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&5], 20);
        let layers = layer_times(&spans, &tallies, &selfs);
        assert_eq!(layers["tune"], 40);
        assert_eq!(layers["trial"], 80);
        assert_eq!(layers["serve"], 20);
        assert_eq!(layers["request"], 30);
    }
}
