//! The serve phase: a closed loop with one client sending requests to
//! the tuned program through `guarantee::run_verified`.

use crate::stats::{self, geomean, median};
use crate::trace;
use crate::workloads::{self, mix, Ready, Reference};
use pb_runtime::guarantee::run_verified;
use pb_runtime::{Transform, TunedProgram};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Retries `run_verified` may make at the top bin after escalating.
const MAX_RETRIES: usize = 6;

/// Requests served per bin at least, however long they take.
const MIN_REQUESTS_PER_BIN: usize = 8;

/// One request in this many (seeded) is re-executed on the reference.
const REFERENCE_EVERY: u64 = 32;

/// Failure notes kept per run; the counts carry the rest.
const MAX_NOTES: usize = 20;

/// Requests per bin in one serve window: about 20 ms of refine-dsl.
/// binpack-native serves tens of requests per bin in a whole run, so it
/// never closes one.
const WINDOW_PER_BIN: usize = 1000;

/// The share of windows, fastest first, that the median latencies are
/// taken over. The machine is shared, and for seconds at a time its
/// neighbours slow every request up to 1.9x; how much of a run such
/// stretches cover changes from run to run (from a tenth to nearly all
/// of it). They only ever add time, so the fastest windows read the
/// served program's own latency, where a median over all requests
/// reads how much of the run was slowed.
///
/// The tail is the median over all windows instead: the tail of the
/// fastest windows swung 5.5–8.2 µs between runs that had few quiet
/// stretches, where the median window's tail stayed within 8%.
const QUIET_SHARE: f64 = 0.03;

/// What one window of requests measured.
struct Window {
    /// Each bin's median latency, in ms.
    bin_p50_ms: Vec<f64>,
    /// `stats::tail` over all the window's latencies: percentile, ms.
    tail: (f64, f64),
    requests: usize,
}

impl Window {
    /// The geometric mean over bins of each bin's median latency.
    fn p50_ms(&self) -> f64 {
        geomean(&self.bin_p50_ms)
    }

    /// Summarizes per-bin latencies; `None` when they are too few for a
    /// tail.
    fn of(latencies: &[Vec<f32>]) -> Option<Self> {
        let ms = |l: &Vec<f32>| l.iter().map(|&v| f64::from(v)).collect::<Vec<_>>();
        let all: Vec<f64> = latencies.iter().flat_map(ms).collect();
        Some(Window {
            bin_p50_ms: latencies.iter().map(|l| median(&ms(l))).collect(),
            tail: stats::tail(&all)?,
            requests: all.len(),
        })
    }
}

/// The serve metrics: medians over windows of each window's value, over
/// the quiet windows (the [`QUIET_SHARE`] of the run's windows with the
/// lowest `p50_ms`) for the latency medians and over all windows for
/// the tail. The open last window is left out, unless no window
/// closed: then the whole run is the one window.
pub struct Summary {
    pub windows: usize,
    /// How many of the windows are quiet.
    pub quiet: usize,
    /// Requests per window: the sample count of the tail.
    pub requests_per_window: usize,
    /// Per bin, its median latency.
    pub bin_p50_ms: Vec<f64>,
    /// The geometric mean over bins of each bin's median latency.
    pub p50_ms: f64,
    /// The tail percentile and its latency (over all windows).
    pub tail_pct: f64,
    pub tail_ms: f64,
}

/// What the serve loop measured and checked.
pub struct ServeLog {
    pub requests: u64,
    /// Requests that failed: a `GuaranteeError`, a panic, or a failed
    /// output check.
    pub failed: u64,
    /// Requests whose output failed a check (a subset of `failed`).
    pub wrong: u64,
    /// Requests met by their own bin on the first attempt.
    pub first_try: u64,
    /// `run_verified` attempts over all requests that returned.
    pub attempts: u64,
    /// Seconds the served executor and the reference took on the
    /// requests re-executed for the reference check.
    pub ref_served_s: f64,
    pub ref_reference_s: f64,
    pub notes: Vec<String>,
    /// The open window's latencies per bin, in ms.
    open: Vec<Vec<f32>>,
    closed: Vec<Window>,
}

impl ServeLog {
    pub fn new(bins: usize) -> Self {
        ServeLog {
            requests: 0,
            failed: 0,
            wrong: 0,
            first_try: 0,
            attempts: 0,
            ref_served_s: 0.0,
            ref_reference_s: 0.0,
            notes: Vec::new(),
            open: vec![Vec::with_capacity(WINDOW_PER_BIN); bins],
            closed: Vec::new(),
        }
    }

    /// Logs one request's latency; closes the window once every bin
    /// holds [`WINDOW_PER_BIN`] of them.
    fn latency(&mut self, bin: usize, ms: f32) {
        self.open[bin].push(ms);
        if self.open.iter().all(|l| l.len() >= WINDOW_PER_BIN) {
            self.closed.extend(Window::of(&self.open));
            self.open.iter_mut().for_each(Vec::clear);
        }
    }

    /// The serve metrics over the requests logged so far.
    pub fn summary(&self) -> Result<Summary, String> {
        let single;
        let windows: &[Window] = if self.closed.is_empty() {
            single = [Window::of(&self.open)
                .ok_or_else(|| format!("{} requests are too few for a tail", self.requests))?];
            &single
        } else {
            &self.closed
        };
        let mut ranked: Vec<&Window> = windows.iter().collect();
        ranked.sort_by(|a, b| a.p50_ms().total_cmp(&b.p50_ms()));
        let quiet = &ranked[..((QUIET_SHARE * ranked.len() as f64).ceil() as usize).max(1)];
        let over_quiet = |value: &dyn Fn(&Window) -> f64| {
            median(&quiet.iter().map(|w| value(w)).collect::<Vec<_>>())
        };
        Ok(Summary {
            windows: windows.len(),
            quiet: quiet.len(),
            requests_per_window: windows[0].requests,
            bin_p50_ms: (0..self.open.len())
                .map(|b| over_quiet(&|w| w.bin_p50_ms[b]))
                .collect(),
            p50_ms: over_quiet(&Window::p50_ms),
            tail_pct: windows[0].tail.0,
            tail_ms: median(&windows.iter().map(|w| w.tail.1).collect::<Vec<_>>()),
        })
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}

/// Serves requests into `log` for `seconds`, and until `log` holds
/// `share` of the run's minimum request count ([`MIN_REQUESTS_PER_BIN`]
/// per bin). Request `i` of the run asks bin `i mod bins` for a seeded
/// required accuracy on a fresh seeded input, from program `i / bins`
/// modulo the number of programs. Spans go under `parent` when it is
/// nonzero.
#[allow(clippy::too_many_arguments)]
pub fn serve<T: Transform>(
    ready: &Ready<T>,
    programs: &[&TunedProgram],
    reference: Option<&Reference<T>>,
    seed: u64,
    seconds: f64,
    share: f64,
    parent: u64,
    log: &mut ServeLog,
) {
    let bins = ready.bins.len();
    let runner = &ready.runner;
    let transform = runner.transform();
    let span = |name| (parent != 0).then(|| trace::open(name, parent));
    let close = |span: Option<trace::Open>| {
        if let Some(span) = span {
            span.tally();
        }
    };
    let min_requests = (share * (bins * MIN_REQUESTS_PER_BIN) as f64).ceil() as u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || log.requests < min_requests {
        let i = log.requests;
        log.requests += 1;
        let bin = (i % bins as u64) as usize;
        let tuned = programs[(i / bins as u64) as usize % programs.len()];
        let request_seed = mix(seed, 0x5E_0000 + i);

        let generating = span("generate");
        let mut rng = SmallRng::seed_from_u64(request_seed);
        let required = workloads::required_accuracy(&ready.bins, bin, &mut rng);
        let input = transform.generate_input(ready.serve_n, &mut rng);
        close(generating);

        let requesting = span("request");
        let begin = Instant::now();
        let served = catch_unwind(AssertUnwindSafe(|| {
            run_verified(
                runner,
                tuned,
                &input,
                ready.serve_n,
                required,
                MAX_RETRIES,
                request_seed,
            )
        }));
        let ms = (begin.elapsed().as_secs_f64() * 1e3) as f32;
        close(requesting);
        log.latency(bin, ms);

        let checking = span("check");
        let ok = match served {
            Ok(Ok(run)) => {
                log.attempts += run.attempts as u64;
                log.first_try += u64::from(run.attempts == 1 && run.bin_used == bin);
                let mut correct = transform.accuracy(&input, &run.output) >= required;
                if let Some(reference) =
                    reference.filter(|_| mix(seed, request_seed).is_multiple_of(REFERENCE_EVERY))
                {
                    // The accepted attempt ran under the seed
                    // `run_verified` derives for it.
                    let seed_used = request_seed.wrapping_add(run.attempts as u64 - 1);
                    let config = &tuned.entry(run.bin_used).config;
                    let check = reference(
                        runner,
                        &input,
                        &run.output,
                        config,
                        ready.serve_n,
                        seed_used,
                    );
                    correct &= check.equal;
                    log.ref_served_s += check.served_s;
                    log.ref_reference_s += check.reference_s;
                }
                if !correct {
                    log.wrong += 1;
                    log.note(format!("request {i}: served output failed its check"));
                }
                correct
            }
            Ok(Err(e)) => {
                log.note(format!("request {i}: {e}"));
                false
            }
            Err(_) => {
                log.note(format!("request {i}: panicked"));
                false
            }
        };
        log.failed += u64::from(!ok);
        close(checking);
    }
}
