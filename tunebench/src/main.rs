//! One seeded tune-then-serve run of one workload.
//!
//! ```text
//! cargo run --release --manifest-path tunebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up (pool spawn, `TransformRunner::new`, and
//! on DSL workloads the front end), then goes through rounds of more
//! set-ups, one `Autotuner::tune_outcome` pass and an equal share of
//! `--seconds` spent serving the first pass's program through
//! `guarantee::run_verified` (see [`serve`]). Every pass must produce
//! the identical `TunedProgram::to_json`; every served output must pass
//! the accuracy check again, and on DSL workloads a seeded sample must
//! also be bitwise equal to the tree-walking interpreter's output.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end
//! metrics, measured with no spans recorded; with `--trace 1` the
//! per-layer metrics, from spans the benchmark records around its calls
//! into the library (see [`trace`]). A traced run also writes its spans
//! to `tunebench/out/` and checks that the spans account for the run's
//! wall time within [`UNATTRIBUTED_TOLERANCE_PCT`].

mod serve;
mod stats;
mod trace;
mod workloads;

use pb_runtime::{Pool, PoolBatchStats, Transform, TrialRunner, TunedEntry, TunedProgram};
use pb_tuner::{Autotuner, TunerStats, TuningOutcome};
use stats::{geomean, median, median_or_zero, ratio};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{mix, Ready, Spec};

/// The pool's thread budget. The virtual cost model reads it, so tuning
/// decisions depend on it: it is pinned, not taken from the machine.
const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 100;

/// Seeds per bin when measuring the tuned program's virtual cost.
const SPEEDUP_SEEDS: u64 = 2;

/// The most of a traced run's wall time that may lie outside every
/// span before the run counts as not reconciled.
const UNATTRIBUTED_TOLERANCE_PCT: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Named metrics with their units, in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Operations attempted and failed, and whether every output check
/// passed.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed output checks (a subset of `failed`).
    wrong: u64,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.wrong += 1;
            self.notes.push(note());
        }
    }
}

fn render(outcome: &Outcome, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.wrong == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let value = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Closes `span` if the run is traced.
fn close(span: Option<trace::Open>) {
    if let Some(span) = span {
        span.close();
    }
}

/// One tune pass: every `tune_outcome` call the workload makes, and
/// the wall time of each.
fn tune_pass<T: Transform>(
    ready: &Ready<T>,
    runner: &dyn TrialRunner,
) -> Result<(Vec<TuningOutcome>, Vec<f64>), String> {
    ready
        .passes
        .iter()
        .map(|options| {
            let begin = Instant::now();
            let outcome = Autotuner::new(runner, ready.bins.clone(), *options)
                .tune_outcome()
                .map_err(|e| format!("tuning failed: {e}"))?;
            Ok((outcome, begin.elapsed().as_secs_f64()))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(|calls| calls.into_iter().unzip())
}

/// `tune_s`: the sum over a pass's `tune_outcome` calls of each call's
/// fastest wall time over the run's passes. Every pass makes the same
/// calls from the same seeds, so they do the same work; the machine's
/// slow stretches (see `serve::QUIET_SHARE`) only add to some
/// passes' times.
fn tune_s(call_walls: &[Vec<f64>]) -> f64 {
    (0..call_walls[0].len())
        .map(|call| {
            call_walls
                .iter()
                .map(|pass| pass[call])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// The tuned programs' Fig. 6 metric in virtual cost at the serve
/// size: the geometric mean over bins of the top bin's cost over each
/// bin's cost.
fn virtual_speedup<T: Transform + Send + Sync>(
    ready: &Ready<T>,
    programs: &[&TunedProgram],
    seed: u64,
) -> f64 {
    let cost = |entry: &TunedEntry| -> f64 {
        (0..SPEEDUP_SEEDS)
            .map(|s| {
                ready
                    .runner
                    .run_trial(&entry.config, ready.serve_n, mix(seed, 0xC0_0000 + s))
                    .virtual_cost
            })
            .sum()
    };
    let mut speedups = Vec::new();
    for program in programs {
        let costs: Vec<f64> = program.entries().iter().map(cost).collect();
        let top = *costs.last().expect("at least one bin");
        speedups.extend(costs.iter().map(|c| top / c));
    }
    geomean(&speedups)
}

/// Sums the counters the per-layer report reads over several runs.
fn sum_stats(outcomes: &[TuningOutcome]) -> TunerStats {
    outcomes.iter().fold(TunerStats::default(), |mut acc, o| {
        let s = &o.stats;
        acc.trials += s.trials;
        acc.children_created += s.children_created;
        acc.children_accepted += s.children_accepted;
        acc.cache_hits += s.cache_hits;
        acc.cache_misses += s.cache_misses;
        acc.pair_memo_queries += s.pair_memo_queries;
        acc.pair_memo_hits += s.pair_memo_hits;
        acc.prune_rounds += s.prune_rounds;
        acc.prune_draws += s.prune_draws;
        acc.merge_rounds += s.merge_rounds;
        acc.merge_draws += s.merge_draws;
        acc.trial_panics += s.trial_panics;
        acc.trial_timeouts += s.trial_timeouts;
        acc.trial_nonfinite += s.trial_nonfinite;
        acc.quarantined += s.quarantined;
        acc
    })
}

fn pool_metrics(phase: &str, delta: &PoolBatchStats, metrics: &mut Metrics) {
    metrics.push(
        format!("pool.{phase}.dispatched"),
        delta.dispatched as f64,
        "count",
    );
    metrics.push(format!("pool.{phase}.inline"), delta.inline as f64, "count");
    metrics.push(format!("pool.{phase}.tasks"), delta.tasks as f64, "count");
}

/// Runs one workload end to end and returns what it measured.
fn drive<T>(spec: Spec<T>, args: &Args, outcome: &mut Outcome) -> Result<Metrics, String>
where
    T: Transform + Send + Sync,
{
    let traced = args.trace;
    let root = |name| traced.then(|| trace::open(name, 0));
    let id = |span: &Option<trace::Open>| span.as_ref().map_or(0, trace::Open::id);

    // The first set-up runs from process start and spawns the global
    // pool; the rest repeat it on fresh pools and runners.
    let span = root("setup");
    let pool = Pool::global();
    let ready = (spec.setup)(args.seed, id(&span));
    let mut setups = vec![trace::now_ns() as f64 * 1e-9];
    close(span);
    if pool.threads() != THREADS {
        return Err(format!(
            "pool has {} threads, not {THREADS}",
            pool.threads()
        ));
    }
    let reference = (spec.reference)(&ready);

    // Rounds of set-up repetitions, one tune pass and a slice of the
    // serve time, so that every metric samples the whole run rather
    // than one stretch of it. Every pass makes the same calls from the
    // same seeds and must give identical programs; the first pass's
    // programs are served. A traced run records spans and trial costs
    // on its second pass only, and times the tracing overhead against
    // its third, so both sides of that ratio run warm.
    let rounds = if traced { 3 } else { ready.rounds };
    let mut first: Vec<TuningOutcome> = Vec::new();
    let mut traced_pass: Vec<TuningOutcome> = Vec::new();
    let mut call_walls = Vec::new();
    let (mut records, mut pool_tune, mut pool_serve) = (
        Vec::new(),
        PoolBatchStats::default(),
        PoolBatchStats::default(),
    );
    let mut tune_span = 0;
    let mut log = serve::ServeLog::new(ready.bins.len());
    for round in 0..rounds {
        while setups.len() < SETUP_REPS * (round + 1) / rounds {
            let span = root("setup");
            let begin = Instant::now();
            let fresh = Pool::with_threads(THREADS);
            let again = (spec.setup)(args.seed, id(&span));
            setups.push(begin.elapsed().as_secs_f64());
            close(span);
            drop((again, fresh));
        }

        let decorate = traced && round == 1;
        let span = root(if decorate { "tune" } else { "tune_untraced" });
        let decorated = trace::TracingRunner::new(&ready.runner, id(&span));
        let runner: &dyn TrialRunner = if decorate { &decorated } else { &ready.runner };
        let before = pool.batch_stats();
        let (outcomes, walls) = tune_pass(&ready, runner)?;
        if decorate {
            pool_tune = pool.batch_stats().delta_since(&before);
            tune_span = id(&span);
        }
        close(span);
        records.extend(decorated.into_records());
        call_walls.push(walls);
        if round == 0 {
            first = outcomes;
        } else {
            for (a, b) in first.iter().zip(&outcomes) {
                outcome.check(a.program.to_json() == b.program.to_json(), || {
                    "re-tuning the same seed gave a different program".to_string()
                });
            }
            if decorate {
                traced_pass = outcomes;
            }
        }

        let programs: Vec<&TunedProgram> = first.iter().map(|o| &o.program).collect();
        let span = root("serve");
        let before = pool.batch_stats();
        serve::serve(
            &ready,
            &programs,
            reference.as_ref(),
            args.seed,
            args.seconds / rounds as f64,
            (round + 1) as f64 / rounds as f64,
            id(&span),
            &mut log,
        );
        pool_serve.absorb(&pool.batch_stats().delta_since(&before));
        close(span);
    }
    let walls: Vec<f64> = call_walls.iter().map(|w| w.iter().sum()).collect();
    eprintln!(
        "tune passes (s): {walls:.4?}; {} trials per pass",
        first.iter().map(|o| o.stats.trials).sum::<u64>()
    );
    let programs: Vec<&TunedProgram> = first.iter().map(|o| &o.program).collect();

    // Extra trials at the serve size: traced runs only.
    let speedup = if traced {
        let span = root("speedup");
        let speedup = virtual_speedup(&ready, &programs, args.seed);
        close(span);
        speedup
    } else {
        0.0
    };
    let wall_ns = trace::now_ns();
    let peak_rss_mb = peak_rss_mb()?;

    outcome.attempted += log.requests;
    outcome.failed += log.failed;
    outcome.wrong += log.wrong;
    outcome.notes.append(&mut log.notes);
    let served = log.summary()?;
    println!(
        "serve: {} requests in {} window(s) of {}, {} quiet; per-bin p50 {:.4?} ms; serve_tail_ms is p{}",
        log.requests,
        served.windows,
        served.requests_per_window,
        served.quiet,
        served.bin_p50_ms,
        served.tail_pct
    );

    let mut metrics = Metrics::default();
    if !traced {
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("tune_s", tune_s(&call_walls), "s");
        metrics.push("serve_p50_ms", served.p50_ms, "ms");
        metrics.push("serve_tail_ms", served.tail_ms, "ms");
        metrics.push("peak_rss_mb", peak_rss_mb, "MiB");
        return Ok(metrics);
    }

    // Per-layer metrics from the spans.
    let (spans, tallies) = trace::take();
    let selfs = trace::self_times(&spans, &tallies);
    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    };
    let layers = trace::layer_times(&spans, &tallies, &selfs);
    let attributed_ns: u64 = layers.values().sum();
    let unattributed_pct = 100.0 * (wall_ns as f64 - attributed_ns as f64).abs() / wall_ns as f64;
    eprintln!("wall time per layer (s):");
    for (name, ns) in &layers {
        eprintln!("  {name:<14} {:>10.4}", *ns as f64 * 1e-9);
    }
    eprintln!(
        "  {:<14} {:>10.4} of {:.4} s wall: {unattributed_pct:.3}% unattributed (tolerance {UNATTRIBUTED_TOLERANCE_PCT}%)",
        "sum",
        attributed_ns as f64 * 1e-9,
        wall_ns as f64 * 1e-9
    );
    outcome.check(unattributed_pct <= UNATTRIBUTED_TOLERANCE_PCT, || {
        format!("layer times miss the wall time by {unattributed_pct:.3}%")
    });
    std::fs::create_dir_all("tunebench/out").map_err(|e| e.to_string())?;
    let trace_path = format!("tunebench/out/{}-seed{}.jsonl", args.workload, args.seed);
    std::fs::write(&trace_path, trace::to_jsonl(&spans, &tallies)).map_err(|e| e.to_string())?;
    eprintln!("spans written to {trace_path}");

    let trials = durations("trial");
    let trial_busy_s: f64 = trials.iter().sum();
    let traced_s = walls[1];
    let st = sum_stats(&traced_pass);
    let kernel_tasks: u64 = traced_pass
        .iter()
        .map(|o| o.pool.total.tasks.saturating_sub(o.pool.trial.tasks))
        .sum();
    let largest = ready.passes.iter().map(|o| o.max_size).max().unwrap_or(0);
    let (virt, wall): (Vec<f64>, Vec<f64>) = records
        .iter()
        .filter(|r| r.n == largest)
        .map(|r| (r.virtual_cost, r.wall_seconds))
        .unzip();
    let requests = log.requests as f64;

    let m = &mut metrics;
    m.push(
        "lang.parse_ms",
        median_or_zero(&durations("parse")) * 1e3,
        "ms",
    );
    m.push(
        "lang.compile_ms",
        median_or_zero(&durations("compile")) * 1e3,
        "ms",
    );
    m.push(
        "lang.vm_over_interp",
        ratio(log.ref_reference_s, log.ref_served_s),
        "x",
    );
    m.push("runtime.trial_busy_s", trial_busy_s, "s");
    m.push(
        "runtime.trial_us",
        ratio(trial_busy_s, trials.len() as f64) * 1e6,
        "us",
    );
    for (b, p50) in served.bin_p50_ms.iter().enumerate() {
        m.push(format!("runtime.serve_bin{b}_p50_ms"), *p50, "ms");
    }
    m.push(
        "runtime.first_try_rate",
        ratio(log.first_try as f64, requests),
        "ratio",
    );
    m.push(
        "runtime.attempts_per_request",
        ratio(log.attempts as f64, requests),
        "count",
    );
    m.push("serve_tail.percentile", served.tail_pct, "%");
    m.push(
        "serve_tail.samples",
        served.requests_per_window as f64,
        "count",
    );
    m.push("serve.windows", served.windows as f64, "count");
    pool_metrics("tune", &pool_tune, m);
    m.push("pool.tune.kernel_tasks", kernel_tasks as f64, "count");
    pool_metrics("serve", &pool_serve, m);
    m.push(
        "pool.occupancy",
        ratio(trial_busy_s, traced_s * pool.threads() as f64),
        "ratio",
    );
    let tune_self_ns = selfs.get(&tune_span).copied().unwrap_or(0);
    m.push("tuner.self_s", tune_self_ns as f64 * 1e-9, "s");
    m.push("tuner.trials", st.trials as f64, "count");
    m.push(
        "tuner.trials_per_s",
        ratio(st.trials as f64, traced_s),
        "1/s",
    );
    m.push(
        "tuner.cache_hit_rate",
        ratio(
            st.cache_hits as f64,
            (st.cache_hits + st.cache_misses) as f64,
        ),
        "ratio",
    );
    m.push(
        "tuner.pair_memo_hit_rate",
        ratio(st.pair_memo_hits as f64, st.pair_memo_queries as f64),
        "ratio",
    );
    m.push(
        "tuner.arena_round_width",
        ratio(
            (st.prune_draws + st.merge_draws) as f64,
            (st.prune_rounds + st.merge_rounds) as f64,
        ),
        "count",
    );
    m.push(
        "tuner.accept_rate",
        ratio(st.children_accepted as f64, st.children_created as f64),
        "ratio",
    );
    m.push("tuner.virtual_speedup", speedup, "x");
    m.push(
        "tuner.faults",
        (st.trial_panics + st.trial_timeouts + st.trial_nonfinite + st.quarantined) as f64,
        "count",
    );
    m.push(
        "cost_model.rank_corr",
        stats::spearman(&virt, &wall),
        "ratio",
    );
    m.push(
        "trace.overhead_pct",
        100.0 * (traced_s / walls[2] - 1.0),
        "%",
    );
    m.push("trace.unattributed_pct", unattributed_pct, "%");
    Ok(metrics)
}

fn main() -> ExitCode {
    trace::start_clock();
    // Pin the global pool before anything can create it, and verify
    // every optimizer pass of DSL set-up.
    std::env::set_var("PB_POOL_THREADS", THREADS.to_string());
    std::env::set_var("PB_VERIFY", "1");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("tunebench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = Outcome::default();
    let result = match args.workload.as_str() {
        "binpack-native" => drive(
            Spec {
                setup: workloads::binpack,
                reference: workloads::no_reference,
            },
            &args,
            &mut outcome,
        ),
        "refine-dsl" => drive(
            Spec {
                setup: workloads::refine,
                reference: workloads::tree_walker,
            },
            &args,
            &mut outcome,
        ),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(metrics) => {
            for note in &outcome.notes {
                eprintln!("tunebench: {note}");
            }
            println!("{}", render(&outcome, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tunebench: {e}");
            ExitCode::FAILURE
        }
    }
}
