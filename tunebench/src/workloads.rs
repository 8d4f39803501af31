//! The two workloads: what each sets up, how it tunes, and at which
//! size it serves. Why each one is in the benchmark is recorded in
//! `BENCHMARK.json`; the comments here say why its sizes are what
//! they are.

use crate::trace;
use pb_benchmarks::binpacking::ratio_to_accuracy;
use pb_benchmarks::BinPacking;
use pb_config::{AccuracyBins, Config};
use pb_lang::interp::Value;
use pb_lang::{parse_program, DslTransform, Interpreter};
use pb_runtime::{CostModel, ExecCtx, Transform, TransformRunner};
use pb_tuner::TunerOptions;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;
use std::time::Instant;

/// A workload after set-up: ready to tune.
pub struct Ready<T: Transform> {
    pub runner: TransformRunner<T>,
    pub bins: AccuracyBins,
    /// One entry per `tune_outcome` call in a tune pass.
    pub passes: Vec<TunerOptions>,
    /// Input size of served requests.
    pub serve_n: u64,
    /// Tune passes in an untraced run, each followed by an equal share
    /// of the serve time.
    pub rounds: usize,
}

/// The outcome of re-executing one served request on an independent
/// reference executor.
pub struct RefCheck {
    pub equal: bool,
    /// Seconds the served executor (the VM) took on the request.
    pub served_s: f64,
    /// Seconds the reference executor took on it.
    pub reference_s: f64,
}

/// Re-executes `(input, config, n, seed)` on a reference executor and
/// compares the result with the served output.
pub type Reference<T> = Box<
    dyn Fn(
        &TransformRunner<T>,
        &<T as Transform>::Input,
        &<T as Transform>::Output,
        &Config,
        u64,
        u64,
    ) -> RefCheck,
>;

/// How a workload sets up and how its outputs are cross-checked.
pub struct Spec<T: Transform> {
    /// Builds the workload; `parent` is the span the set-up runs under
    /// (0 when untraced).
    pub setup: fn(seed: u64, parent: u64) -> Ready<T>,
    /// The independent reference for served outputs, if there is one.
    pub reference: fn(&Ready<T>) -> Option<Reference<T>>,
}

/// A seed stream: the splitmix64 finalizer over `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `f` under a span named `name` when traced (`parent != 0`).
fn spanned<R>(name: &'static str, parent: u64, f: impl FnOnce() -> R) -> R {
    if parent == 0 {
        return f();
    }
    let span = trace::open(name, parent);
    let result = f();
    span.close();
    result
}

/// Native bin packing over Fig. 6(a)'s five bins, trained with the
/// default tuner options to 4096 and served at Fig. 6(a)'s largest size,
/// where the tuned `par_cutoff` splits item scans onto the pool.
///
/// The tuner seed is the library's default, not `--seed`: across tuner
/// seeds one tuning run took 2.2–5.4 s and gave programs that serve
/// several-fold apart, so a seeded tune would make `tune_s` and
/// `serve_p50_ms` draws from that spread. `--seed` drives every served
/// input and accuracy mix instead.
pub fn binpack(_seed: u64, _parent: u64) -> Ready<BinPacking> {
    let ratios = [1.4, 1.3, 1.2, 1.1, 1.01];
    Ready {
        runner: TransformRunner::new(BinPacking, CostModel::Virtual),
        bins: AccuracyBins::new(ratios.iter().map(|&r| ratio_to_accuracy(r)).collect()),
        passes: vec![TunerOptions::default()],
        serve_n: 16384,
        rounds: 5,
    }
}

/// Parses and compiles `source` into a tunable DSL transform, with
/// spans around the two front-end calls.
fn front_end(
    source: &str,
    name: &str,
    input_gen: pb_lang::transform::InputGenerator,
    parent: u64,
) -> DslTransform {
    let program = spanned("parse", parent, || parse_program(source))
        .unwrap_or_else(|e| panic!("`{name}` does not parse: {e}"));
    spanned("compile", parent, || {
        DslTransform::compile(program, name, input_gen)
    })
    .unwrap_or_else(|e| panic!("`{name}` does not compile: {e}"))
}

/// How many independent tuning runs one refine tune pass makes. Its
/// trials take microseconds, so one run is too short to time, and the
/// runs' seeds come from `--seed`: averaging this many keeps the pass's
/// work steady from seed to seed. Requests cycle over all the programs.
const REFINE_RUNS: u64 = 200;

/// The shipped `refine.pb`, tuned over many seeds.
pub fn refine(seed: u64, parent: u64) -> Ready<DslTransform> {
    let dsl = front_end(
        include_str!("../../examples/dsl/refine.pb"),
        "refine",
        Box::new(|n, rng| {
            let values = (0..n.max(1)).map(|_| rng.gen_range(0.0..1.0)).collect();
            HashMap::from([("In".to_string(), Value::Arr1(values))])
        }),
        parent,
    );
    Ready {
        runner: TransformRunner::new(dsl, CostModel::Virtual),
        bins: AccuracyBins::new(vec![1.0, 2.0, 4.0, 8.0, 16.0]),
        passes: (0..REFINE_RUNS)
            .map(|run| TunerOptions::fast_preset(64, mix(seed, 100 + run)))
            .collect(),
        serve_n: 64,
        // A pass takes about 0.5 s: more of them give each call more
        // chances to run outside the machine's slow stretches.
        rounds: 10,
    }
}

/// No reference executor beyond the accuracy check.
pub fn no_reference<T: Transform>(_: &Ready<T>) -> Option<Reference<T>> {
    None
}

/// The tree-walking interpreter over the same parsed program: a served
/// output must be bitwise equal to what it computes under the same
/// configuration, size and seed.
pub fn tree_walker(ready: &Ready<DslTransform>) -> Option<Reference<DslTransform>> {
    let dsl = ready.runner.transform();
    let walker = Interpreter::new(dsl.interpreter().program().clone());
    let name = Transform::name(dsl).to_owned();
    Some(Box::new(move |runner, input, output, config, n, seed| {
        let schema = runner.schema();
        let run = |interp: &Interpreter| {
            let mut ctx = ExecCtx::new(schema, config, n, seed);
            let start = Instant::now();
            let out = interp.run(&name, input, &mut ctx);
            (out, start.elapsed().as_secs_f64())
        };
        let (served, served_s) = run(runner.transform().interpreter());
        let (reference, reference_s) = run(&walker);
        let same = |a: &HashMap<String, Value>, b: &HashMap<String, Value>| {
            a.len() == b.len()
                && a.iter()
                    .all(|(k, v)| b.get(k).is_some_and(|w| v.bits_eq(w)))
        };
        let equal = match (served, reference) {
            (Ok(s), Ok(r)) => same(&s, &r) && same(output, &r),
            _ => false,
        };
        RefCheck {
            equal,
            served_s,
            reference_s,
        }
    }))
}

/// Draws a required accuracy that bin `bin` is the cheapest to meet:
/// uniform over the gap between the next-lower target and this one.
pub fn required_accuracy(bins: &AccuracyBins, bin: usize, rng: &mut SmallRng) -> f64 {
    let targets = bins.targets();
    let hi = targets[bin];
    let lo = if bin == 0 {
        hi - (targets.get(1).map_or(1.0, |t| t - hi)) / 2.0
    } else {
        targets[bin - 1]
    };
    let u: f64 = rng.gen_range(0.01..1.0);
    lo + (hi - lo) * u
}
