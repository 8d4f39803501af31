//! Bin Packing benchmark (§6.1.1).
//!
//! Thirteen polynomial-time approximation algorithms for the NP-hard
//! BINPACKING problem, from `NextFit` (2×OPT worst case, `O(n)`) to
//! `ModifiedFirstFitDecreasing` (71/60×OPT). The training generator
//! "divides up full bins into a number of items", so OPT is known at
//! training time "without the need for an exponential search".
//!
//! The paper reports accuracy as `bins / OPT` (lower = better, range
//! 1.0–1.5 in Fig. 7). The tuner's convention is larger-is-better, so
//! the accuracy metric is `2 − bins/OPT` (see [`ratio_to_accuracy`]).
//!
//! Every kernel runs sequentially, one item at a time. Each item's
//! placement scan reads the residuals the previous item left, so the
//! items cannot split, and one scan is too short to fan out: it covers
//! at most a few thousand `f64`s, and a pool batch would still need a
//! sequential walk over its fit mask to find the hit. Served at 16384
//! items on a 2-thread pool (2-vCPU host), fanned-out scans ran about
//! ten times slower than these loops and gave the same packings, so
//! bin packing has no §5.2 `par_cutoff` tunable (clustering and
//! Poisson keep theirs).
//!
//! Virtual cost is one [`PROBE_COST`] per bin probed (plus
//! `n·log2(n)` for a sort), charged once per scan rather than once per
//! probe; the totals are the same bits either way.

use pb_config::Schema;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::Rng;

/// The 13 packing heuristics, in the paper's order.
pub const ALGORITHM_NAMES: [&str; 13] = [
    "FirstFit",
    "FirstFitDecreasing",
    "ModifiedFirstFitDecreasing",
    "BestFit",
    "BestFitDecreasing",
    "LastFit",
    "LastFitDecreasing",
    "NextFit",
    "NextFitDecreasing",
    "WorstFit",
    "WorstFitDecreasing",
    "AlmostWorstFit",
    "AlmostWorstFitDecreasing",
];

/// A training instance: item sizes plus the number of bins the
/// generator unpacked them from (an upper bound on — and in practice
/// equal to — OPT).
#[derive(Debug, Clone, PartialEq)]
pub struct BinPackingInput {
    /// Item sizes in `(0, 1]`, in generator order.
    pub items: Vec<f64>,
    /// The number of full bins the generator split.
    pub opt_bins: usize,
}

/// Generates `n` items by splitting full bins with stick-breaking into
/// 2–5 pieces each, so the optimal packing uses exactly the generated
/// bins.
pub fn generate_input(n: u64, rng: &mut SmallRng) -> BinPackingInput {
    let n = n.max(1) as usize;
    let mut items = Vec::with_capacity(n);
    let mut opt_bins = 0;
    while items.len() < n {
        opt_bins += 1;
        let pieces = rng.gen_range(2..=5usize).min(n - items.len()).max(1);
        // Stick-breaking: cut [0, 1] at `pieces − 1` sorted points.
        let mut cuts: Vec<f64> = (0..pieces - 1).map(|_| rng.gen::<f64>()).collect();
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last = 0.0;
        for &c in &cuts {
            items.push((c - last).max(f64::MIN_POSITIVE));
            last = c;
        }
        items.push((1.0 - last).max(f64::MIN_POSITIVE));
    }
    items.truncate(n);
    // Shuffle so arrival order carries no information about the source
    // bins (the generator controls the size *distribution* only).
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
    BinPackingInput { items, opt_bins }
}

/// A packing: the residual capacity of each open bin.
#[derive(Debug, Clone, Default)]
pub struct Packing {
    residuals: Vec<f64>,
}

impl Packing {
    /// Number of bins used.
    pub fn bins(&self) -> usize {
        self.residuals.len()
    }

    /// Residual capacities.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Whether no bin is over capacity (beyond rounding).
    pub fn is_valid(&self) -> bool {
        self.residuals.iter().all(|&r| r >= -1e-12)
    }

    fn place(&mut self, bin: usize, item: f64) {
        self.residuals[bin] -= item;
    }

    fn open(&mut self, item: f64) {
        self.residuals.push(1.0 - item);
    }
}

/// Cost charged per bin probed, so virtual cost tracks the real
/// `O(n·bins)` vs `O(n)` asymptotics that drive Fig. 6(a).
const PROBE_COST: f64 = 1.0;

/// Charges one scan's `probes` bin probes in a single call. Every
/// probe costs the integer [`PROBE_COST`], so one charge per scan sums
/// to exactly the same `f64` as a charge per probe, without a
/// loop-carried add in the kernel's hot loop.
fn charge_probes(ctx: &mut ExecCtx<'_>, probes: usize) {
    ctx.charge(probes as f64 * PROBE_COST);
}

/// Whether `item` fits a bin with residual capacity `residual` (with
/// rounding slack), the one fit test every kernel shares.
fn fits(residual: f64, item: f64) -> bool {
    residual >= item - 1e-15
}

/// Scan direction of a one-slot placement (first fitting bin vs last).
#[derive(Clone, Copy, PartialEq)]
enum ScanFrom {
    Front,
    Back,
}

/// Places `item` in the first (or last) bin it fits, opening a new bin
/// otherwise — the shared per-item scan of FirstFit, LastFit, and
/// MFFD's final FFD pass. The scan exits at the hit and charges the
/// bins it probed up to and including it (all of them on a miss).
fn place_one(p: &mut Packing, item: f64, from: ScanFrom, ctx: &mut ExecCtx<'_>) {
    let bins = p.bins();
    let hit = match from {
        ScanFrom::Front => p.residuals.iter().position(|&r| fits(r, item)),
        ScanFrom::Back => p.residuals.iter().rposition(|&r| fits(r, item)),
    };
    let probes = match (hit, from) {
        (Some(b), ScanFrom::Front) => b + 1,
        (Some(b), ScanFrom::Back) => bins - b,
        (None, _) => bins,
    };
    charge_probes(ctx, probes);
    match hit {
        Some(b) => p.place(b, item),
        None => p.open(item),
    }
}

fn pack_one_slot(items: &[f64], from: ScanFrom, ctx: &mut ExecCtx<'_>) -> Packing {
    let mut p = Packing::default();
    for &item in items {
        place_one(&mut p, item, from, ctx);
    }
    p
}

/// BestFit and WorstFit: place each item in the fitting bin whose
/// residual `better` prefers over every other (the lowest index among
/// ties), opening a new bin if none fits. Probes every open bin.
fn pack_extreme_fit(
    items: &[f64],
    better: impl Fn(f64, f64) -> bool,
    ctx: &mut ExecCtx<'_>,
) -> Packing {
    let mut p = Packing::default();
    for &item in items {
        charge_probes(ctx, p.bins());
        let mut pick: Option<(usize, f64)> = None;
        for (b, &r) in p.residuals.iter().enumerate() {
            if fits(r, item) && pick.is_none_or(|(_, pr)| better(r, pr)) {
                pick = Some((b, r));
            }
        }
        match pick {
            Some((b, _)) => p.place(b, item),
            None => p.open(item),
        }
    }
    p
}

/// `AlmostWorstFit`: place in the k-th least-full bin with capacity
/// (`k = 2` by the textbook definition; generalized per the paper,
/// "our implementation generalizes it and supports a variable
/// compiler-set k").
fn pack_almost_worst_fit(items: &[f64], k: usize, ctx: &mut ExecCtx<'_>) -> Packing {
    let mut p = Packing::default();
    for &item in items {
        charge_probes(ctx, p.bins());
        // Collect bins with capacity, sorted by descending residual.
        let mut fitting: Vec<(usize, f64)> = p
            .residuals
            .iter()
            .enumerate()
            .filter(|&(_, &r)| fits(r, item))
            .map(|(b, &r)| (b, r))
            .collect();
        if fitting.is_empty() {
            p.open(item);
        } else {
            fitting.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
            let idx = (k.max(1) - 1).min(fitting.len() - 1);
            p.place(fitting[idx].0, item);
        }
    }
    p
}

/// `NextFit`: probe only the most recently opened bin, once per item.
fn pack_next_fit(items: &[f64], ctx: &mut ExecCtx<'_>) -> Packing {
    charge_probes(ctx, items.len());
    let mut p = Packing::default();
    for &item in items {
        let last = p.bins();
        if last > 0 && fits(p.residuals[last - 1], item) {
            p.place(last - 1, item);
        } else {
            p.open(item);
        }
    }
    p
}

/// `ModifiedFirstFitDecreasing` (Johnson & Garey): classify items into
/// large (> 1/2), medium (> 1/3], small (> 1/6], and tiny; give every
/// large item its own bin; walk those bins from most-full to
/// least-full trying to add one medium item (or the two smallest small
/// items that fit); finish with FFD on whatever remains.
fn pack_mffd(items: &[f64], ctx: &mut ExecCtx<'_>) -> Packing {
    let mut sorted = items.to_vec();
    charge_sort(ctx, sorted.len());
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));

    let mut large: Vec<f64> = Vec::new();
    let mut medium: Vec<f64> = Vec::new();
    let mut rest: Vec<f64> = Vec::new();
    for &x in &sorted {
        if x > 0.5 {
            large.push(x);
        } else if x > 1.0 / 3.0 {
            medium.push(x);
        } else {
            rest.push(x);
        }
    }

    let mut p = Packing::default();
    for &x in &large {
        p.open(x);
    }
    // Bins of large items, most-full first (they are already in
    // descending item order, so ascending residual order = original).
    // Each bin costs one probe plus one per medium item tried, up to
    // and including the chosen one.
    let mut medium_used = vec![false; medium.len()];
    for b in 0..p.bins() {
        // Try the largest unused medium item that fits.
        let chosen =
            (0..medium.len()).find(|&mi| !medium_used[mi] && fits(p.residuals[b], medium[mi]));
        charge_probes(ctx, 1 + chosen.map_or(medium.len(), |mi| mi + 1));
        if let Some(mi) = chosen {
            medium_used[mi] = true;
            let m = medium[mi];
            p.place(b, m);
        } else {
            // Try the two smallest remaining small items.
            if rest.len() >= 2 {
                let a = rest[rest.len() - 1];
                let c = rest[rest.len() - 2];
                if fits(p.residuals[b], a + c) {
                    rest.pop();
                    rest.pop();
                    p.place(b, a + c);
                }
            }
        }
    }
    // FFD on the leftovers (medium unused + rest, already descending).
    let mut leftovers: Vec<f64> = medium
        .iter()
        .enumerate()
        .filter(|(i, _)| !medium_used[*i])
        .map(|(_, &m)| m)
        .collect();
    leftovers.extend(rest);
    for &item in &leftovers {
        place_one(&mut p, item, ScanFrom::Front, ctx);
    }
    p
}

fn charge_sort(ctx: &mut ExecCtx<'_>, n: usize) {
    let n = n.max(2) as f64;
    ctx.charge(n * n.log2());
}

fn decreasing(items: &[f64], ctx: &mut ExecCtx<'_>) -> Vec<f64> {
    charge_sort(ctx, items.len());
    let mut sorted = items.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    sorted
}

/// Runs one named algorithm (index into [`ALGORITHM_NAMES`]) and
/// charges `ctx` one [`PROBE_COST`] per bin probed plus the sort for
/// the decreasing variants.
///
/// # Panics
///
/// Panics if `algorithm >= 13`.
pub fn pack_with(algorithm: usize, items: &[f64], awf_k: usize, ctx: &mut ExecCtx<'_>) -> Packing {
    // The decreasing variants sort (and charge for it), then run the
    // kernel of the algorithm listed just before them.
    let sorted;
    let items = if matches!(algorithm, 1 | 4 | 6 | 8 | 10 | 12) {
        sorted = decreasing(items, ctx);
        &sorted[..]
    } else {
        items
    };
    match algorithm {
        0 | 1 => pack_one_slot(items, ScanFrom::Front, ctx),
        2 => pack_mffd(items, ctx),
        3 | 4 => pack_extreme_fit(items, |r, best| r < best, ctx),
        5 | 6 => pack_one_slot(items, ScanFrom::Back, ctx),
        7 | 8 => pack_next_fit(items, ctx),
        9 | 10 => pack_extreme_fit(items, |r, worst| r > worst, ctx),
        11 | 12 => pack_almost_worst_fit(items, awf_k, ctx),
        other => panic!("unknown bin-packing algorithm index {other}"),
    }
}

/// Converts the paper's `bins/OPT` ratio (lower = better) into the
/// tuner's larger-is-better accuracy: `2 − ratio`.
pub fn ratio_to_accuracy(ratio: f64) -> f64 {
    2.0 - ratio
}

/// Inverse of [`ratio_to_accuracy`].
pub fn accuracy_to_ratio(accuracy: f64) -> f64 {
    2.0 - accuracy
}

/// The Bin Packing variable-accuracy transform.
///
/// Tunables: the 13-way `algorithm` choice site (a decision tree over
/// input size, so different sizes may pack differently — exactly the
/// structure of Fig. 7) and the `almost_worst_k` parameter.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinPacking;

impl Transform for BinPacking {
    type Input = BinPackingInput;
    type Output = Packing;

    fn name(&self) -> &str {
        "binpacking"
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new("binpacking");
        s.add_choice_site("algorithm", ALGORITHM_NAMES.len());
        s.add_user_param("almost_worst_k", 2, 8);
        s
    }

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> BinPackingInput {
        generate_input(n, rng)
    }

    fn execute(&self, input: &BinPackingInput, ctx: &mut ExecCtx<'_>) -> Packing {
        let algorithm = ctx.choice("algorithm").expect("schema declares algorithm");
        let k = ctx.param("almost_worst_k").expect("schema declares k") as usize;
        ctx.event(ALGORITHM_NAMES[algorithm]);
        pack_with(algorithm, &input.items, k, ctx)
    }

    fn accuracy(&self, input: &BinPackingInput, output: &Packing) -> f64 {
        let ratio = output.bins() as f64 / input.opt_bins.max(1) as f64;
        ratio_to_accuracy(ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::Config;
    use rand::SeedableRng;

    fn ctx_for<'a>(schema: &'a Schema, config: &'a Config, n: u64) -> ExecCtx<'a> {
        ExecCtx::new(schema, config, n, 0)
    }

    fn run_all(items: &[f64]) -> Vec<Packing> {
        let t = BinPacking;
        let schema = t.schema();
        let config = schema.default_config();
        (0..13)
            .map(|alg| {
                let mut ctx = ctx_for(&schema, &config, items.len() as u64);
                pack_with(alg, items, 2, &mut ctx)
            })
            .collect()
    }

    /// `(bins, virtual_cost().to_bits())` of every algorithm (inner
    /// loop) at sizes 7, 600, and 5000 (middle) for input seeds 21 and
    /// 22 (outer), recorded from the per-probe charging the kernels used
    /// before they charged once per scan. The tuner ranks candidates by
    /// these costs, so they must not drift by a bit.
    const GOLDEN: [(usize, u64); 78] = [
        (4, 0x4022000000000000),
        (3, 0x40405363d7b4c1d4),
        (4, 0x403ca6c7af6983a7),
        (4, 0x4028000000000000),
        (3, 0x40415363d7b4c1d4),
        (4, 0x4022000000000000),
        (4, 0x403da6c7af6983a7),
        (4, 0x401c000000000000),
        (4, 0x403aa6c7af6983a7),
        (4, 0x4028000000000000),
        (4, 0x4041d363d7b4c1d4),
        (4, 0x4028000000000000),
        (3, 0x40415363d7b4c1d4),
        (170, 0x40e639c000000000),
        (168, 0x40f17de4a8d052c0),
        (168, 0x40ecb46951a0a580),
        (169, 0x40e8cd6000000000),
        (168, 0x40f42884a8d052c0),
        (181, 0x40d0b68000000000),
        (168, 0x40db8892a3414b01),
        (210, 0x4082c00000000000),
        (213, 0x40b7f94a8d052c04),
        (188, 0x40eb436000000000),
        (168, 0x40f42b84a8d052c0),
        (178, 0x40e9dca000000000),
        (168, 0x40f428b4a8d052c0),
        (1426, 0x4149053600000000),
        (1414, 0x41525c7da3f621f8),
        (1421, 0x414b9f2a47ec43f0),
        (1423, 0x414adb7a80000000),
        (1414, 0x415500dd23f621f8),
        (1502, 0x4131690800000000),
        (1414, 0x4139cbff8fd887e0),
        (1811, 0x40b3880000000000),
        (1822, 0x40f03868fd887e02),
        (1575, 0x414da6cb00000000),
        (1414, 0x4155015523f621f8),
        (1490, 0x414c0b0500000000),
        (1414, 0x415500dd63f621f8),
        (4, 0x4022000000000000),
        (3, 0x403fa6c7af6983a7),
        (3, 0x403ba6c7af6983a7),
        (3, 0x402a000000000000),
        (3, 0x40415363d7b4c1d4),
        (3, 0x4024000000000000),
        (3, 0x403da6c7af6983a7),
        (5, 0x401c000000000000),
        (4, 0x403aa6c7af6983a7),
        (4, 0x4030000000000000),
        (3, 0x40415363d7b4c1d4),
        (3, 0x402a000000000000),
        (3, 0x40415363d7b4c1d4),
        (182, 0x40e79d8000000000),
        (180, 0x40f27384a8d052c0),
        (182, 0x40e9ee8951a0a580),
        (182, 0x40ea960000000000),
        (180, 0x40f5c634a8d052c0),
        (193, 0x40d3080000000000),
        (180, 0x40df9c52a3414b01),
        (233, 0x4082c00000000000),
        (231, 0x40b7f94a8d052c04),
        (202, 0x40ed6ec000000000),
        (180, 0x40f5ca44a8d052c0),
        (190, 0x40ebb2e000000000),
        (180, 0x40f5c6c4a8d052c0),
        (1461, 0x4149df9f00000000),
        (1447, 0x4152c06f23f621f8),
        (1456, 0x414b68b547ec43f0),
        (1457, 0x414bee9a00000000),
        (1447, 0x41558dcee3f621f8),
        (1537, 0x4132361c00000000),
        (1447, 0x413b5b918fd887e0),
        (1854, 0x40b3880000000000),
        (1854, 0x40f03868fd887e02),
        (1617, 0x414f0a9e00000000),
        (1447, 0x41558e4d63f621f8),
        (1524, 0x414d3b9180000000),
        (1447, 0x41558dd063f621f8),
    ];

    #[test]
    fn packings_and_costs_match_golden_values() {
        let t = BinPacking;
        let schema = t.schema();
        let config = schema.default_config();
        let mut golden = GOLDEN.iter();
        for seed in [21u64, 22] {
            for n in [7u64, 600, 5000] {
                let input = generate_input(n, &mut SmallRng::seed_from_u64(seed));
                for (alg, name) in ALGORITHM_NAMES.iter().enumerate() {
                    let mut ctx = ExecCtx::new(&schema, &config, n, 0);
                    let p = pack_with(alg, &input.items, 2, &mut ctx);
                    let got = (p.bins(), ctx.virtual_cost().to_bits());
                    let want = *golden.next().expect("one entry per case");
                    assert_eq!(got, want, "{name} at n={n}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn generator_splits_full_bins() {
        let mut rng = SmallRng::seed_from_u64(1);
        let input = generate_input(100, &mut rng);
        assert_eq!(input.items.len(), 100);
        assert!(input.items.iter().all(|&x| x > 0.0 && x <= 1.0));
        // Total volume can't exceed the generated bins.
        let total: f64 = input.items.iter().sum();
        assert!(total <= input.opt_bins as f64 + 1e-9);
        assert!(input.opt_bins >= 20, "2–5 items per bin over 100 items");
    }

    #[test]
    fn all_algorithms_produce_valid_packings() {
        let mut rng = SmallRng::seed_from_u64(2);
        let input = generate_input(200, &mut rng);
        for (alg, p) in run_all(&input.items).into_iter().enumerate() {
            assert!(p.is_valid(), "{} overfilled a bin", ALGORITHM_NAMES[alg]);
            // Volume lower bound: bins >= ceil(total volume).
            let total: f64 = input.items.iter().sum();
            assert!(
                p.bins() as f64 >= total - 1e-9,
                "{} lost items",
                ALGORITHM_NAMES[alg]
            );
        }
    }

    #[test]
    fn worst_case_bounds_hold_on_random_instances() {
        // NextFit ≤ 2·OPT; FirstFit ≤ 1.7·OPT + 1; FFD ≤ 4/3·OPT + 1.
        // Our generator knows OPT.
        let rng = SmallRng::seed_from_u64(3);
        for seed in 0..5u64 {
            let mut r = SmallRng::seed_from_u64(seed);
            let input = generate_input(150 + 10 * seed, &mut r);
            let packs = run_all(&input.items);
            let opt = input.opt_bins as f64;
            assert!(packs[7].bins() as f64 <= 2.0 * opt + 1.0, "NextFit bound");
            assert!(packs[0].bins() as f64 <= 1.7 * opt + 1.0, "FirstFit bound");
            assert!(packs[1].bins() as f64 <= 4.0 / 3.0 * opt + 1.0, "FFD bound");
            assert!(
                packs[2].bins() as f64 <= 71.0 / 60.0 * opt + 1.0,
                "MFFD bound (got {} vs opt {})",
                packs[2].bins(),
                opt
            );
            let _ = rng;
        }
    }

    #[test]
    fn decreasing_variants_do_no_worse_on_average() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ff = 0usize;
        let mut ffd = 0usize;
        for _ in 0..10 {
            let input = generate_input(120, &mut rng);
            let packs = run_all(&input.items);
            ff += packs[0].bins();
            ffd += packs[1].bins();
        }
        assert!(ffd <= ff, "FFD ({ffd}) should beat FF ({ff}) in aggregate");
    }

    #[test]
    fn next_fit_charges_linear_cost() {
        let t = BinPacking;
        let schema = t.schema();
        let mut config = schema.default_config();
        // Select NextFit (index 7) everywhere.
        config
            .set_by_name(
                &schema,
                "algorithm",
                pb_config::Value::Tree(pb_config::DecisionTree::single(7)),
            )
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let input = generate_input(500, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, 500, 0);
        let _ = t.execute(&input, &mut ctx);
        let nf_cost = ctx.virtual_cost();
        assert!(
            (nf_cost - 500.0).abs() < 1.0,
            "NextFit probes once per item"
        );

        // FirstFit on the same input is superlinear.
        config
            .set_by_name(
                &schema,
                "algorithm",
                pb_config::Value::Tree(pb_config::DecisionTree::single(0)),
            )
            .unwrap();
        let mut ctx = ExecCtx::new(&schema, &config, 500, 0);
        let _ = t.execute(&input, &mut ctx);
        assert!(ctx.virtual_cost() > 4.0 * nf_cost);
    }

    #[test]
    fn accuracy_conversion_round_trips() {
        for r in [1.0, 1.1, 1.5] {
            assert!((accuracy_to_ratio(ratio_to_accuracy(r)) - r).abs() < 1e-12);
        }
        // Perfect packing has accuracy 1.0.
        assert_eq!(ratio_to_accuracy(1.0), 1.0);
    }

    #[test]
    fn transform_end_to_end() {
        let t = BinPacking;
        let schema = t.schema();
        let config = schema.default_config();
        let mut rng = SmallRng::seed_from_u64(6);
        let input = t.generate_input(64, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, 64, 0);
        let out = t.execute(&input, &mut ctx);
        let acc = t.accuracy(&input, &out);
        assert!(acc <= 1.0 + 1e-12, "cannot beat OPT");
        assert!(acc > 0.0, "first fit is within 2x of OPT here");
    }
}
