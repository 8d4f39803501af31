//! Regenerates Fig. 7: the best bin-packing algorithm for each
//! (required accuracy, input size) cell — "best" meaning on the
//! optimal frontier: no other algorithm has better cost while meeting
//! the accuracy requirement on average.

use pb_benchmarks::binpacking::{generate_input, pack_with, ALGORITHM_NAMES};
use pb_benchmarks::BinPacking;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Average `(bins/OPT ratio, cost)` per algorithm at one size.
fn profile(n: u64, trials: u64) -> Vec<(f64, f64)> {
    let t = BinPacking;
    let schema = t.schema();
    let config = schema.default_config();
    let mut out = vec![(0.0, 0.0); ALGORITHM_NAMES.len()];
    for trial in 0..trials {
        let mut rng = SmallRng::seed_from_u64(0xF17 ^ (n << 8) ^ trial);
        let input = generate_input(n, &mut rng);
        for (alg, acc) in out.iter_mut().enumerate() {
            let mut ctx = ExecCtx::new(&schema, &config, n, trial);
            let packing = pack_with(alg, &input.items, 2, &mut ctx);
            acc.0 += packing.bins() as f64 / input.opt_bins.max(1) as f64;
            acc.1 += ctx.virtual_cost();
        }
    }
    for acc in &mut out {
        acc.0 /= trials as f64;
        acc.1 /= trials as f64;
    }
    out
}

fn main() {
    let sizes: Vec<u64> = (3..=14).map(|k| 1u64 << k).collect();
    let ratios: Vec<f64> = (0..=10).map(|i| 1.0 + 0.05 * i as f64).collect();

    println!("# Fig 7: best algorithm per (required bins/OPT ratio, input size)");
    print!("{:>8}", "size");
    for r in &ratios {
        print!(" {:>6.2}", r);
    }
    println!();

    for &n in &sizes {
        let profiles = profile(n, 3);
        print!("{:>8}", n);
        for &r in &ratios {
            // Cheapest algorithm whose mean ratio meets the requirement.
            let best = profiles
                .iter()
                .enumerate()
                .filter(|(_, (ratio, _))| *ratio <= r)
                .min_by(|(_, (_, ca)), (_, (_, cb))| ca.partial_cmp(cb).expect("finite costs"))
                .map(|(alg, _)| alg);
            match best {
                Some(alg) => print!(" {:>6}", abbreviate(ALGORITHM_NAMES[alg])),
                None => print!(" {:>6}", "-"),
            }
        }
        println!();
    }

    println!("\nLegend:");
    for name in ALGORITHM_NAMES {
        println!("  {:>6} = {name}", abbreviate(name));
    }
}

/// Short labels for the grid cells.
fn abbreviate(name: &str) -> String {
    let mut s: String = name.chars().filter(|c| c.is_ascii_uppercase()).collect();
    if s.is_empty() {
        s = name.chars().take(4).collect();
    }
    s
}
