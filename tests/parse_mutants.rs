//! The front end must reject malformed source with an error, never a
//! panic.
//!
//! Seeded character-level mutants of the shipped `examples/dsl`
//! programs (deletions, truncations, duplicated segments and inserted
//! tokens, including multi-byte characters) are parsed under
//! `catch_unwind`; every one must come back as `Ok` or `Err`. The
//! mutants come from a fixed LCG, so a failure names a reproducible
//! mutant index.

use petabricks::lang::parse_program;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS: usize = 2400;

/// Space-separated fragments inserted by the insert mutation:
/// multi-byte characters, operator halves and full tokens, brackets,
/// a newline (which ends a `//` comment), and keywords.
const INSERTS: &str = "é … — § { } ( ) [ ] .. . = == < >= & | / // \n # 1e 2.5 0..n \
                       to from rule transform if else for ; ,";

/// Knuth's MMIX LCG; the high bits are the usable ones.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Applies one to four mutations to `source`, on character boundaries.
fn mutate(source: &str, inserts: &[&str], rng: &mut Lcg) -> String {
    let mut chars: Vec<char> = source.chars().collect();
    for _ in 0..1 + rng.below(4) {
        let len = chars.len();
        let at = rng.below(len + 1);
        match rng.below(4) {
            0 => {
                let end = (at + 1 + rng.below(8)).min(len);
                chars.drain(at..end);
            }
            1 => chars.truncate(at),
            2 => {
                let end = (at + 1 + rng.below(32)).min(len);
                let segment: Vec<char> = chars[at..end].to_vec();
                let to = rng.below(len + 1);
                chars.splice(to..to, segment);
            }
            _ => {
                let token = inserts[rng.below(inserts.len())];
                chars.splice(at..at, token.chars());
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn mutated_dsl_sources_never_panic_the_parser() {
    let dir = format!("{}/examples/dsl", env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|entry| entry.expect("readable directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "pb"))
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            (path.display().to_string(), text)
        })
        .collect();
    sources.sort();
    assert!(!sources.is_empty(), "no .pb programs under {dir}");

    // The unmutated programs parse.
    for (path, text) in &sources {
        if let Err(e) = parse_program(text) {
            panic!("{path}: {e}");
        }
    }

    let inserts: Vec<&str> = INSERTS.split(' ').collect();
    let mut rng = Lcg(0x05EE_DD51);
    let mut panicked = Vec::new();
    for index in 0..MUTANTS {
        let (path, text) = &sources[index % sources.len()];
        let mutant = mutate(text, &inserts, &mut rng);
        if catch_unwind(AssertUnwindSafe(|| parse_program(&mutant))).is_err() {
            panicked.push(format!("mutant {index} of {path}"));
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {MUTANTS} mutants panicked the parser; first: {:?}",
        panicked.len(),
        &panicked[..panicked.len().min(5)]
    );
}
