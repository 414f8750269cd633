//! Fixture: a determinism-scoped crate seeded with one violation of
//! every source rule, plus tricky negatives that must NOT fire. The
//! integration test locates expected findings by the MARK tokens.
#![forbid(unsafe_code)]
// The crate root deliberately lacks `#![warn(missing_docs)]`.

use std::collections::HashMap; // MARK-hash-use
use std::collections::HashSet; // MARK-hashset-use

pub fn nondeterministic_lookup(keys: &[u32]) -> Vec<u32> {
    let mut m: HashMap<u32, u32> = HashMap::new(); // MARK-hash-local
    let mut seen: HashSet<u32> = HashSet::new(); // MARK-hashset-local
    for &k in keys {
        m.insert(k, k * 2);
        seen.insert(k);
    }
    m.values().copied().collect()
}

pub fn wallclock_seed() -> u64 {
    let start = std::time::Instant::now(); // MARK-instant
    let _rng = rand::thread_rng(); // MARK-rng
    start.elapsed().as_nanos() as u64
}

pub fn panicky(v: Option<u32>) -> u32 {
    let first = v.unwrap(); // MARK-unwrap
    if first > 100 {
        panic!("too big"); // MARK-panic
    }
    first
}

// MARK-bad-allow sgp-lint: allow(no-panic-in-lib)
pub fn unjustified(v: Option<u32>) -> u32 {
    v.expect("missing justification above, so this still fires") // MARK-unsuppressed
}

pub fn suppressed() -> u32 {
    // sgp-lint: allow(no-panic-in-lib): fixture negative — a justified directive must silence the next line
    todo!()
}

// sgp-lint: allow(no-hash-iteration): fixture — nothing nearby uses a hash container, so this line allow is stale MARK-stale-allow
pub fn no_hashes_here() -> u32 {
    7
}

// ---- negatives: none of the following may produce findings ----

/// Mentions HashMap, Instant, unwrap() and panic! only in docs.
pub fn doc_only() -> u32 {
    let s = "HashMap iteration and thread_rng in a string";
    let r = r#"raw string with unwrap() and SystemTime"#;
    /* block comment: HashSet::new().unwrap() panic! */
    let lifetime_tick: &'static str = "not a char literal";
    let quote = '"';
    let fallback = None.unwrap_or(3u32);
    (s.len() + r.len() + lifetime_tick.len() + quote as usize) as u32 + fallback
}

/* a nested /* block comment: HashMap::new().unwrap() and
std::time::Instant::now() */ still inside the outer comment, so
panic!("never fires") stays invisible to every rule */
/// Raw strings with hash guards hide `.unwrap()` and thread_rng too.
pub fn lexer_adversarial() -> u32 {
    let deep = r##"hash-guarded raw: "quoted" # thread_rng() .unwrap()"##;
    let byte_raw = br#"HashSet::new() panic!("nope")"#;
    (deep.len() + byte_raw.len()) as u32
}

/// A doc comment spelling out `sgp-lint: allow(no-panic-in-lib): docs
/// never carry directives` must not parse as one — were it parsed, it
/// would surface below as a stale-allow error.
pub fn doc_directive_is_inert() -> u32 {
    11
}

// sgp-lint: allow-scope(no-panic-in-lib): fixture negative — the whole item below may unwrap
pub fn scoped_suppression(v: Option<u32>) -> u32 {
    let a = v.unwrap();
    let b = v.expect("still inside the allow-scope item");
    a + b
}

#[cfg(test)]
mod tests {
    #[test]
    fn unit_tests_may_unwrap() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}
