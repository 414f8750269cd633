//! Fixture: `cfg` gates and the test flag. An item is test code only
//! when its `cfg` predicate *requires* `test`; a predicate that merely
//! mentions it — `not(test)`, `any(test, …)` — compiles into the shipped
//! library, so its `unwrap` must fire. Two positives, two negatives.

/// Production-only code is still production code.
#[cfg(not(test))]
fn shipped_only(v: Option<u32>) -> u32 {
    v.unwrap() // MARK-cfg-not-test
}

/// Compiled whenever the feature is on, under test or not.
#[cfg(any(test, feature = "x"))]
fn test_or_feature(v: Option<u32>) -> u32 {
    v.unwrap() // MARK-cfg-any-test
}

/// Negative: `all(test, …)` holds only under test.
#[cfg(all(test, debug_assertions))]
fn debug_test_probe(v: Option<u32>) -> u32 {
    v.unwrap()
}

/// Negative: an attribute split across lines is the same attribute.
#[cfg(
    test
)]
fn multi_line_gate(v: Option<u32>) -> u32 {
    v.unwrap()
}
