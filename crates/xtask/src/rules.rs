//! The rule catalogue, the findings collector, and the manifest rule.
//!
//! These are the checks rustc and clippy cannot express: each one
//! correlates a source file with another file — a registry module, a
//! committed pin under `tests/goldens/`, or the member manifests. The
//! determinism, panic-freedom and concurrency policies are compiler
//! lints (the crate roots, the root `clippy.toml`, DESIGN.md §6).
//!
//! Rules are scoped by *package name*, not path, so the same engine
//! lints the real workspace and the fixture corpus identically. The
//! source rules live in [`crate::crossfile`] and [`crate::spans`].

use crate::report::Finding;
use crate::workspace::Member;

/// One row of the rule catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// The id findings and JSON carry.
    pub id: &'static str,
    /// One-line description for `sgp-xtask rules`.
    pub description: &'static str,
}

/// The rule table: one row per rule, which becomes both a named
/// constant (what rule code passes to [`Findings::report`]) and an
/// entry of [`RULES`] (what `sgp-xtask rules` lists).
macro_rules! rule_table {
    ($($name:ident = $id:literal, $description:literal;)*) => {
        $(
            #[doc = $description]
            pub const $name: Rule = Rule { id: $id, description: $description };
        )*
        /// Every rule.
        pub const RULES: &[Rule] = &[$($name),*];
    };
}

rule_table! {
    TRACE_KEY_REGISTRY = "trace-key-registry",
        "every TraceSink span/counter/histogram key must be a sgp_trace::keys constant, and \
         every registry constant must be used somewhere (guards the byte-exact trace goldens)";
    SCHEMA_VERSION_SYNC = "schema-version-sync",
        "schema-version constants (sgp-trace JSON, sgp-fault FaultPlan, the Send registry, \
         partitioner snapshots) must agree with the pins in tests/goldens/SCHEMA_VERSIONS";
    SEND_BOUND_REGISTRY = "send-bound-registry",
        "every channel constructor in the execution backend must pin its payload type with a \
         turbofish, and that type must be audited in tests/goldens/SEND_REGISTRY (guards \
         which types may cross the loader-thread boundary)";
    SPAN_GUARD_BALANCE = "span-guard-balance",
        "every span_enter in a function body must be matched by a span_exit of the same key on \
         the fall-through path of the same body (guards the byte-exact trace goldens against \
         orphaned spans)";
    WORKSPACE_DEP_HYGIENE = "workspace-dep-hygiene",
        "every member manifest opts into the shared lint policy with `[lints] workspace = true`";
}

/// Is `rel` part of the designated threaded-execution backend, the one
/// module that owns thread/channel primitives? The `send-bound-registry`
/// rule scans only these files.
pub fn is_exec_backend(member: &Member, rel: &str) -> bool {
    member.name == "sgp-partition" && (rel.ends_with("src/exec.rs") || rel.contains("/src/exec/"))
}

/// Collects the findings of one run.
#[derive(Debug, Default)]
pub struct Findings(Vec<Finding>);

impl Findings {
    /// Reports `rule` at `file:line`.
    pub fn report(&mut self, rule: &Rule, file: &str, line: usize, message: impl Into<String>) {
        self.0.push(Finding::new(rule.id, file, line, message));
    }

    /// Records a file the linter could not read.
    pub fn io_error(&mut self, file: &str, err: &str) {
        self.0.push(Finding::new("io-error", file, 0, format!("cannot scan file: {err}")));
    }

    /// Everything collected, in report order.
    pub fn finish(self) -> Vec<Finding> {
        self.0
    }
}

/// Checks one member manifest for the `[lints] workspace = true`
/// opt-in. Cargo rejects an opt-in with no `[workspace.lints]` to
/// inherit and a member dependency the workspace does not declare, but
/// nothing makes a member opt in.
pub fn check_member_manifest(member: &Member, out: &mut Findings) {
    let m = &member.manifest;
    let opted_in = m
        .section("lints")
        .is_some_and(|s| s.entries.iter().any(|e| e.key == "workspace" && e.value == "true"));
    if !opted_in {
        out.report(
            &WORKSPACE_DEP_HYGIENE,
            &m.rel,
            0,
            "manifest must opt into the shared lint policy with `[lints]\\nworkspace = true`",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::parse_manifest;

    #[test]
    fn rule_table_is_consistent() {
        for (i, rule) in RULES.iter().enumerate() {
            assert!(!rule.description.trim().is_empty(), "{} lacks a description", rule.id);
            assert!(RULES[..i].iter().all(|r| r.id != rule.id), "{} is listed twice", rule.id);
        }
    }

    #[test]
    fn members_must_opt_into_workspace_lints() {
        let findings = |toml: &str| {
            let member = Member {
                name: "m".into(),
                manifest: parse_manifest(toml, "crates/m/Cargo.toml"),
                files: Vec::new(),
            };
            let mut out = Findings::default();
            check_member_manifest(&member, &mut out);
            out.finish().len()
        };
        assert_eq!(findings("[package]\nname = \"m\"\n\n[lints]\nworkspace = true\n"), 0);
        assert_eq!(findings("[package]\nname = \"m\"\n"), 1);
        assert_eq!(findings("[package]\nname = \"m\"\n\n[lints]\nworkspace = false\n"), 1);
    }
}
