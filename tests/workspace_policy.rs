//! Workspace invariants that span files rather than code (DESIGN.md §6).
//!
//! The compiler holds the rest of the policy: clippy for hash
//! containers, the host clock, threads and panics; the types
//! `sgp_trace::Key` (every event name is a registry constant) and
//! `sgp_trace::SpanGuard` (every span is exited through the guard that
//! entered it). What is left reads files:
//!
//! * every member manifest opts into the shared `[workspace.lints]`;
//! * every `sgp_trace::keys` constant is used outside the registry;
//! * every library `pub` item is named outside its crate (rustc's
//!   `dead_code` never fires on a `pub` item, so an unused one would
//!   hide dead code);
//! * the on-disk schema constants agree with
//!   `tests/goldens/SCHEMA_VERSIONS`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The root manifest plus every `crates/*/Cargo.toml` (the workspace's
/// `members = ["crates/*"]`), sorted.
fn manifests() -> Vec<PathBuf> {
    let mut out = vec![root().join("Cargo.toml")];
    let crates = fs::read_dir(root().join("crates")).expect("crates/ is readable");
    let mut members: Vec<PathBuf> = crates
        .map(|d| d.expect("crates/ entry").path().join("Cargo.toml"))
        .filter(|m| m.is_file())
        .collect();
    members.sort();
    out.extend(members);
    out
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Does `manifest` hold a `[lints]` table with `workspace = true`?
fn opts_into_workspace_lints(manifest: &str) -> bool {
    let mut in_lints = false;
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or_default().trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.split_whitespace().collect::<String>() == "workspace=true" {
            return true;
        }
    }
    false
}

/// Is `word` in `text` with no identifier character on either side?
fn contains_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(at, _)| {
        let before = text[..at].chars().next_back();
        let after = text[at + word.len()..].chars().next();
        !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
    })
}

#[test]
fn every_member_opts_into_the_workspace_lints() {
    let manifests = manifests();
    assert!(manifests.len() > 2, "found the members: {manifests:?}");
    let missing: Vec<_> =
        manifests.iter().filter(|m| !opts_into_workspace_lints(&read(m))).collect();
    assert!(
        missing.is_empty(),
        "add `[lints]\\nworkspace = true` so the shared lint table applies: {missing:?}"
    );
}

#[test]
fn every_trace_key_is_used_outside_the_registry() {
    let registry_path = root().join("crates/trace/src/keys.rs");
    let registry = read(&registry_path);
    let names: Vec<&str> = registry
        .lines()
        .filter_map(|l| l.strip_prefix("pub const ")?.split(':').next())
        .map(str::trim)
        .collect();
    assert!(names.len() > 10, "read the registry constants: {names:?}");

    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let sources: String = files.iter().filter(|f| **f != registry_path).map(|f| read(f)).collect();
    let orphans: Vec<&str> = names.into_iter().filter(|n| !contains_word(&sources, n)).collect();
    assert!(
        orphans.is_empty(),
        "sgp_trace::keys constants no crate uses — delete them or wire up the instrumentation \
         they promise: {orphans:?}"
    );
}

/// The name a line declares as a `pub` item (`fn`, `struct`, `enum`,
/// `trait`, `type`, `const`, `static`), or `None`. `pub(crate)`, `pub
/// mod`, `pub use` and fields declare no item here.
fn pub_item_name(line: &str) -> Option<&str> {
    let mut words = line.trim_start().strip_prefix("pub ")?.split_whitespace();
    let mut kind = words.next()?;
    if matches!(kind, "const" | "unsafe" | "async") && line.contains(" fn ") {
        kind = words.next()?;
    }
    if !matches!(kind, "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static") {
        return None;
    }
    let name = words.next()?;
    let end = name.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(name.len());
    Some(&name[..end]).filter(|n| !n.is_empty())
}

/// The public signature that starts at `lines[at]`, a line opening with
/// `pub `: a field line alone, a `trait` or `enum` with its whole body
/// (every member is public with it), anything else up to its first `{`
/// or `;`.
fn signature(lines: &[&str], at: usize) -> String {
    let first = lines[at].trim();
    let rest = &lines[at..];
    let len = if first.starts_with("pub trait ") || first.starts_with("pub enum ") {
        let mut depth = 0i64;
        rest.iter()
            .position(|l| {
                depth += l.matches('{').count() as i64 - l.matches('}').count() as i64;
                depth <= 0 && (l.contains('}') || l.trim_end().ends_with(';'))
            })
            .map_or(rest.len(), |i| i + 1)
    } else if first.ends_with(',') {
        1
    } else {
        rest.iter()
            .position(|l| l.contains('{') || l.trim_end().ends_with(';'))
            .map_or(rest.len(), |i| i + 1)
    };
    rest[..len].join("\n")
}

#[test]
fn every_library_pub_item_is_named_outside_its_crate() {
    let crates_dir = root().join("crates");
    let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .expect("crates/ is readable")
        .map(|d| d.expect("crates/ entry").path())
        .filter(|p| p.join("src/lib.rs").is_file())
        .collect();
    members.sort();
    assert!(members.len() > 5, "found the library crates: {members:?}");

    let mut shared = Vec::new();
    for dir in ["src", "tests", "examples", "perf/src", "perf/tests"] {
        rust_files(&root().join(dir), &mut shared);
    }
    let shared: String = shared.iter().map(|f| read(f)).collect();

    let mut unnamed = Vec::new();
    for member in &members {
        // Outside the crate: every other package, this package's binary
        // targets, and the root package, examples and benchmark.
        let mut outside = Vec::new();
        for other in members.iter().filter(|m| *m != member) {
            rust_files(other, &mut outside);
        }
        rust_files(&member.join("src/bin"), &mut outside);
        outside.push(member.join("src/main.rs"));
        let outside: String =
            outside.iter().filter(|f| f.is_file()).map(|f| read(f)).collect::<String>() + &shared;

        let mut library = Vec::new();
        rust_files(&member.join("src"), &mut library);
        library.retain(|f| !f.starts_with(member.join("src/bin")) && !f.ends_with("src/main.rs"));
        let texts: Vec<String> = library.iter().map(|f| read(f)).collect();
        // (file, line, name, signature) of every `pub` line of the crate.
        let mut declarations = Vec::new();
        for (file, text) in library.iter().zip(&texts) {
            let lines: Vec<&str> = text.lines().collect();
            for (at, line) in lines.iter().enumerate() {
                let line = line.trim_start();
                if line.starts_with("pub ")
                    && !line.starts_with("pub use ")
                    && !line.starts_with("pub mod ")
                {
                    declarations.push((file, at + 1, pub_item_name(line), signature(&lines, at)));
                }
            }
        }
        for (i, (file, line, name, _)) in declarations.iter().enumerate() {
            let Some(name) = name else { continue };
            let in_a_signature = declarations
                .iter()
                .enumerate()
                .any(|(j, (_, _, _, sig))| j != i && contains_word(sig, name));
            if !contains_word(&outside, name) && !in_a_signature {
                let file = file.strip_prefix(root()).unwrap_or(file);
                unnamed.push(format!("{}:{line} {name}", file.display()));
            }
        }
    }
    assert!(
        unnamed.is_empty(),
        "`pub` items no other crate, binary, root test, example or benchmark names, and no \
         other public signature carries — make them `pub(crate)` and let rustc report what is \
         dead: {unnamed:#?}"
    );
}

#[test]
fn schema_constants_match_their_pins() {
    let text = read(&root().join("tests/goldens/SCHEMA_VERSIONS"));
    let pins: BTreeMap<&str, u64> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.split_once('=').unwrap_or_else(|| panic!("pin `{l}`"));
            (name.trim(), value.trim().parse().unwrap_or_else(|e| panic!("pin `{l}`: {e}")))
        })
        .collect();
    let constants = BTreeMap::from([
        ("trace", sgp_trace::SCHEMA_VERSION),
        ("snapshot", u64::from(sgp_partition::snapshot::SNAPSHOT_SCHEMA_VERSION)),
    ]);
    assert_eq!(
        pins, constants,
        "bump a pin only together with its constant and a goldens re-bless in the same change"
    );
}

#[test]
fn the_policy_readers_see_what_they_should() {
    assert!(opts_into_workspace_lints("[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"));
    assert!(opts_into_workspace_lints("[lints] # shared\nworkspace=true # yes\n"));
    assert!(!opts_into_workspace_lints("[lints]\nworkspace = false\n"));
    assert!(!opts_into_workspace_lints("[lints]\n[dependencies]\nworkspace = true\n"));
    assert!(!opts_into_workspace_lints("# [lints]\n# workspace = true\n"));

    assert_eq!(pub_item_name("    pub fn place(&mut self) -> u32 {"), Some("place"));
    assert_eq!(pub_item_name("pub const fn bits<T>() -> u32 {"), Some("bits"));
    assert_eq!(pub_item_name("pub const LIMIT: u32 = 3;"), Some("LIMIT"));
    assert_eq!(pub_item_name("pub struct Shape<'g> {"), Some("Shape"));
    assert_eq!(pub_item_name("pub(crate) fn hidden() {"), None);
    assert_eq!(pub_item_name("    pub owner: Vec<u32>,"), None);
    assert_eq!(pub_item_name("pub use shapes::Shape;"), None);
    let lines = ["pub fn f(", "    a: Alpha,", ") -> Beta {", "    gamma()", "}"];
    assert_eq!(signature(&lines, 0), "pub fn f(\n    a: Alpha,\n) -> Beta {");
    let lines = ["pub enum E {", "    A(Alpha),", "    B { b: Beta },", "}", "pub fn g() {}"];
    assert_eq!(signature(&lines, 0), lines[..4].join("\n"));
    assert_eq!(
        signature(&["    pub field: Alpha,", "    other: Beta,"], 0),
        "    pub field: Alpha,"
    );

    // Not registry names: this file is searched too.
    assert!(contains_word("sink.counter_add(keys::X_Y, m, 1)", "X_Y"));
    assert!(!contains_word("keys::X_Y_TOTAL", "X_Y"));
    assert!(!contains_word("MY_X_Y", "X_Y"));
}
