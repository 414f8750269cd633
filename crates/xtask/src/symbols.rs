//! Workspace symbol table: every function and enum definition, indexed
//! for the call graph and the semantic rules.
//!
//! Built from the item trees pass 1 already parsed (one per
//! [`crate::scan::ParsedFile`]); nothing is lexed or parsed here.
//! Resolution is *name-based and conservative*: the table maps a bare
//! function name to every definition with that name anywhere in the
//! workspace, and the call graph ([`crate::callgraph`]) adds an edge to
//! all of them. That over-approximates real dispatch (two unrelated
//! `fn len` definitions alias), which is the sound direction for the
//! panic-reachability rule — it can report a path that the compiler
//! would not take, but never misses one it would.

use crate::ast::{Item, ItemKind};
use crate::workspace::{FileKind, Workspace};
use crate::ParsedEntry;
use std::collections::BTreeMap;

/// One function definition found in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into the parsed-entry list.
    pub entry: usize,
    /// Index into `ws.members`.
    pub member: usize,
    /// Package name of the owning member (e.g. `sgp-partition`).
    pub package: String,
    /// Workspace-relative file path.
    pub rel: String,
    /// Bare function name.
    pub name: String,
    /// Qualified display name: `<package>::<container path>::<name>`.
    pub qual: String,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// Inclusive `{`/`}` token indices of the body, if the fn has one.
    pub body: Option<(usize, usize)>,
    /// Unrestricted `pub`, as declared on the item (container
    /// visibility is not chased; see [`FnDef::is_entry_point`]).
    pub is_pub: bool,
    /// True when the fn or a container around it is a test-only item
    /// ([`Item::is_test`]), or the file is a test/bench/example target.
    pub is_test: bool,
    /// True when the fn is an `impl`/`trait` member (callable as a
    /// method).
    pub in_impl: bool,
}

impl FnDef {
    /// Is this fn a public entry point for reachability purposes?
    /// Conservative: a `pub fn` at module top level or in an `impl` is
    /// an entry even if an enclosing `mod` is private — the rule would
    /// rather re-check an unreachable pub fn than miss an exported one.
    pub fn is_entry_point(&self) -> bool {
        self.is_pub && !self.is_test
    }
}

/// One enum definition (name, variants) found in the workspace.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Index into the parsed-entry list.
    pub entry: usize,
    /// Package name of the owning member.
    pub package: String,
    /// Workspace-relative file path.
    pub rel: String,
    /// Enum name.
    pub name: String,
    /// Variant names with their declaration lines.
    pub variants: Vec<(String, usize)>,
}

/// The workspace symbol table: fn and enum indexes over the parsed files.
pub struct SymbolTable {
    /// Every fn definition, in deterministic (file, line) order.
    pub fns: Vec<FnDef>,
    /// Bare name → indices into `fns`.
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// Every enum definition.
    pub enums: Vec<EnumDef>,
}

impl SymbolTable {
    /// Collects fn/enum definitions from every parsed file's item tree.
    pub fn build(ws: &Workspace, entries: &[ParsedEntry]) -> SymbolTable {
        let mut fns = Vec::new();
        let mut enums = Vec::new();
        for (ei, e) in entries.iter().enumerate() {
            // The qualified-name path; its first segment is the package.
            let mut path = vec![ws.members[e.member].name.clone()];
            // Every fn of a test, bench or example target is test code.
            let in_test = e.kind != FileKind::LibSrc && e.kind != FileKind::BinSrc;
            for item in &e.file.items {
                collect(item, ei, e, &mut path, (false, in_test), &mut fns, &mut enums);
            }
        }
        fns.sort_by(|a, b| {
            (a.rel.as_str(), a.line, a.name.as_str()).cmp(&(
                b.rel.as_str(),
                b.line,
                b.name.as_str(),
            ))
        });
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        SymbolTable { fns, by_name, enums }
    }

    /// The enum named `name` inside package `pkg`, if defined exactly
    /// once there (the exhaustiveness rule requires a unique source of
    /// truth).
    pub fn unique_enum(&self, pkg: &str, name: &str) -> Option<&EnumDef> {
        let mut found = None;
        for e in &self.enums {
            if e.package == pkg && e.name == name {
                if found.is_some() {
                    return None;
                }
                found = Some(e);
            }
        }
        found
    }

    /// The fn whose body holds token `tok` of file `entry`. Bodies in a
    /// file are disjoint (nested fns are not split out), so there is at
    /// most one.
    pub fn enclosing_fn(&self, entry: usize, tok: usize) -> Option<usize> {
        self.fns.iter().position(|f| {
            f.entry == entry && f.body.is_some_and(|(open, close)| open < tok && tok < close)
        })
    }
}

/// Walks `item`, recording fns and enums. `flags` is what the item
/// inherits from its position: (inside an `impl`/`trait`, inside test
/// code).
fn collect(
    item: &Item,
    entry: usize,
    e: &ParsedEntry,
    path: &mut Vec<String>,
    (in_impl, in_test): (bool, bool),
    fns: &mut Vec<FnDef>,
    enums: &mut Vec<EnumDef>,
) {
    match item.kind {
        ItemKind::Fn => {
            let name = match &item.name {
                Some(n) => n.clone(),
                None => return,
            };
            let qual = {
                let mut q = path.join("::");
                q.push_str("::");
                q.push_str(&name);
                q
            };
            fns.push(FnDef {
                entry,
                member: e.member,
                package: path[0].clone(),
                rel: e.file.rel.clone(),
                name,
                qual,
                line: item.line,
                body: item.body,
                is_pub: item.is_pub,
                is_test: in_test || item.is_test,
                in_impl,
            });
        }
        ItemKind::Enum => {
            if let Some(name) = &item.name {
                enums.push(EnumDef {
                    entry,
                    package: path[0].clone(),
                    rel: e.file.rel.clone(),
                    name: name.clone(),
                    variants: item.variants.iter().map(|v| (v.name.clone(), v.line)).collect(),
                });
            }
        }
        ItemKind::Impl | ItemKind::Mod | ItemKind::Trait => {
            let seg = item.name.clone().unwrap_or_else(|| "_".to_string());
            let flags =
                (matches!(item.kind, ItemKind::Impl | ItemKind::Trait), in_test || item.is_test);
            path.push(seg);
            for child in &item.children {
                collect(child, entry, e, path, flags, fns, enums);
            }
            path.pop();
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_for(src: &str) -> SymbolTable {
        let (ws, entries) = crate::testkit::workspace(&[("sgp-test", "crates/p/src/lib.rs", src)]);
        SymbolTable::build(&ws, &entries)
    }

    #[test]
    fn fns_in_impls_and_mods_get_qualified_names() {
        let src = "pub fn top() {}\nimpl Widget {\n    pub fn poke(&self) {}\n}\nmod inner {\n    fn hidden() {}\n}\n";
        let t = table_for(src);
        let quals: Vec<_> = t.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(
            quals,
            vec!["sgp-test::top", "sgp-test::Widget::poke", "sgp-test::inner::hidden"]
        );
        assert!(t.fns[0].is_entry_point());
        assert!(t.fns[1].in_impl);
        assert!(!t.fns[2].is_pub);
    }

    #[test]
    fn test_code_is_not_an_entry_point() {
        let src = "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        let t = table_for(src);
        let real = t.fns.iter().find(|f| f.name == "real").expect("real");
        let helper = t.fns.iter().find(|f| f.name == "helper").expect("helper");
        assert!(real.is_entry_point());
        assert!(helper.is_test && !helper.is_entry_point());
    }

    #[test]
    fn is_test_follows_the_cfg_predicate_not_the_word_test() {
        let src = "#[cfg(not(test))]\npub fn shipped() {}\n#[cfg(all(test, debug_assertions))]\npub fn probe() {}\n";
        let t = table_for(src);
        let by = |n: &str| t.fns.iter().find(|f| f.name == n).expect("fn");
        assert!(by("shipped").is_entry_point(), "cfg(not(test)) is production code");
        assert!(by("probe").is_test);
    }

    #[test]
    fn enclosing_fn_finds_the_body_holding_a_token() {
        let src = "fn a() { x(); }\nimpl S { fn b(&self) { y(); } }\nconst C: u32 = 1;\n";
        let (ws, entries) = crate::testkit::workspace(&[("sgp-test", "crates/p/src/lib.rs", src)]);
        let t = SymbolTable::build(&ws, &entries);
        let f = &entries[0].file;
        let tok =
            |text: &str| f.tokens.iter().position(|t| t.text(&f.source) == text).expect("tok");
        assert_eq!(t.enclosing_fn(0, tok("x")).map(|i| t.fns[i].name.as_str()), Some("a"));
        assert_eq!(t.enclosing_fn(0, tok("y")).map(|i| t.fns[i].name.as_str()), Some("b"));
        assert_eq!(t.enclosing_fn(0, tok("C")), None);
    }

    #[test]
    fn enums_are_indexed_with_variant_lines() {
        let src = "pub enum Algorithm {\n    EcrHash,\n    Ldg,\n}\n";
        let t = table_for(src);
        let e = t.unique_enum("sgp-test", "Algorithm").expect("enum");
        assert_eq!(e.variants, vec![("EcrHash".to_string(), 2), ("Ldg".to_string(), 3)]);
    }
}
