//! Workspace discovery: members, manifests, and the `.rs` files each
//! rule scans.

use crate::manifest::{read_manifest, Manifest};
use std::path::{Path, PathBuf};

/// What part of a crate a source file belongs to — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/` (excluding `src/bin/` and
    /// `src/main.rs`).
    LibSrc,
    /// Binary source (`src/main.rs`, `src/bin/**`).
    BinSrc,
    /// Integration tests (`tests/*.rs`).
    TestFile,
    /// Benchmarks (`benches/*.rs`).
    BenchFile,
    /// Examples (`examples/*.rs`).
    ExampleFile,
}

/// One source file of a member.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path.
    pub path: PathBuf,
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Target classification.
    pub kind: FileKind,
}

/// One workspace member (or the root package).
#[derive(Debug)]
pub struct Member {
    /// Package name from `[package]`.
    pub name: String,
    /// Parsed manifest.
    pub manifest: Manifest,
    /// All source files of this member.
    pub files: Vec<SourceFile>,
}

/// The discovered workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// All members, root package first when present.
    pub members: Vec<Member>,
}

/// Ascends from `start` to the nearest directory whose `Cargo.toml`
/// contains a `[workspace]` section.
pub fn find_workspace_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir =
        start.canonicalize().map_err(|e| format!("cannot resolve {}: {e}", start.display()))?;
    loop {
        let candidate = dir.join("Cargo.toml");
        if candidate.is_file() {
            let text = std::fs::read_to_string(&candidate).map_err(|e| e.to_string())?;
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(dir);
            }
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => return Err("no workspace root (Cargo.toml with [workspace]) found".into()),
        }
    }
}

/// Discovers members and their files from the workspace root.
pub fn discover(root: &Path) -> Result<Workspace, String> {
    let root =
        root.canonicalize().map_err(|e| format!("cannot resolve {}: {e}", root.display()))?;
    let root_manifest_path = root.join("Cargo.toml");
    if !root_manifest_path.is_file() {
        return Err(format!("no Cargo.toml at {}", root.display()));
    }
    let root_manifest = read_manifest(&root_manifest_path, "Cargo.toml")?;

    let mut members = Vec::new();
    if root_manifest.has_section("package") {
        members.push(load_member(&root, &root, root_manifest.clone()));
    }
    for pattern in root_manifest.workspace_members() {
        for dir in expand_member_pattern(&root, &pattern) {
            let manifest_path = dir.join("Cargo.toml");
            if !manifest_path.is_file() {
                continue;
            }
            let rel = rel_path(&root, &manifest_path);
            let manifest = read_manifest(&manifest_path, &rel)?;
            members.push(load_member(&root, &dir, manifest));
        }
    }
    Ok(Workspace { root, members })
}

/// Expands a `[workspace] members` entry: either a literal path or a
/// `dir/*` glob (the only glob shape Cargo manifests here use).
fn expand_member_pattern(root: &Path, pattern: &str) -> Vec<PathBuf> {
    if let Some(prefix) = pattern.strip_suffix("/*") {
        let base = root.join(prefix);
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(&base)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && p.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        dirs
    } else {
        vec![root.join(pattern)]
    }
}

fn load_member(root: &Path, dir: &Path, manifest: Manifest) -> Member {
    let name = manifest.package_name.clone().unwrap_or_else(|| "<unnamed>".to_string());
    let mut files = Vec::new();
    collect_rs(root, &dir.join("src"), FileKind::LibSrc, true, &mut files);
    collect_rs(root, &dir.join("tests"), FileKind::TestFile, false, &mut files);
    collect_rs(root, &dir.join("benches"), FileKind::BenchFile, false, &mut files);
    collect_rs(root, &dir.join("examples"), FileKind::ExampleFile, false, &mut files);
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Member { name, manifest, files }
}

/// Collects `.rs` files under `dir`. `recursive` descends into
/// subdirectories (used for `src/`); non-recursive collection matches
/// Cargo's target auto-discovery for `tests/`, `benches/` and
/// `examples/` (top-level files only), which also keeps lint fixture
/// trees under `tests/fixtures/` out of the real scan. Directories named
/// `fixtures` are always skipped.
fn collect_rs(root: &Path, dir: &Path, kind: FileKind, recursive: bool, out: &mut Vec<SourceFile>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if !recursive {
                continue;
            }
            let dirname = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if dirname == "fixtures" || dirname == "target" {
                continue;
            }
            collect_rs(root, &path, kind, true, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            let rel = rel_path(root, &path);
            let kind = classify(&rel, kind);
            out.push(SourceFile { path, rel, kind });
        }
    }
}

/// Refines `src/` files: `src/main.rs` and `src/bin/**` are binaries.
fn classify(rel: &str, kind: FileKind) -> FileKind {
    if kind == FileKind::LibSrc && (rel.ends_with("src/main.rs") || rel.contains("src/bin/")) {
        FileKind::BinSrc
    } else {
        kind
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_bins() {
        assert_eq!(classify("crates/x/src/main.rs", FileKind::LibSrc), FileKind::BinSrc);
        assert_eq!(classify("crates/x/src/bin/tool.rs", FileKind::LibSrc), FileKind::BinSrc);
        assert_eq!(classify("crates/x/src/lib.rs", FileKind::LibSrc), FileKind::LibSrc);
        assert_eq!(classify("crates/x/src/engine.rs", FileKind::LibSrc), FileKind::LibSrc);
    }
}
