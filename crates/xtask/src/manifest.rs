//! A minimal `Cargo.toml` section reader for member discovery and the
//! `[lints]` opt-in rule.
//!
//! This is not a general TOML parser — it reads exactly the shapes that
//! appear in Cargo manifests: `[section.header]` lines and single-line
//! `key = value` entries. Multi-line arrays are joined for the
//! `[workspace] members` list.

use std::path::Path;

/// One `key = value` entry inside a section.
#[derive(Debug, Clone)]
pub struct Entry {
    /// The key, including any dotted suffix (`serde.workspace`).
    pub key: String,
    /// The raw value text after `=`, trimmed.
    pub value: String,
}

/// One `[section]` with its entries.
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Header without brackets (e.g. `dependencies`,
    /// `workspace.lints.rust`).
    pub name: String,
    /// Entries in order of appearance.
    pub entries: Vec<Entry>,
}

/// A parsed manifest.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workspace-relative path (for findings).
    pub rel: String,
    /// `package.name`, when present.
    pub package_name: Option<String>,
    /// All sections in order.
    pub sections: Vec<Section>,
}

impl Manifest {
    /// Finds a section by exact name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// True when a section with this exact name exists.
    pub fn has_section(&self, name: &str) -> bool {
        self.section(name).is_some()
    }

    /// The `[workspace] members` globs/paths, when this is a workspace
    /// root manifest.
    pub fn workspace_members(&self) -> Vec<String> {
        let Some(ws) = self.section("workspace") else { return Vec::new() };
        let Some(entry) = ws.entries.iter().find(|e| e.key == "members") else {
            return Vec::new();
        };
        // The value is a (possibly multi-line, pre-joined) TOML array of
        // strings: ["crates/*", "tools/thing"].
        entry
            .value
            .trim_start_matches('[')
            .trim_end_matches(']')
            .split(',')
            .map(|p| p.trim().trim_matches('"').to_string())
            .filter(|p| !p.is_empty())
            .collect()
    }
}

/// Reads and parses a manifest file.
pub fn read_manifest(path: &Path, rel: &str) -> Result<Manifest, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Ok(parse_manifest(&text, rel))
}

/// Parses manifest text (entry point for unit tests).
pub fn parse_manifest(text: &str, rel: &str) -> Manifest {
    let mut sections: Vec<Section> = Vec::new();
    let mut package_name = None;
    // Implicit top-level "section" for keys before any header (unused by
    // Cargo manifests in practice, but keeps the parser total).
    let mut current = Section::default();

    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0usize;
    while i < lines.len() {
        let raw = lines[i];
        let line = strip_toml_comment(raw).trim().to_string();
        i += 1;
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            if !current.name.is_empty() || !current.entries.is_empty() {
                sections.push(std::mem::take(&mut current));
            }
            current.name = line.trim_matches(['[', ']']).trim().to_string();
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            // Join multi-line arrays (only `members = [` needs this).
            if value.starts_with('[') && !value.ends_with(']') {
                while i < lines.len() {
                    let cont = strip_toml_comment(lines[i]).trim().to_string();
                    i += 1;
                    value.push(' ');
                    value.push_str(&cont);
                    if cont.ends_with(']') {
                        break;
                    }
                }
            }
            if current.name == "package" && key == "name" {
                package_name = Some(value.trim_matches('"').to_string());
            }
            current.entries.push(Entry { key, value });
        }
    }
    if !current.name.is_empty() || !current.entries.is_empty() {
        sections.push(current);
    }
    Manifest { rel: rel.to_string(), package_name, sections }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (idx, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..idx],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[package]
name = "sgp-demo" # trailing comment
version = "0.1.0"

[dependencies]
serde.workspace = true
rand = { workspace = true }
bad = "1.0"

[lints]
workspace = true
"#;

    #[test]
    fn parses_sections_and_package_name() {
        let m = parse_manifest(SAMPLE, "Cargo.toml");
        assert_eq!(m.package_name.as_deref(), Some("sgp-demo"));
        assert!(m.has_section("dependencies"));
        assert!(m.has_section("lints"));
        let deps = m.section("dependencies").unwrap();
        assert_eq!(deps.entries.len(), 3);
        assert_eq!(deps.entries[2].key, "bad");
        assert_eq!(deps.entries[2].value, "\"1.0\"");
    }

    #[test]
    fn hash_in_string_is_not_a_comment() {
        let m = parse_manifest("[package]\nname = \"a#b\"\n", "t");
        assert_eq!(m.package_name.as_deref(), Some("a#b"));
    }

    #[test]
    fn multiline_members_array_is_joined() {
        let m =
            parse_manifest("[workspace]\nmembers = [\n  \"crates/*\",\n  \"tools/x\",\n]\n", "t");
        assert_eq!(m.workspace_members(), vec!["crates/*".to_string(), "tools/x".to_string()]);
    }

    #[test]
    fn single_line_members() {
        let m = parse_manifest("[workspace]\nmembers = [\"crates/*\"]\n", "t");
        assert_eq!(m.workspace_members(), vec!["crates/*".to_string()]);
    }
}
