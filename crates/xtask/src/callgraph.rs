//! Conservative intra-workspace call graph over the symbol table.
//!
//! Edges are *name-resolved*: a call site `helper(…)` or `x.helper(…)`
//! inside an fn body adds an edge to **every** workspace fn named
//! `helper`. This over-approximates real dispatch (no type checking, no
//! path resolution beyond the last segment), which is the sound
//! direction for panic-reachability: the rule may surface a path the
//! compiler would never take, but cannot miss one it would. Calls to
//! names with no workspace definition (std, dependencies, locals that
//! shadow fns) resolve to nothing and add no edge.

use crate::cursor::{ident, ident_is, is_call_position, is_method_call, prev};
use crate::parser::is_keyword;
use crate::symbols::SymbolTable;
use std::collections::BTreeSet;

/// The workspace call graph; node indices are indices into
/// [`SymbolTable::fns`].
pub struct CallGraph {
    /// Outgoing edges per fn, sorted and deduplicated.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Scans every fn body for call sites and resolves them by name.
    pub fn build(symbols: &SymbolTable, entries: &[crate::ParsedEntry]) -> CallGraph {
        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); symbols.fns.len()];
        for (fi, f) in symbols.fns.iter().enumerate() {
            let Some((open, close)) = f.body else { continue };
            let file = &entries[f.entry].file;
            let (src, toks) = (file.source.as_str(), file.tokens.as_slice());
            let mut out = BTreeSet::new();
            for i in open + 1..close {
                let Some(name) = ident(src, toks, i).filter(|n| !is_keyword(n)) else { continue };
                // `fn helper(` is a (nested) definition, not a call.
                let called = is_method_call(src, toks, i)
                    || (is_call_position(src, toks, i)
                        && !ident_is(src, toks, prev(toks, i), "fn"));
                if !called {
                    continue;
                }
                if let Some(defs) = symbols.by_name.get(name) {
                    out.extend(defs.iter().copied().filter(|&d| d != fi));
                }
            }
            edges[fi] = out.into_iter().collect();
        }
        CallGraph { edges }
    }

    /// Multi-source BFS from `roots`, visited in the given order so
    /// paths are deterministic.
    pub fn reach(&self, roots: Vec<usize>) -> Reach {
        let mut parent: Vec<Option<usize>> = vec![None; self.edges.len()];
        let mut queue = std::collections::VecDeque::new();
        for &s in &roots {
            if parent[s].is_none() {
                parent[s] = Some(s);
                queue.push_back(s);
            }
        }
        while let Some(u) = queue.pop_front() {
            for &v in &self.edges[u] {
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        Reach { roots, parent }
    }

    /// Renders the subgraph `reach` covers as deterministic Graphviz
    /// DOT (nodes sorted by qualified name, roots bold).
    pub fn to_dot(&self, symbols: &SymbolTable, reach: &Reach) -> String {
        let mut nodes: Vec<usize> = (0..self.edges.len()).filter(|&i| reach.reaches(i)).collect();
        nodes.sort_by(|&a, &b| symbols.fns[a].qual.cmp(&symbols.fns[b].qual));
        let root_set: BTreeSet<usize> = reach.roots.iter().copied().collect();
        let mut out = String::from(
            "digraph callgraph {\n    rankdir=LR;\n    node [shape=box, fontsize=10];\n",
        );
        for &n in &nodes {
            let f = &symbols.fns[n];
            let shape = if root_set.contains(&n) { ", style=bold" } else { "" };
            out.push_str(&format!(
                "    \"{}\" [label=\"{}\\n{}:{}\"{}];\n",
                f.qual, f.qual, f.rel, f.line, shape
            ));
        }
        let mut edge_lines = Vec::new();
        for &n in &nodes {
            for &m in &self.edges[n] {
                if reach.reaches(m) {
                    edge_lines.push(format!(
                        "    \"{}\" -> \"{}\";\n",
                        symbols.fns[n].qual, symbols.fns[m].qual
                    ));
                }
            }
        }
        edge_lines.sort();
        edge_lines.dedup();
        for l in edge_lines {
            out.push_str(&l);
        }
        out.push_str("}\n");
        out
    }
}

/// What a set of root fns reaches: the BFS tree of [`CallGraph::reach`].
pub struct Reach {
    /// The BFS sources (the public entry points), in visit order.
    pub roots: Vec<usize>,
    /// Per fn index: `None` (unreached) or the BFS parent, a root being
    /// its own.
    parent: Vec<Option<usize>>,
}

impl Reach {
    /// Is fn `f` a root or transitively called from one?
    pub fn reaches(&self, f: usize) -> bool {
        self.parent[f].is_some()
    }

    /// The call path from a root down to `target` (inclusive), as
    /// indices into [`SymbolTable::fns`]. Empty if unreached.
    pub fn path_to(&self, target: usize) -> Vec<usize> {
        let mut path = Vec::new();
        let mut at = target;
        while let Some(p) = self.parent[at] {
            path.push(at);
            if p == at {
                path.reverse();
                return path;
            }
            at = p;
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::workspace;

    fn idx(t: &SymbolTable, qual: &str) -> usize {
        t.fns.iter().position(|f| f.qual == qual).unwrap_or_else(|| panic!("no fn {qual}"))
    }

    #[test]
    fn direct_method_and_cross_crate_edges() {
        let a = "pub fn entry() { helper(); }\nfn helper() { Widget::poke_all(); }\npub struct Widget;\nimpl Widget {\n    pub fn poke_all() { let w = Widget; w.poke(); }\n    fn poke(&self) { sgp_b::remote(); }\n}\n";
        let b = "pub fn remote() {}\n";
        let (ws, entries) =
            workspace(&[("sgp-a", "crates/a/src/lib.rs", a), ("sgp-b", "crates/b/src/lib.rs", b)]);
        let t = SymbolTable::build(&ws, &entries);
        let g = CallGraph::build(&t, &entries);

        let entry_fn = idx(&t, "sgp-a::entry");
        let helper = idx(&t, "sgp-a::helper");
        let poke_all = idx(&t, "sgp-a::Widget::poke_all");
        let poke = idx(&t, "sgp-a::Widget::poke");
        let remote = idx(&t, "sgp-b::remote");

        assert_eq!(g.edges[entry_fn], vec![helper], "direct call");
        assert!(g.edges[poke_all].contains(&poke), "method call resolves by name");
        assert!(g.edges[poke].contains(&remote), "cross-crate path call");

        let reach = g.reach(vec![entry_fn]);
        assert!(reach.reaches(remote), "entry -> helper -> poke_all -> poke -> remote");
        let path = reach.path_to(remote);
        let quals: Vec<_> = path.iter().map(|&i| t.fns[i].qual.as_str()).collect();
        assert_eq!(
            quals,
            vec![
                "sgp-a::entry",
                "sgp-a::helper",
                "sgp-a::Widget::poke_all",
                "sgp-a::Widget::poke",
                "sgp-b::remote"
            ]
        );
    }

    #[test]
    fn shadowed_name_without_call_syntax_is_not_an_edge() {
        let src = "pub fn entry() -> u32 { let helper = 5; helper + 1 }\nfn helper() {}\n";
        let (ws, entries) = workspace(&[("sgp-a", "crates/a/src/lib.rs", src)]);
        let t = SymbolTable::build(&ws, &entries);
        let g = CallGraph::build(&t, &entries);
        assert!(g.edges[idx(&t, "sgp-a::entry")].is_empty(), "no call syntax, no edge");
    }

    #[test]
    fn nested_fn_definition_is_not_a_call() {
        let src = "pub fn outer() { fn inner() {} inner(); }\nfn unrelated() {}\n";
        let (ws, entries) = workspace(&[("sgp-a", "crates/a/src/lib.rs", src)]);
        let t = SymbolTable::build(&ws, &entries);
        let g = CallGraph::build(&t, &entries);
        // `inner` is not split into its own FnDef (nested fns stay in the
        // parent body), so the call to it resolves to nothing; the `fn
        // inner` keyword sequence itself must not create a self-edge.
        assert!(g.edges[idx(&t, "sgp-a::outer")].is_empty());
    }

    #[test]
    fn dot_output_is_deterministic_and_rooted() {
        let src = "pub fn entry() { helper(); }\nfn helper() {}\nfn orphan() {}\n";
        let (ws, entries) = workspace(&[("sgp-a", "crates/a/src/lib.rs", src)]);
        let t = SymbolTable::build(&ws, &entries);
        let g = CallGraph::build(&t, &entries);
        let reach = g.reach(vec![idx(&t, "sgp-a::entry")]);
        let dot = g.to_dot(&t, &reach);
        assert!(dot.contains("\"sgp-a::entry\" -> \"sgp-a::helper\";"));
        assert!(!dot.contains("orphan"), "unreached fns stay out of the artifact");
        assert_eq!(dot, g.to_dot(&t, &reach));
        assert!(reach.path_to(idx(&t, "sgp-a::orphan")).is_empty());
    }
}
