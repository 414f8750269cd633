//! Plain-text edge-list persistence.
//!
//! The original study streams SNAP/WebGraph edge lists from disk during
//! loading; the reproduction uses the same whitespace-separated
//! `src dst` format (one edge per line, `#`-prefixed comment lines
//! ignored) so real datasets can be dropped in if available.

use crate::csr::Graph;
use crate::types::Edge;
use crate::GraphBuilder;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that is neither a comment nor a valid `src dst` pair.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "parse error on line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Reads an edge list from any buffered reader.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Graph, IoError> {
    let mut builder = GraphBuilder::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (src, dst) = match (parts.next(), parts.next()) {
            (Some(s), Some(d)) => (s, d),
            _ => return Err(IoError::Parse { line: idx + 1, content: trimmed.to_string() }),
        };
        let src: u32 = src
            .parse()
            .map_err(|_| IoError::Parse { line: idx + 1, content: trimmed.to_string() })?;
        let dst: u32 = dst
            .parse()
            .map_err(|_| IoError::Parse { line: idx + 1, content: trimmed.to_string() })?;
        builder.push_edge(src, dst);
    }
    Ok(builder.build())
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<Graph, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(io::BufReader::new(file))
}

/// Writes a graph as an edge list with a header comment.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# sgp edge list: {} vertices, {} edges", g.num_vertices(), g.num_edges())?;
    for Edge { src, dst } in g.edges() {
        writeln!(w, "{src} {dst}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_text() {
        let g = GraphBuilder::new().add_edge(0, 1).add_edge(1, 2).add_edge(5, 0).build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\n% matrix-market style comment\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_error_reports_line() {
        let text = "0 1\nnot-a-number 3\n";
        match read_edge_list(text.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_column_is_parse_error() {
        let text = "0\n";
        assert!(matches!(read_edge_list(text.as_bytes()), Err(IoError::Parse { line: 1, .. })));
    }

    #[test]
    fn tabs_and_extra_columns_accepted() {
        let text = "0\t1\tweight=3\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let g = GraphBuilder::new().add_edge(2, 3).add_edge(3, 4).build();
        let dir = std::env::temp_dir().join("sgp_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let back = read_edge_list_file(&path).unwrap();
        assert_eq!(g, back);
    }
}
