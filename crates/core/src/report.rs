//! Plain-text rendering for experiment results and trace summaries: a
//! [`Report`] is an experiment's tables and notes, and
//! [`Report::render`] prints it.

use sgp_trace::SummarySink;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// A simple fixed-width text table builder for paper-style output.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (must match the header length).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// The data rows, in insertion order (the header excluded).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with column alignment and a separator line.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cell, width = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// One experiment's result: a title, then sections, then notes.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The `=== … ===` heading.
    pub title: String,
    /// The body, in print order.
    pub sections: Vec<Section>,
    /// Closing remarks (the paper's expectation, a summary statistic),
    /// each printed after a blank line.
    pub notes: Vec<String>,
}

/// A part of a [`Report`]: an optional `--- … ---` caption, an optional
/// table, then lines of text.
#[derive(Debug, Clone)]
pub struct Section {
    /// Printed as `--- caption ---` after a blank line.
    pub caption: Option<String>,
    /// Printed right under the caption.
    pub table: Option<TextTable>,
    /// Printed after the table, one per line.
    pub lines: Vec<String>,
}

impl Section {
    /// A table under `caption`.
    pub fn captioned(caption: impl Into<String>, table: TextTable) -> Self {
        Section { caption: Some(caption.into()), table: Some(table), lines: Vec::new() }
    }

    /// Lines of text with no table.
    pub fn text<S: Into<String>>(
        caption: Option<String>,
        lines: impl IntoIterator<Item = S>,
    ) -> Self {
        Section { caption, table: None, lines: lines.into_iter().map(Into::into).collect() }
    }
}

impl From<TextTable> for Section {
    /// A table with no caption.
    fn from(table: TextTable) -> Self {
        Section { caption: None, table: Some(table), lines: Vec::new() }
    }
}

impl Report {
    /// A report titled `title`, with no sections or notes yet.
    pub fn new(title: impl Into<String>) -> Self {
        Report { title: title.into(), ..Report::default() }
    }

    /// Appends a section.
    #[must_use]
    pub fn section(mut self, section: impl Into<Section>) -> Self {
        self.sections.push(section.into());
        self
    }

    /// Appends a note.
    #[must_use]
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the title, each section (caption, table, lines) and each
    /// note.
    pub fn render(&self) -> String {
        let mut out = format!("\n=== {} ===\n", self.title);
        for section in &self.sections {
            if let Some(caption) = &section.caption {
                out.push_str(&format!("\n--- {caption} ---\n"));
            }
            if let Some(table) = &section.table {
                out.push_str(&table.render());
            }
            for line in &section.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        for note in &self.notes {
            out.push_str(&format!("\n{note}\n"));
        }
        out
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Human-readable byte count (KiB/MiB/GiB).
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit < UNITS.len() - 1 {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.1} {}", UNITS[unit])
    }
}

/// The counters keyed by machine id: the columns of the per-machine load
/// table.
const MACHINE_COUNTERS: [&str; 4] =
    ["engine.machine_bytes", "engine.machine_compute_ns", "db.reads", "db.queue_enqueued"];

/// Renders a trace summary in four sections: the `top` spans by self
/// cost, the per-machine load, the counter totals and the histogram
/// quantiles (the per-machine and histogram sections only when they have
/// rows). The same aggregate renders the same bytes, whether the sink was
/// live or replayed a dump ([`SummarySink::of`]).
pub fn trace_summary<N: Ord + Clone + Borrow<str>>(sink: &SummarySink<N>, top: usize) -> String {
    let mut t = TextTable::new(["span", "count", "total", "self"]);
    for (name, s) in sink.spans_by_self_cost().into_iter().take(top) {
        t.row([
            name.borrow().to_string(),
            s.count.to_string(),
            s.total.to_string(),
            s.self_total.to_string(),
        ]);
    }
    let mut out = format!("\n== top spans by self cost (stamp units) ==\n{}", t.render());
    if sink.open_spans() > 0 {
        out.push_str(&format!("({} span(s) never exited — partial trace?)\n", sink.open_spans()));
    }

    let mut machines: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for ((name, key), v) in sink.counters() {
        let name = name.borrow();
        *totals.entry(name).or_insert(0) += v;
        if let Some(col) = MACHINE_COUNTERS.iter().position(|&c| c == name) {
            machines.entry(*key).or_default()[col] += v;
        }
    }
    if !machines.is_empty() {
        let mut t = TextTable::new([
            "machine",
            "engine bytes",
            "engine compute ns",
            "db reads",
            "db enqueued",
        ]);
        for (m, load) in &machines {
            t.row(std::iter::once(m).chain(load).map(u64::to_string));
        }
        out.push_str(&format!("\n== per-machine load ==\n{}", t.render()));
    }

    let mut t = TextTable::new(["counter", "total"]);
    for (name, v) in totals {
        t.row([name.to_string(), v.to_string()]);
    }
    out.push_str(&format!("\n== counter totals ==\n{}", t.render()));

    if !sink.histograms().is_empty() {
        let mut t = TextTable::new(["histogram", "samples", "p50", "p99", "max"]);
        for (name, h) in sink.histograms() {
            t.row([
                name.borrow().to_string(),
                h.count().to_string(),
                h.p50().to_string(),
                h.p99().to_string(),
                h.max().to_string(),
            ]);
        }
        out.push_str(&format!("\n== histograms (log2-bucket quantiles) ==\n{}", t.render()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["alg", "rf"]);
        t.row(["HDRF", "3.20"]);
        t.row(["ECR", "12.00"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("alg"));
        assert!(lines[2].starts_with("HDRF"));
    }

    #[test]
    fn report_renders_sections_then_notes() {
        let table = |cell: &str| {
            let mut t = TextTable::new(["k", "rf"]);
            t.row(["4", cell]);
            t
        };
        let report = Report::new("Fig. X — demo")
            .section(Section {
                lines: vec!["slope 2".to_string()],
                ..Section::captioned("first", table("1.50"))
            })
            .section(table("2.25"))
            .section(Section::text(Some("prose".to_string()), ["one", "two"]))
            .note("(paper: it holds)")
            .note("r = 0.990");
        assert_eq!(
            report.sections[1].table.as_ref().map(TextTable::rows),
            Some(&[vec!["4".to_string(), "2.25".to_string()]][..])
        );
        assert_eq!(
            report.render(),
            "\n=== Fig. X — demo ===\n\
             \n--- first ---\nk  rf\n-------\n4  1.50\nslope 2\n\
             k  rf\n-------\n4  2.25\n\
             \n--- prose ---\none\ntwo\n\
             \n(paper: it holds)\n\
             \nr = 0.990\n"
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_checks_arity() {
        TextTable::new(["a", "b"]).row(["only-one"]);
    }

    /// A nested engine run on two machines: `engine.run` spends 1000
    /// stamps, 900 of them in its child superstep.
    fn emit_sample<S: sgp_trace::TraceSink>(s: &mut S) {
        use sgp_trace::keys;
        let run = s.guard_span(keys::ENGINE_RUN, 0, 0);
        let superstep = s.guard_span(keys::ENGINE_SUPERSTEP, 0, 0);
        s.counter_add(keys::ENGINE_MACHINE_BYTES, 0, 100);
        s.counter_add(keys::ENGINE_MACHINE_BYTES, 1, 300);
        s.histogram_record(keys::ENGINE_BARRIER_WAIT_NS, 0, 4_000);
        superstep.exit(s, 900);
        run.exit(s, 1_000);
    }

    /// The sample as a dump read back.
    fn sample_dump() -> sgp_trace::ParsedTrace {
        let mut s = sgp_trace::CollectingSink::new();
        emit_sample(&mut s);
        sgp_trace::parse_trace(&s.to_json()).unwrap()
    }

    #[test]
    fn trace_summary_renders_spans_machines_counters_and_histograms() {
        let out = trace_summary(&SummarySink::of(&sample_dump()), 8);
        for section in
            ["top spans by self cost", "per-machine load", "counter totals", "histograms"]
        {
            assert!(out.contains(section), "{out}");
        }
        assert!(out.contains("engine.machine_bytes  400"), "{out}");
        assert!(out.contains("engine.barrier_wait_ns"), "{out}");
        let run_line = out.lines().find(|l| l.starts_with("engine.run")).expect("span row");
        assert!(run_line.ends_with("100"), "self cost of engine.run: {run_line}");
        assert!(!out.contains("never exited"), "{out}");
    }

    #[test]
    fn trace_summary_is_the_same_for_a_live_and_a_replayed_sink() {
        let mut live = SummarySink::new();
        emit_sample(&mut live);
        let replayed = SummarySink::of(&sample_dump());
        assert_eq!(trace_summary(&live, 8), trace_summary(&replayed, 8));
        let top1 = trace_summary(&live, 1);
        assert!(top1.contains("engine.superstep"), "{top1}");
        assert!(!top1.lines().any(|l| l.starts_with("engine.run")), "{top1}");
    }

    #[test]
    fn trace_summary_reports_open_spans() {
        let mut dump = sample_dump();
        dump.events.pop();
        let out = trace_summary(&SummarySink::of(&dump), 8);
        assert!(out.contains("(1 span(s) never exited — partial trace?)"), "{out}");
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn float_formatters() {
        assert_eq!(f2(1.005), "1.00"); // banker-ish rounding of format!
        assert_eq!(f3(0.1234), "0.123");
    }
}
