//! Canonical trace JSON: a byte-stable writer and a strict reader.
//!
//! The format is deliberately tiny — integers and short static strings
//! only, one event per line, fixed field order — so that identical
//! event streams render to identical bytes on every platform (the
//! golden-snapshot tests depend on this) with no dependency in the
//! observability layer.
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "events": [
//!     {"type": "span_enter", "name": "engine.superstep", "key": 0, "stamp": 0},
//!     {"type": "counter", "name": "engine.gather_messages", "key": 2, "delta": 14}
//!   ]
//! }
//! ```

use crate::{TraceEvent, SCHEMA_VERSION};

/// Kind of a parsed trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span enter.
    SpanEnter,
    /// Span exit.
    SpanExit,
    /// Counter increment.
    Counter,
    /// Histogram sample.
    Histogram,
}

/// One event read back from a trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// Event kind.
    pub kind: EventKind,
    /// Metric name.
    pub name: String,
    /// Dimension key.
    pub key: u64,
    /// Stamp, delta, or sample value depending on `kind`.
    pub value: u64,
}

/// A parsed trace document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedTrace {
    /// Schema version the document declared.
    pub schema_version: u64,
    /// Events in recorded order.
    pub events: Vec<ParsedEvent>,
}

fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                let n = c as u32;
                for shift in [12u32, 8, 4, 0] {
                    let digit = (n >> shift) & 0xf;
                    out.push(char::from_digit(digit, 16).unwrap_or('0'));
                }
            }
            c => out.push(c),
        }
    }
}

/// Render an event stream as the canonical trace document.
pub fn write_trace(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 72);
    out.push_str("{\n");
    out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
    out.push_str("  \"events\": [\n");
    for (i, e) in events.iter().enumerate() {
        let (ty, name, key, field, value) = match *e {
            TraceEvent::SpanEnter { name, key, stamp } => ("span_enter", name, key, "stamp", stamp),
            TraceEvent::SpanExit { name, key, stamp } => ("span_exit", name, key, "stamp", stamp),
            TraceEvent::Counter { name, key, delta } => ("counter", name, key, "delta", delta),
            TraceEvent::Histogram { name, key, value } => ("histogram", name, key, "value", value),
        };
        out.push_str("    {\"type\": \"");
        out.push_str(ty);
        out.push_str("\", \"name\": \"");
        push_escaped(&mut out, name);
        out.push_str("\", \"key\": ");
        out.push_str(&key.to_string());
        out.push_str(", \"");
        out.push_str(field);
        out.push_str("\": ");
        out.push_str(&value.to_string());
        out.push('}');
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(s: &'a str) -> Self {
        Cursor { bytes: s.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(&got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                got.map(|&g| g as char)
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let n = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(
                                char::from_u32(n)
                                    .ok_or_else(|| "invalid \\u codepoint".to_string())?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let start = self.pos;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >= 0xf0 => 4,
                        _ if b >= 0xe0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .ok_or_else(|| "truncated utf-8".to_string())?;
                    out.push_str(
                        std::str::from_utf8(chunk).map_err(|_| "invalid utf-8".to_string())?,
                    );
                    self.pos += len;
                }
            }
        }
    }

    fn parse_u64(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at byte {start}"));
        }
        let s = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(&[]))
            .map_err(|_| "non-utf8 integer".to_string())?;
        s.parse::<u64>().map_err(|e| format!("bad integer {s:?}: {e}"))
    }
}

fn parse_event(c: &mut Cursor<'_>) -> Result<ParsedEvent, String> {
    c.expect_byte(b'{')?;
    let mut ty: Option<String> = None;
    let mut name: Option<String> = None;
    let mut key: u64 = 0;
    let mut value: Option<u64> = None;
    let mut value_field: Option<String> = None;
    loop {
        let field = c.parse_string()?;
        c.expect_byte(b':')?;
        match field.as_str() {
            "type" => ty = Some(c.parse_string()?),
            "name" => name = Some(c.parse_string()?),
            "key" => key = c.parse_u64()?,
            "stamp" | "delta" | "value" => {
                value = Some(c.parse_u64()?);
                value_field = Some(field);
            }
            other => return Err(format!("unknown event field {other:?}")),
        }
        match c.peek() {
            Some(b',') => {
                c.expect_byte(b',')?;
            }
            Some(b'}') => {
                c.expect_byte(b'}')?;
                break;
            }
            other => return Err(format!("expected ',' or '}}' in event, found {other:?}")),
        }
    }
    let ty = ty.ok_or_else(|| "event missing \"type\"".to_string())?;
    let name = name.ok_or_else(|| "event missing \"name\"".to_string())?;
    let value = value.ok_or_else(|| format!("event {ty:?} missing payload field"))?;
    let (kind, expected_field) = match ty.as_str() {
        "span_enter" => (EventKind::SpanEnter, "stamp"),
        "span_exit" => (EventKind::SpanExit, "stamp"),
        "counter" => (EventKind::Counter, "delta"),
        "histogram" => (EventKind::Histogram, "value"),
        other => return Err(format!("unknown event type {other:?}")),
    };
    if value_field.as_deref() != Some(expected_field) {
        return Err(format!(
            "event type {ty:?} carries field {value_field:?}, expected {expected_field:?}"
        ));
    }
    Ok(ParsedEvent { kind, name, key, value })
}

/// Parse a trace document produced by [`write_trace`].
///
/// Strict about structure (it is a reader for one schema, not a general
/// JSON parser) but tolerant of whitespace and event-field order.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let mut c = Cursor::new(text);
    c.expect_byte(b'{')?;
    let field = c.parse_string()?;
    if field != "schema_version" {
        return Err(format!("expected \"schema_version\" first, found {field:?}"));
    }
    c.expect_byte(b':')?;
    let schema_version = c.parse_u64()?;
    if schema_version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {schema_version} (reader supports {SCHEMA_VERSION})"
        ));
    }
    c.expect_byte(b',')?;
    let field = c.parse_string()?;
    if field != "events" {
        return Err(format!("expected \"events\", found {field:?}"));
    }
    c.expect_byte(b':')?;
    c.expect_byte(b'[')?;
    let mut events = Vec::new();
    if c.peek() == Some(b']') {
        c.expect_byte(b']')?;
    } else {
        loop {
            events.push(parse_event(&mut c)?);
            match c.peek() {
                Some(b',') => {
                    c.expect_byte(b',')?;
                }
                Some(b']') => {
                    c.expect_byte(b']')?;
                    break;
                }
                other => return Err(format!("expected ',' or ']' after event, found {other:?}")),
            }
        }
    }
    c.expect_byte(b'}')?;
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return Err(format!("trailing bytes after document at {}", c.pos));
    }
    Ok(ParsedTrace { schema_version, events })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SpanEnter { name: "outer", key: 0, stamp: 10 },
            TraceEvent::Counter { name: "ops", key: 3, delta: 7 },
            TraceEvent::Histogram { name: "lat", key: 0, value: 12345 },
            TraceEvent::SpanExit { name: "outer", key: 0, stamp: 99 },
        ]
    }

    #[test]
    fn writer_is_deterministic_and_round_trips() {
        let events = sample_events();
        let a = write_trace(&events);
        let b = write_trace(&events);
        assert_eq!(a, b);
        let parsed = parse_trace(&a).expect("round trip");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.events.len(), events.len());
        assert_eq!(parsed.events[0].kind, EventKind::SpanEnter);
        assert_eq!(parsed.events[0].name, "outer");
        assert_eq!(parsed.events[0].value, 10);
        assert_eq!(parsed.events[1].kind, EventKind::Counter);
        assert_eq!(parsed.events[1].key, 3);
        assert_eq!(parsed.events[1].value, 7);
        assert_eq!(parsed.events[3].kind, EventKind::SpanExit);
    }

    #[test]
    fn empty_trace_round_trips() {
        let doc = write_trace(&[]);
        let parsed = parse_trace(&doc).expect("empty");
        assert!(parsed.events.is_empty());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(parse_trace("").is_err());
        assert!(parse_trace("{}").is_err());
        assert!(parse_trace("{\"schema_version\": 999, \"events\": []}").is_err());
        let doc = write_trace(&sample_events());
        assert!(parse_trace(&doc[..doc.len() - 3]).is_err());
        assert!(parse_trace(&format!("{doc} extra")).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}e");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001e");
    }
}
