//! Dependency-free JSON/CSV rendering over the records' field lists.
//!
//! The repository builds in offline environments with no registry access,
//! so serialization is hand-rolled: a tiny [`JsonWriter`] emits the small,
//! flat schema the trace layer needs (objects of scalar fields inside
//! arrays) with correct escaping and comma placement. Every encoder here,
//! and the digest, reads a record through its one ordered field list
//! ([`PeriodSample::fields`], [`TraceEvent::fields`]) as [`Value`]s.

use std::fmt::{self, Write as _};

use sim_clock::Nanos;

use crate::event::{MigrateDir, TraceEvent};
use crate::period::PeriodSample;

/// One typed field value of a trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count, id or timestamp in nanoseconds.
    U64(u64),
    /// A ratio or estimate; JSON prints six decimals (`null` when
    /// non-finite), CSV its shortest round-trip form.
    F64(f64),
    /// A flag.
    Bool(bool),
    /// A migration direction: its label in JSON, `0`/`1` in the digest.
    Dir(MigrateDir),
    /// The packed per-tier health gauge (4 bits per tier, 0 = Online).
    /// The digest skips it while every tier is Online.
    Health(u32),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Dir(d) => f.write_str(d.label()),
            Value::Health(v) => write!(f, "{v}"),
        }
    }
}

/// Minimal JSON emitter for flat objects and arrays of objects.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    needs_comma: bool,
}

impl JsonWriter {
    /// Creates an empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// Consumes the writer, returning the rendered JSON.
    pub fn finish(self) -> String {
        self.out
    }

    fn pre_value(&mut self) {
        if self.needs_comma {
            self.out.push(',');
        }
        self.needs_comma = true;
    }

    /// Opens a JSON array (as a value position).
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.needs_comma = false;
    }

    /// Closes a JSON array.
    pub fn end_array(&mut self) {
        self.out.push(']');
        self.needs_comma = true;
    }

    /// Opens a JSON object (as a value position).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.needs_comma = false;
    }

    /// Closes a JSON object.
    pub fn end_object(&mut self) {
        self.out.push('}');
        self.needs_comma = true;
    }

    fn key(&mut self, name: &str) {
        self.pre_value();
        self.out.push('"');
        self.out.push_str(name); // keys are internal identifiers, no escapes
        self.out.push_str("\":");
        // The value that follows must not get its own comma.
        self.needs_comma = false;
    }

    /// Emits `"name": value` for one record field.
    pub fn field(&mut self, name: &str, v: Value) {
        self.key(name);
        match v {
            Value::F64(x) if x.is_finite() => {
                let _ = write!(self.out, "{x:.6}");
            }
            // Raw JSON cannot represent non-finite floats.
            Value::F64(_) => self.out.push_str("null"),
            Value::Dir(d) => self.push_str_value(d.label()),
            v => {
                let _ = write!(self.out, "{v}");
            }
        }
        self.needs_comma = true;
    }

    /// Emits `"name": "value"` with escaping.
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        self.push_str_value(v);
    }

    fn push_str_value(&mut self, v: &str) {
        self.out.push('"');
        for c in v.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
        self.needs_comma = true;
    }
}

/// Renders period samples as a JSON document:
/// `{"label": ..., "periods": [...]}`.
pub fn periods_to_json(label: &str, periods: &[PeriodSample]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("label", label);
    w.key("periods");
    w.begin_array();
    for p in periods {
        w.begin_object();
        p.fields(|name, v| w.field(name, v));
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Renders period samples as CSV: a header row of the field names, then
/// one row of the fields' `Display` forms per sample.
pub fn periods_to_csv(periods: &[PeriodSample]) -> String {
    let mut out = String::new();
    let mut sep = "";
    PeriodSample::default().fields(|name, _| {
        out.push_str(sep);
        out.push_str(name);
        sep = ",";
    });
    out.push('\n');
    for p in periods {
        let mut sep = "";
        p.fields(|_, v| {
            let _ = write!(out, "{sep}{v}");
            sep = ",";
        });
        out.push('\n');
    }
    out
}

/// Renders events as JSON Lines: one `{"t_ns": ..., "kind": ..., ...}`
/// object per line, oldest first.
pub fn events_to_jsonl<'a>(events: impl Iterator<Item = &'a (Nanos, TraceEvent)>) -> String {
    let mut out = String::new();
    for (t, ev) in events {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field("t_ns", Value::U64(t.as_nanos()));
        w.field_str("kind", ev.kind());
        ev.fields(|name, v| w.field(name, v));
        w.end_object();
        out.push_str(&w.finish());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("s", "a\"b\\c\nd");
        w.end_object();
        assert_eq!(w.finish(), r#"{"s":"a\"b\\c\nd"}"#);
    }

    #[test]
    fn object_commas_are_placed_between_fields_only() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field("a", Value::U64(1));
        w.field("b", Value::Bool(true));
        w.end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":true}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field("x", Value::F64(f64::NAN));
        w.end_object();
        assert_eq!(w.finish(), r#"{"x":null}"#);
    }

    #[test]
    fn periods_json_contains_required_fields() {
        let s = PeriodSample {
            timestamp: Nanos(5),
            ..Default::default()
        };
        let j = periods_to_json("Chrono", &[s]);
        for field in [
            "\"label\":\"Chrono\"",
            "\"timestamp_ns\":5",
            "\"cit_threshold_ns\":",
            "\"rate_limit_bps\":",
            "\"promoted_pages\":",
            "\"demoted_pages\":",
            "\"thrash_events\":",
            "\"fmar\":",
        ] {
            assert!(j.contains(field), "missing {} in {}", field, j);
        }
    }

    #[test]
    fn events_jsonl_one_line_per_event() {
        let evs = [
            (Nanos(1), TraceEvent::Thrash { pages: 2 }),
            (
                Nanos(2),
                TraceEvent::MigrateComplete {
                    pid: 0,
                    vpn: 9,
                    pages: 1,
                    dir: MigrateDir::Promote,
                },
            ),
        ];
        let text = events_to_jsonl(evs.iter());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"kind\":\"thrash\""));
        assert!(lines[1].contains("\"dir\":\"promote\""));
    }

    #[test]
    fn csv_export_has_header_plus_rows() {
        let csv = periods_to_csv(&[PeriodSample::default(), PeriodSample::default()]);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("timestamp_ns,"));
    }
}
