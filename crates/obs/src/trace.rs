//! JSON-lines trace events.
//!
//! Each event is one line:
//!
//! ```json
//! {"ts_ns":123456,"kind":"span","name":"sweep.point","fields":{"total_ns":987,"self_ns":400}}
//! ```
//!
//! `kind` is a small open vocabulary — the registry emits `"span"`,
//! `"warn"` and `"heartbeat"`; benches add their own. Field values are
//! scalar [`Json`] values: unsigned integers (exact), floats, strings,
//! booleans or `null`, rendered by the [`crate::json`] writer (a
//! non-finite float becomes `null`).

use crate::json::Json;

/// One structured trace event, serialisable to a single JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Clock reading when the event was emitted (ns since registry clock
    /// origin).
    pub ts_ns: u64,
    /// Event kind: `"span"`, `"warn"`, `"heartbeat"`, or a bench-defined
    /// kind.
    pub kind: String,
    /// Instrument or event name, e.g. `"sweep.point"`.
    pub name: String,
    /// Event payload, in insertion order; scalar values only.
    pub fields: Vec<(String, Json)>,
}

impl TraceEvent {
    /// A new event with no fields.
    #[must_use]
    pub fn new(ts_ns: u64, kind: &str, name: &str) -> Self {
        Self {
            ts_ns,
            kind: kind.to_string(),
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    /// Appends a scalar field (builder style).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Renders the event as one JSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        self.clone().into_json_line()
    }

    /// Renders the event as one JSON line, moving its fields into the
    /// document instead of cloning them (the registry's emit path).
    pub(crate) fn into_json_line(self) -> String {
        Json::obj([
            ("ts_ns", Json::Int(self.ts_ns)),
            ("kind", Json::Str(self.kind)),
            ("name", Json::Str(self.name)),
            ("fields", Json::Obj(self.fields)),
        ])
        .to_string()
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_json_line`];
    /// `None` on malformed input, missing keys, or a field whose value is
    /// an array or object.
    #[must_use]
    pub fn parse(line: &str) -> Option<TraceEvent> {
        let v = Json::parse(line)?;
        let ts_ns = v.get("ts_ns")?.as_u64()?;
        let kind = v.get("kind")?.as_str()?.to_string();
        let name = v.get("name")?.as_str()?.to_string();
        let fields = v.get("fields")?.as_obj()?;
        if fields
            .iter()
            .any(|(_, fv)| matches!(fv, Json::Arr(_) | Json::Obj(_)))
        {
            return None;
        }
        Some(TraceEvent {
            ts_ns,
            kind,
            name,
            fields: fields.to_vec(),
        })
    }

    /// Looks up a field value by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_round_trip() {
        let ev = TraceEvent::new(42, "span", "sweep.point")
            .field("total_ns", Json::Int(u64::MAX))
            .field("rate", Json::Float(2.5))
            .field("note", Json::Str("a\"b\nc".to_string()));
        let line = ev.to_json_line();
        let back = TraceEvent::parse(&line).expect("round-trips");
        assert_eq!(back, ev);
        // Re-rendering is byte-identical: field order and number formats
        // are preserved end to end.
        assert_eq!(back.to_json_line(), line);
    }

    #[test]
    fn non_finite_floats_become_null_then_nan() {
        let ev = TraceEvent::new(1, "warn", "x").field("bad", Json::Float(f64::INFINITY));
        let line = ev.to_json_line();
        assert!(line.contains("\"bad\":null"), "{line}");
        let back = TraceEvent::parse(&line).expect("parses");
        assert_eq!(back.get("bad"), Some(&Json::Null));
    }

    #[test]
    fn floats_parse_back_as_floats() {
        // {:?} on a whole-valued f64 prints "3.0" — the '.' keeps it
        // classifiable as a float on the way back in.
        let ev = TraceEvent::new(1, "span", "x").field("v", Json::Float(3.0));
        let back = TraceEvent::parse(&ev.to_json_line()).expect("parses");
        assert!(matches!(back.get("v"), Some(Json::Float(_))));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "{\"ts_ns\":1}",
            "{\"ts_ns\":1,\"kind\":\"k\",\"name\":\"n\"}",
            "{\"ts_ns\":1,\"kind\":\"k\",\"name\":\"n\",\"fields\":[]}",
            "not json",
        ] {
            assert_eq!(TraceEvent::parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn truncated_lines_do_not_parse() {
        let full = TraceEvent::new(9, "span", "stage.detect")
            .field("total_ns", Json::Int(1234))
            .field("note", Json::Str("mid\u{6c49}point".to_string()))
            .to_json_line();
        for cut in 1..full.len() {
            // Byte-boundary prefixes only: mid-UTF-8 cuts are not valid
            // &str slices in the first place.
            if !full.is_char_boundary(cut) {
                continue;
            }
            assert_eq!(
                TraceEvent::parse(&full[..cut]),
                None,
                "prefix of {cut} bytes must not parse"
            );
        }
    }

    #[test]
    fn huge_integer_fields_round_trip_exactly() {
        let line = format!(
            "{{\"ts_ns\":{max},\"kind\":\"span\",\"name\":\"n\",\"fields\":{{\"v\":{max}}}}}",
            max = u64::MAX
        );
        let ev = TraceEvent::parse(&line).expect("parses");
        assert_eq!(ev.ts_ns, u64::MAX);
        assert_eq!(ev.get("v"), Some(&Json::Int(u64::MAX)));
        assert_eq!(ev.to_json_line(), line);
        // Past u64 range the value falls to float; as a ts_ns it no
        // longer satisfies the schema and the line is rejected.
        let over = "{\"ts_ns\":18446744073709551616,\"kind\":\"k\",\"name\":\"n\",\"fields\":{}}";
        assert_eq!(TraceEvent::parse(over), None);
    }

    #[test]
    fn surrogate_escapes_and_nonfinite_numbers_reject_the_line() {
        let lone = "{\"ts_ns\":1,\"kind\":\"warn\",\"name\":\"n\",\"fields\":{\"t\":\"\\ud800\"}}";
        assert_eq!(TraceEvent::parse(lone), None);
        let huge_exp = "{\"ts_ns\":1,\"kind\":\"span\",\"name\":\"n\",\"fields\":{\"v\":1e999}}";
        assert_eq!(TraceEvent::parse(huge_exp), None);
        // Escaped unicode in a field survives the trip.
        let ev = TraceEvent::parse(
            "{\"ts_ns\":1,\"kind\":\"warn\",\"name\":\"n\",\"fields\":{\"t\":\"\\u00e9\"}}",
        )
        .expect("parses");
        assert_eq!(ev.get("t"), Some(&Json::Str("\u{e9}".to_string())));
    }

    #[test]
    fn nested_field_values_reject_the_line() {
        for value in ["[1]", "{\"a\":1}"] {
            let line = format!(
                "{{\"ts_ns\":1,\"kind\":\"span\",\"name\":\"n\",\"fields\":{{\"v\":{value}}}}}"
            );
            assert_eq!(TraceEvent::parse(&line), None, "{line}");
        }
    }

    #[test]
    fn empty_fields_render_as_empty_object() {
        let ev = TraceEvent::new(7, "heartbeat", "sweep.progress");
        assert_eq!(
            ev.to_json_line(),
            "{\"ts_ns\":7,\"kind\":\"heartbeat\",\"name\":\"sweep.progress\",\"fields\":{}}"
        );
    }
}
