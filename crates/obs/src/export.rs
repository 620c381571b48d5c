//! Exporters: Chrome `trace_event` JSON for span timelines and a
//! flat JSON snapshot of the metrics registry. Includes a tiny
//! strict JSON validator so smoke tests can check well-formedness
//! without an external parser.

use crate::metrics::MetricsSnapshot;
use crate::recorder::{EventKind, EventOut};

/// Escapes a string for a JSON literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders events as Chrome `trace_event` JSON (the
/// `{"traceEvents": [...]}` object form). Load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>. Spans become
/// complete (`"X"`) events; instants and logs become `"i"` events.
pub fn chrome_trace_json(events: &[EventOut]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (ph, dur) = match ev.kind {
            EventKind::Span => ("X", ev.dur_us),
            EventKind::Instant | EventKind::Log => ("i", 0),
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
            json_escape(ev.phase.name()),
            json_escape(ev.phase.category()),
            ph,
            ev.ts_us,
            ev.tid,
        ));
        if ph == "X" {
            out.push_str(&format!(",\"dur\":{dur}"));
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(&format!(
            ",\"args\":{{\"label\":\"{}\",\"arg\":{},\"seq\":{}",
            json_escape(&ev.label),
            ev.arg,
            ev.seq,
        ));
        if ev.kind == EventKind::Log {
            let level = crate::log::Level::from_u8((ev.arg & 0xFF) as u8);
            out.push_str(&format!(",\"level\":\"{}\"", level.tag().trim()));
        }
        out.push_str("}}");
    }
    out.push_str("]}");
    out
}

/// Renders a metrics snapshot as one flat JSON object:
/// counters by name, histograms as
/// `{count, sum_us, mean_us, p50_us, p99_us}` objects.
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{");
    let mut first = true;
    let mut field = |out: &mut String, key: &str, val: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{}", json_escape(key), val));
    };
    for (name, v) in &snap.counters {
        field(&mut out, name, v.to_string());
    }
    for (name, h) in &snap.hists {
        field(
            &mut out,
            name,
            format!(
                "{{\"count\":{},\"sum_us\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{}}}",
                h.count,
                h.sum_us,
                h.mean_us(),
                h.quantile_us(0.5),
                h.quantile_us(0.99),
            ),
        );
    }
    out.push('}');
    out
}

/// Strict recursive-descent JSON well-formedness check. Returns the
/// error position on failure. Validates structure only — no value
/// semantics — which is all the smoke tests need.
pub fn validate_json(s: &str) -> Result<(), usize> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i == b.len() {
        Ok(())
    } else {
        Err(i)
    }
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<(), usize> {
    match b.get(*i) {
        Some(b'{') => object(b, i),
        Some(b'[') => array(b, i),
        Some(b'"') => string(b, i),
        Some(b't') => literal(b, i, b"true"),
        Some(b'f') => literal(b, i, b"false"),
        Some(b'n') => literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, i),
        _ => Err(*i),
    }
}

fn literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), usize> {
    if b[*i..].starts_with(lit) {
        *i += lit.len();
        Ok(())
    } else {
        Err(*i)
    }
}

fn number(b: &[u8], i: &mut usize) -> Result<(), usize> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let s = *i;
        while *i < b.len() && b[*i].is_ascii_digit() {
            *i += 1;
        }
        *i > s
    };
    if !digits(b, i) {
        return Err(start);
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(*i);
        }
    }
    if matches!(b.get(*i), Some(b'e') | Some(b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+') | Some(b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(*i);
        }
    }
    Ok(())
}

fn string(b: &[u8], i: &mut usize) -> Result<(), usize> {
    if b.get(*i) != Some(&b'"') {
        return Err(*i);
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        *i += 1;
                        for _ in 0..4 {
                            if !b.get(*i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(*i);
                            }
                            *i += 1;
                        }
                    }
                    _ => return Err(*i),
                }
            }
            c if c < 0x20 => return Err(*i),
            _ => *i += 1,
        }
    }
    Err(*i)
}

fn object(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // past '{'
    skip_ws(b, i);
    if b.get(*i) == Some(&b'}') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        string(b, i)?;
        skip_ws(b, i);
        if b.get(*i) != Some(&b':') {
            return Err(*i);
        }
        *i += 1;
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b'}') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

fn array(b: &[u8], i: &mut usize) -> Result<(), usize> {
    *i += 1; // past '['
    skip_ws(b, i);
    if b.get(*i) == Some(&b']') {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        value(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(b']') => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(*i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Phase;

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json("{}").is_ok());
        assert!(validate_json(r#"{"a":[1,2.5,-3e2,"x\n",true,null]}"#).is_ok());
        assert!(validate_json("{").is_err());
        assert!(validate_json(r#"{"a":}"#).is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("01").is_ok()); // lenient on leading zeros
        assert!(validate_json("\"\u{1}\"").is_err());
        assert!(validate_json("{} x").is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let events = vec![
            EventOut {
                kind: EventKind::Span,
                phase: Phase::PortfolioRace,
                label: "base \"race\"".into(),
                tid: 1,
                ts_us: 10,
                dur_us: 250,
                arg: 7,
                seq: 0,
            },
            EventOut {
                kind: EventKind::Instant,
                phase: Phase::DegradeRung,
                label: String::new(),
                tid: 2,
                ts_us: 40,
                dur_us: 0,
                arg: 0,
                seq: 1,
            },
        ];
        let json = chrome_trace_json(&events);
        validate_json(&json).expect("chrome trace must parse");
        assert!(json.contains("\"portfolio:race\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn metrics_json_is_valid() {
        let json = metrics_json(&crate::metrics::snapshot());
        validate_json(&json).expect("metrics snapshot must parse");
        assert!(json.contains("\"select_calls\":"));
        assert!(json.contains("\"p99_us\":"));
    }
}
