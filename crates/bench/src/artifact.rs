//! The one writer behind every `BENCH_*.json` artifact, and the one
//! reader the gates use on them.
//!
//! [`Json`] is a small JSON value type ([`obj!`](crate::obj) makes
//! objects): objects keep insertion order, strings are escaped with
//! [`hls_obs::export::json_escape`], and non-finite floats become
//! `null`. [`document`] puts the same host header (`bench`, `quick`,
//! `nproc`, `cpu`, `git_rev`) in front of every study's fields,
//! so baselines can be matched to the machine and commit that produced
//! them. [`write()`] refuses any text [`validate_json`] rejects.

use std::fmt;

use hls_obs::export::{json_escape, validate_json};

/// A JSON value whose objects keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number literal, already formatted.
    Num(String),
    /// A string (escaped when rendered).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`]: `obj! { "key": value, ... }`, each value
/// anything `Into<Json>`.
#[macro_export]
macro_rules! obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::artifact::Json::Obj(vec![
            $(($key.to_string(), $crate::artifact::Json::from($value))),*
        ])
    };
}

impl Json {
    /// A float with `decimals` digits after the point; `null` when it
    /// is not finite (JSON has no NaN or infinity).
    pub fn fixed(value: f64, decimals: usize) -> Self {
        match value.is_finite() {
            true => Json::Num(format!("{value:.decimals$}")),
            false => Json::Null,
        }
    }

    /// Containers holding only scalars render on one line; the others
    /// put one child per line, indented by two spaces per level.
    fn render(&self, depth: usize, out: &mut String) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(&b.to_string()),
            Json::Num(n) => return out.push_str(n),
            Json::Str(s) => return out.push_str(&format!("\"{}\"", json_escape(s))),
            Json::Arr(v) => ('[', ']', v.iter().map(|x| (None, x)).collect()),
            Json::Obj(f) => (
                '{',
                '}',
                f.iter().map(|(k, x)| (Some(k.as_str()), x)).collect(),
            ),
        };
        let multiline = items.iter().any(|(_, v)| match v {
            Json::Arr(c) => !c.is_empty(),
            Json::Obj(c) => !c.is_empty(),
            _ => false,
        });
        let newline = |d: usize| format!("\n{}", "  ".repeat(d));
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if multiline { "," } else { ", " });
            }
            if multiline {
                out.push_str(&newline(depth + 1));
            }
            if let Some(key) = key {
                out.push_str(&format!("\"{}\": ", json_escape(key)));
            }
            value.render(depth + 1, out);
        }
        if multiline {
            out.push_str(&newline(depth));
        }
        out.push(close);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(&out)
    }
}

macro_rules! json_from {
    ($($t:ty => $make:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                $make(v)
            }
        }
    )*};
}
json_from! {
    bool => Json::Bool,
    u32 => |v: u32| Json::Num(v.to_string()),
    u64 => |v: u64| Json::Num(v.to_string()),
    u128 => |v: u128| Json::Num(v.to_string()),
    usize => |v: usize| Json::Num(v.to_string()),
    &str => |v: &str| Json::Str(v.to_string()),
    String => Json::Str,
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Renders an artifact: the common header — which study, whether it
/// was a `--quick` smoke, and the host (`nproc`, `cpu` from
/// `/proc/cpuinfo`, `git_rev` from `git rev-parse HEAD`; either of the
/// last two `"unknown"` where unavailable) — then `body`'s fields.
///
/// # Panics
///
/// Panics if `body` is not an object.
pub fn document(bench: &str, quick: bool, body: Json) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|l| {
                let (key, value) = l.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        });
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty());
    let header = obj! {
        "bench": bench,
        "quick": quick,
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "cpu": cpu.unwrap_or_else(|| "unknown".into()),
        "git_rev": git_rev.unwrap_or_else(|| "unknown".into()),
    };
    match (header, body) {
        (Json::Obj(mut fields), Json::Obj(body)) => {
            fields.extend(body);
            Json::Obj(fields).to_string()
        }
        (_, body) => panic!("an artifact body is an object, got {body:?}"),
    }
}

/// Writes `text` to `path` after checking it is strict JSON.
///
/// # Errors
///
/// `InvalidData` (nothing written) when [`validate_json`] rejects the
/// text; otherwise any I/O error from the write.
pub fn write(path: &str, text: &str) -> std::io::Result<()> {
    validate_json(text).map_err(|at| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("refusing to write {path}: not strict JSON at byte {at}"),
        )
    })?;
    std::fs::write(path, format!("{text}\n"))
}

/// The number under the top-level `key` of a JSON object text,
/// whitespace tolerated around the colon; `None` when the key is absent
/// or its value is not a number. Nested objects are skipped, so
/// BENCH_7's `targets.wall_100k_us` never shadows its `wall_100k_us`.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let quoted = format!("\"{}\"", json_escape(key));
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, c) in text.char_indices() {
        if in_string {
            match c {
                '\\' if !escaped => escaped = true,
                '"' if !escaped => in_string = false,
                _ => escaped = false,
            }
            continue;
        }
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth = depth.saturating_sub(1),
            '"' => {
                let rest = text[i..].strip_prefix(&quoted).filter(|_| depth == 1);
                if let Some(value) = rest.and_then(|r| r.trim_start().strip_prefix(':')) {
                    let value = value.trim_start();
                    let end = value
                        .find(|c: char| !(c.is_ascii_digit() || "-+.eE".contains(c)))
                        .unwrap_or(value.len());
                    return value[..end].parse().ok();
                }
                in_string = true;
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_escaped_and_nested() {
        let text = obj! {
            "name": "a\"b",
            "n": 3u64,
            "x": Json::fixed(1.23456, 2),
            "nan": Json::fixed(f64::NAN, 2),
            "none": None::<u64>,
            "rows": vec![obj! { "ops": 5usize, "ok": true }, obj! {}],
            "empty": Vec::<Json>::new(),
        }
        .to_string();
        assert_eq!(
            text,
            "{\n  \"name\": \"a\\\"b\",\n  \"n\": 3,\n  \"x\": 1.23,\n  \"nan\": null,\n  \
             \"none\": null,\n  \"rows\": [\n    {\"ops\": 5, \"ok\": true},\n    {}\n  ],\n  \
             \"empty\": []\n}"
        );
        assert_eq!(validate_json(&text), Ok(()));
    }

    #[test]
    fn document_leads_with_the_study_and_the_host() {
        let text = document("BENCH_X", true, obj! { "pr": 1u32, "rows": vec![1u32] });
        assert_eq!(validate_json(&text), Ok(()));
        let keys: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("  \"")?.split_once('"').map(|(k, _)| k))
            .collect();
        assert_eq!(
            keys,
            ["bench", "quick", "nproc", "cpu", "git_rev", "pr", "rows"]
        );
        assert!(text.starts_with("{\n  \"bench\": \"BENCH_X\",\n  \"quick\": true,"));
        assert!(json_number(&text, "nproc").is_some_and(|n| n >= 1.0));
    }

    #[test]
    fn write_refuses_invalid_json() {
        let path =
            std::env::temp_dir().join(format!("hls-bench-artifact-{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        let err = write(path, "{\"x\": NaN}").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!std::path::Path::new(path).exists(), "nothing is written");
        write(path, &obj! { "x": 1u64 }.to_string()).unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), "{\"x\": 1}\n");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn json_number_tolerates_whitespace_and_skips_non_keys() {
        let read = |text: &str, key: &str| json_number(text, key);
        assert_eq!(read("{\"a\" :\n 12, \"b\": -1.5e3}", "a"), Some(12.0));
        assert_eq!(read("{\"a\": 12, \"b\": -1.5e3}", "b"), Some(-1500.0));
        assert_eq!(read("{\"note\": \"b\\\"\", \"b\": 7}", "b"), Some(7.0));
        assert_eq!(read("{\"in\": {\"b\": 1}, \"b\": 2}", "b"), Some(2.0));
        assert_eq!(read("{\"a\": null}", "a"), None);
        assert_eq!(read("{}", "a"), None);
    }

    #[test]
    fn json_number_reads_the_committed_bench7_wall() {
        let bench7 = include_str!("../../../BENCH_7.json");
        assert_eq!(json_number(bench7, "wall_100k_us"), Some(313103.0));
    }

    #[test]
    fn json_number_reads_a_live_stats_counter() {
        use hls_serve::{BindAddr, Client, RequestOpts, ServeConfig, Server};
        let addr = BindAddr::Tcp("127.0.0.1:0".into());
        let server = Server::start(&addr, ServeConfig::default()).expect("bind ephemeral port");
        let mut c = Client::connect(server.addr()).expect("connect");
        let text = hls_ir::textfmt::to_text(&hls_ir::bench_graphs::ewf());
        c.schedule(&text, &RequestOpts::default())
            .expect("schedule");
        let body = c.stats().expect("STATS");
        server.shutdown(std::time::Duration::from_secs(10));
        assert_eq!(json_number(&body, "serve_requests"), Some(1.0), "{body}");
    }
}
