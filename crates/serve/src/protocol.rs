//! The line-framed request/response protocol.
//!
//! A request is one ASCII header line followed by exactly
//! `bytes=<n>` bytes of [`hls_ir::textfmt`] body:
//!
//! ```text
//! REQ id=7 bytes=123 deadline_ms=250 steps=100000 base=<32 hex> nocache=1
//! op 0 add 1 a
//! ...
//! ```
//!
//! Only `id` and `bytes` are mandatory. A response is a single line,
//! either an answer or a typed rejection:
//!
//! ```text
//! OK id=7 rung=portfolio states=17 lb=17 cache=miss degraded=0 us=812
//! ERR id=7 kind=overloaded retry=1 msg=admission queue full
//! ```
//!
//! `retry` is the server's own verdict on whether resubmitting the
//! identical request can succeed; clients honor it instead of
//! guessing from the kind name.

use std::fmt;

/// Hard cap on a header line, body excluded. Generous: a header is a
/// handful of short `k=v` tokens.
pub const MAX_HEADER_BYTES: usize = 512;

/// A parsed request header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response line.
    pub id: u64,
    /// Exact body length in bytes that follows the header line.
    pub bytes: usize,
    /// Wall-clock deadline for the answer, in milliseconds from
    /// admission. `None` inherits the server default.
    pub deadline_ms: Option<u64>,
    /// Deterministic step quota combined into the budget, for
    /// reproducible degradation independent of wall time.
    pub steps: Option<u64>,
    /// Canonical hash of a previously scheduled graph this request
    /// claims to extend — enables the ECO-delta fast path.
    pub base: Option<u128>,
    /// Bypass the schedule cache for this request (load generators,
    /// benchmarking).
    pub nocache: bool,
}

/// How the answer was obtained with respect to the schedule cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Scheduled from scratch.
    Miss,
    /// Answered verbatim from a cached identical graph.
    Hit,
    /// Replayed as an ECO delta on top of a cached base schedule.
    Eco,
}

impl CacheStatus {
    /// Wire tag.
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::Eco => "eco",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<CacheStatus> {
        match s {
            "miss" => Some(CacheStatus::Miss),
            "hit" => Some(CacheStatus::Hit),
            "eco" => Some(CacheStatus::Eco),
            _ => None,
        }
    }
}

/// A successful answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Accepted {
    /// Echoed request id.
    pub id: u64,
    /// Which ladder rung (or replay path) produced the answer —
    /// `portfolio`, `single-meta`, `list-schedule`, `bound-only` or
    /// `eco`.
    pub rung: String,
    /// Final schedule length in control states; absent for
    /// bound-only answers.
    pub states: Option<u64>,
    /// Certified lower bound on the schedule length.
    pub lower_bound: u64,
    /// Cache disposition of this answer.
    pub cache: CacheStatus,
    /// Number of ladder rungs abandoned before this answer.
    pub degraded: usize,
    /// Server-side service time in microseconds (queue wait
    /// excluded).
    pub micros: u64,
    /// Server-assigned trace id tying this response to its spans in
    /// the flight recorder and Chrome trace (`trace=<hex>` on the
    /// wire). `0` when the server did not assign one.
    pub trace: u64,
}

/// Typed rejection categories. Each knows whether a retry of the
/// identical request can succeed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectKind {
    /// The admission queue (or connection table) is full — load was
    /// shed. Retry after backoff.
    Overloaded,
    /// The server is draining for shutdown and admits nothing new.
    Draining,
    /// The request exceeds the configured size limits. Terminal.
    TooLarge,
    /// The header or body failed to parse (position in `msg`).
    /// Terminal.
    Malformed,
    /// The behavior needs a capability the server has disabled
    /// (e.g. loop pipelining). Terminal.
    Unsupported,
    /// The deadline expired before an answer was produced. Retry
    /// with a larger deadline.
    Timeout,
    /// The request panicked inside the flow; the worker survived,
    /// the request did not. Terminal (deterministic panics repeat).
    Poisoned,
    /// Unexpected server-side failure. Terminal.
    Internal,
}

impl RejectKind {
    /// Wire tag.
    pub fn name(self) -> &'static str {
        match self {
            RejectKind::Overloaded => "overloaded",
            RejectKind::Draining => "draining",
            RejectKind::TooLarge => "toolarge",
            RejectKind::Malformed => "malformed",
            RejectKind::Unsupported => "unsupported",
            RejectKind::Timeout => "timeout",
            RejectKind::Poisoned => "poisoned",
            RejectKind::Internal => "internal",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(s: &str) -> Option<RejectKind> {
        match s {
            "overloaded" => Some(RejectKind::Overloaded),
            "draining" => Some(RejectKind::Draining),
            "toolarge" => Some(RejectKind::TooLarge),
            "malformed" => Some(RejectKind::Malformed),
            "unsupported" => Some(RejectKind::Unsupported),
            "timeout" => Some(RejectKind::Timeout),
            "poisoned" => Some(RejectKind::Poisoned),
            "internal" => Some(RejectKind::Internal),
            _ => None,
        }
    }

    /// Can resubmitting the identical request succeed?
    pub fn retryable(self) -> bool {
        matches!(
            self,
            RejectKind::Overloaded | RejectKind::Draining | RejectKind::Timeout
        )
    }
}

/// A typed rejection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejected {
    /// Echoed request id (0 when the id could not be parsed).
    pub id: u64,
    /// Category.
    pub kind: RejectKind,
    /// Human-readable detail. Single line on the wire.
    pub msg: String,
    /// Server-assigned trace id (see [`Accepted::trace`]); `0` when
    /// absent — client-side rejections never carry one.
    pub trace: u64,
}

/// A live telemetry snapshot, answering a `STATS` query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StatsReply {
    /// Echoed query id.
    pub id: u64,
    /// The flat JSON metrics snapshot (single line, no newlines).
    pub json: String,
}

/// One response line, parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// `OK …`
    Accepted(Accepted),
    /// `ERR …`
    Rejected(Rejected),
    /// `STATS …` — the answer to a `STATS` query.
    Stats(StatsReply),
}

impl Response {
    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Accepted(a) => a.id,
            Response::Rejected(r) => r.id,
            Response::Stats(s) => s.id,
        }
    }

    /// The server-assigned trace id (0 for stats replies, which carry
    /// none).
    pub fn trace(&self) -> u64 {
        match self {
            Response::Accepted(a) => a.trace,
            Response::Rejected(r) => r.trace,
            Response::Stats(_) => 0,
        }
    }

    /// Stamps the server-assigned trace id onto an answer or
    /// rejection (no-op for stats replies, which carry no trace).
    pub fn set_trace(&mut self, trace: u64) {
        match self {
            Response::Accepted(a) => a.trace = trace,
            Response::Rejected(r) => r.trace = trace,
            Response::Stats(_) => {}
        }
    }
}

/// A malformed protocol line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// Splits a `key=value` token.
fn kv(tok: &str) -> Result<(&str, &str), ProtoError> {
    tok.split_once('=')
        .ok_or_else(|| err(format!("expected key=value, got `{tok}`")))
}

fn parse_u64(key: &str, v: &str) -> Result<u64, ProtoError> {
    v.parse()
        .map_err(|_| err(format!("bad {key} value `{v}`")))
}

/// Formats a request header line (newline-terminated).
pub fn format_request_header(r: &Request) -> String {
    let mut s = format!("REQ id={} bytes={}", r.id, r.bytes);
    if let Some(d) = r.deadline_ms {
        s.push_str(&format!(" deadline_ms={d}"));
    }
    if let Some(q) = r.steps {
        s.push_str(&format!(" steps={q}"));
    }
    if let Some(b) = r.base {
        s.push_str(&format!(" base={}", hls_ir::canon::hash_to_hex(b)));
    }
    if r.nocache {
        s.push_str(" nocache=1");
    }
    s.push('\n');
    s
}

/// Parses a request header line.
///
/// # Errors
///
/// [`ProtoError`] naming the offending token; unknown keys are
/// rejected so silent typos cannot change semantics.
pub fn parse_request_header(line: &str) -> Result<Request, ProtoError> {
    let line = line.trim_end_matches(['\n', '\r']);
    let mut toks = line.split_ascii_whitespace();
    match toks.next() {
        Some("REQ") => {}
        Some(other) => return Err(err(format!("expected REQ, got `{other}`"))),
        None => return Err(err("empty header line")),
    }
    let mut id = None;
    let mut bytes = None;
    let mut req = Request {
        id: 0,
        bytes: 0,
        deadline_ms: None,
        steps: None,
        base: None,
        nocache: false,
    };
    for tok in toks {
        let (k, v) = kv(tok)?;
        match k {
            "id" => id = Some(parse_u64(k, v)?),
            "bytes" => bytes = Some(parse_u64(k, v)? as usize),
            "deadline_ms" => req.deadline_ms = Some(parse_u64(k, v)?),
            "steps" => req.steps = Some(parse_u64(k, v)?),
            "base" => {
                req.base = Some(
                    hls_ir::canon::hash_from_hex(v)
                        .ok_or_else(|| err(format!("bad base hash `{v}`")))?,
                )
            }
            "nocache" => req.nocache = v == "1",
            other => return Err(err(format!("unknown request key `{other}`"))),
        }
    }
    req.id = id.ok_or_else(|| err("missing id"))?;
    req.bytes = bytes.ok_or_else(|| err("missing bytes"))?;
    Ok(req)
}

/// Formats a `STATS` query line (newline-terminated, no body).
pub fn format_stats_header(id: u64) -> String {
    format!("STATS id={id}\n")
}

/// `true` when a header line opens a `STATS` query rather than a
/// `REQ` — the cheap dispatch test the server runs per line.
pub fn is_stats_header(line: &str) -> bool {
    line.split_ascii_whitespace().next() == Some("STATS")
}

/// Parses a `STATS` query line, returning the query id.
///
/// # Errors
///
/// [`ProtoError`] on anything but `STATS id=<n>`.
pub fn parse_stats_header(line: &str) -> Result<u64, ProtoError> {
    let line = line.trim_end_matches(['\n', '\r']);
    let mut toks = line.split_ascii_whitespace();
    match toks.next() {
        Some("STATS") => {}
        other => return Err(err(format!("expected STATS, got `{other:?}`"))),
    }
    let mut id = None;
    for tok in toks {
        let (k, v) = kv(tok)?;
        match k {
            "id" => id = Some(parse_u64(k, v)?),
            other => return Err(err(format!("unknown STATS key `{other}`"))),
        }
    }
    id.ok_or_else(|| err("STATS line missing id"))
}

/// Frames one client message — a header line from
/// [`format_request_header`] or [`format_stats_header`], then its body
/// (empty for `STATS`) — as one buffer, so the transport sends it in
/// one write.
pub fn encode_message(header: &str, body: &[u8]) -> Vec<u8> {
    let mut msg = Vec::with_capacity(header.len() + body.len());
    msg.extend_from_slice(header.as_bytes());
    msg.extend_from_slice(body);
    msg
}

/// Strips newlines out of a message so it cannot break line framing.
pub fn sanitize_msg(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

/// Formats a response as one newline-terminated line.
pub fn format_response(r: &Response) -> String {
    match r {
        Response::Accepted(a) => {
            let mut s = format!("OK id={} rung={}", a.id, a.rung);
            if let Some(states) = a.states {
                s.push_str(&format!(" states={states}"));
            }
            s.push_str(&format!(
                " lb={} cache={} degraded={} us={}",
                a.lower_bound,
                a.cache.name(),
                a.degraded,
                a.micros
            ));
            if a.trace != 0 {
                s.push_str(&format!(" trace={:016x}", a.trace));
            }
            s.push('\n');
            s
        }
        Response::Rejected(r) => {
            let mut s = format!(
                "ERR id={} kind={} retry={}",
                r.id,
                r.kind.name(),
                u8::from(r.kind.retryable()),
            );
            if r.trace != 0 {
                s.push_str(&format!(" trace={:016x}", r.trace));
            }
            // `msg=` stays last: it swallows the rest of the line.
            s.push_str(&format!(" msg={}\n", sanitize_msg(&r.msg)));
            s
        }
        Response::Stats(st) => {
            // The snapshot JSON is whitespace-free by construction;
            // sanitize anyway so framing survives a foreign payload.
            format!("STATS id={} body={}\n", st.id, sanitize_msg(&st.json))
        }
    }
}

fn parse_trace(v: &str) -> Result<u64, ProtoError> {
    u64::from_str_radix(v, 16).map_err(|_| err(format!("bad trace id `{v}`")))
}

/// Parses a response line.
///
/// # Errors
///
/// [`ProtoError`] naming the offending token.
pub fn parse_response(line: &str) -> Result<Response, ProtoError> {
    let line = line.trim_end_matches(['\n', '\r']);
    let (head, rest) = line
        .split_once(' ')
        .ok_or_else(|| err("truncated response line"))?;
    match head {
        "OK" => {
            let mut a = Accepted {
                id: 0,
                rung: String::new(),
                states: None,
                lower_bound: 0,
                cache: CacheStatus::Miss,
                degraded: 0,
                micros: 0,
                trace: 0,
            };
            let mut saw_id = false;
            for tok in rest.split_ascii_whitespace() {
                let (k, v) = kv(tok)?;
                match k {
                    "id" => {
                        a.id = parse_u64(k, v)?;
                        saw_id = true;
                    }
                    "rung" => a.rung = v.to_string(),
                    "states" => a.states = Some(parse_u64(k, v)?),
                    "lb" => a.lower_bound = parse_u64(k, v)?,
                    "cache" => {
                        a.cache = CacheStatus::from_name(v)
                            .ok_or_else(|| err(format!("bad cache tag `{v}`")))?
                    }
                    "degraded" => a.degraded = parse_u64(k, v)? as usize,
                    "us" => a.micros = parse_u64(k, v)?,
                    "trace" => a.trace = parse_trace(v)?,
                    other => return Err(err(format!("unknown OK key `{other}`"))),
                }
            }
            if !saw_id || a.rung.is_empty() {
                return Err(err("OK line missing id or rung"));
            }
            Ok(Response::Accepted(a))
        }
        "ERR" => {
            let mut id = None;
            let mut kind = None;
            let mut retry = None;
            let mut trace = 0u64;
            let mut rest_toks = rest.split_ascii_whitespace();
            let mut msg = String::new();
            // `msg=` must come last: it swallows the rest of the line.
            if let Some(off) = rest.find("msg=") {
                msg = rest[off + 4..].to_string();
                rest_toks = rest[..off].split_ascii_whitespace();
            }
            for tok in rest_toks {
                let (k, v) = kv(tok)?;
                match k {
                    "id" => id = Some(parse_u64(k, v)?),
                    "kind" => {
                        kind = Some(
                            RejectKind::from_name(v)
                                .ok_or_else(|| err(format!("bad reject kind `{v}`")))?,
                        )
                    }
                    "retry" => retry = Some(v == "1"),
                    "trace" => trace = parse_trace(v)?,
                    other => return Err(err(format!("unknown ERR key `{other}`"))),
                }
            }
            let kind = kind.ok_or_else(|| err("ERR line missing kind"))?;
            // The wire retry flag must agree with the kind's own
            // verdict; a mismatch means the peer speaks a different
            // protocol revision.
            if retry.is_some_and(|r| r != kind.retryable()) {
                return Err(err("retry flag contradicts reject kind"));
            }
            Ok(Response::Rejected(Rejected {
                id: id.ok_or_else(|| err("ERR line missing id"))?,
                kind,
                msg,
                trace,
            }))
        }
        "STATS" => {
            let mut id = None;
            let mut json = String::new();
            let mut rest_toks = rest.split_ascii_whitespace();
            // `body=` swallows the rest of the line, like ERR's msg=.
            if let Some(off) = rest.find("body=") {
                json = rest[off + 5..].to_string();
                rest_toks = rest[..off].split_ascii_whitespace();
            }
            for tok in rest_toks {
                let (k, v) = kv(tok)?;
                match k {
                    "id" => id = Some(parse_u64(k, v)?),
                    other => return Err(err(format!("unknown STATS key `{other}`"))),
                }
            }
            Ok(Response::Stats(StatsReply {
                id: id.ok_or_else(|| err("STATS line missing id"))?,
                json,
            }))
        }
        other => Err(err(format!("expected OK, ERR or STATS, got `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_header_roundtrips() {
        let full = Request {
            id: 42,
            bytes: 1234,
            deadline_ms: Some(250),
            steps: Some(100_000),
            base: Some(0x0123_4567_89ab_cdef_0011_2233_4455_6677),
            nocache: true,
        };
        let minimal = Request {
            id: 1,
            bytes: 0,
            deadline_ms: None,
            steps: None,
            base: None,
            nocache: false,
        };
        for r in [full, minimal] {
            let line = format_request_header(&r);
            assert!(line.len() <= MAX_HEADER_BYTES);
            assert_eq!(parse_request_header(&line).unwrap(), r);
        }
    }

    #[test]
    fn request_header_rejects_garbage() {
        for bad in [
            "",
            "GET / HTTP/1.1",
            "REQ",
            "REQ id=1",
            "REQ bytes=9",
            "REQ id=x bytes=9",
            "REQ id=1 bytes=9 base=nothex",
            "REQ id=1 bytes=9 zorp=1",
        ] {
            assert!(parse_request_header(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn responses_roundtrip() {
        let ok = Response::Accepted(Accepted {
            id: 7,
            rung: "portfolio".into(),
            states: Some(17),
            lower_bound: 17,
            cache: CacheStatus::Eco,
            degraded: 2,
            micros: 812,
            trace: 0xdead_beef_0042_1177,
        });
        let bound_only = Response::Accepted(Accepted {
            id: 8,
            rung: "bound-only".into(),
            states: None,
            lower_bound: 9,
            cache: CacheStatus::Miss,
            degraded: 3,
            micros: 40,
            trace: 0,
        });
        let rej = Response::Rejected(Rejected {
            id: 9,
            kind: RejectKind::Overloaded,
            msg: "admission queue full (capacity 64)".into(),
            trace: 0x1122_3344_5566_7788,
        });
        for r in [ok, bound_only, rej] {
            let line = format_response(&r);
            assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
            assert_eq!(parse_response(&line).unwrap(), r);
        }
    }

    #[test]
    fn rejection_messages_cannot_break_framing() {
        let r = Response::Rejected(Rejected {
            id: 1,
            kind: RejectKind::Malformed,
            msg: "line 2\ncol 3\r\nboom".into(),
            trace: 0,
        });
        let line = format_response(&r);
        assert_eq!(line.matches('\n').count(), 1);
        match parse_response(&line).unwrap() {
            Response::Rejected(r) => assert_eq!(r.msg, "line 2 col 3  boom"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn retry_flag_is_authoritative_per_kind() {
        assert!(RejectKind::Overloaded.retryable());
        assert!(RejectKind::Draining.retryable());
        assert!(RejectKind::Timeout.retryable());
        for terminal in [
            RejectKind::TooLarge,
            RejectKind::Malformed,
            RejectKind::Unsupported,
            RejectKind::Poisoned,
            RejectKind::Internal,
        ] {
            assert!(!terminal.retryable(), "{terminal:?}");
        }
        // A forged retry flag that contradicts the kind is rejected.
        assert!(parse_response("ERR id=1 kind=malformed retry=1 msg=x").is_err());
    }

    #[test]
    fn stats_header_roundtrips_and_rejects_garbage() {
        let line = format_stats_header(42);
        assert!(is_stats_header(&line));
        assert!(!is_stats_header("REQ id=1 bytes=0\n"));
        assert_eq!(parse_stats_header(&line).unwrap(), 42);
        for bad in ["", "STATS", "STATS id=x", "STATS zorp=1", "REQ id=1"] {
            assert!(parse_stats_header(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn stats_reply_roundtrips() {
        let r = Response::Stats(StatsReply {
            id: 3,
            json: r#"{"serve_requests":12,"p99":{"a":1}}"#.into(),
        });
        let line = format_response(&r);
        assert!(line.ends_with('\n') && !line[..line.len() - 1].contains('\n'));
        assert_eq!(parse_response(&line).unwrap(), r);
        assert_eq!(r.id(), 3);
    }

    #[test]
    fn trace_ids_survive_the_wire_and_bad_ones_are_rejected() {
        let mut r = Response::Accepted(Accepted {
            id: 1,
            rung: "eco".into(),
            states: Some(4),
            lower_bound: 4,
            cache: CacheStatus::Hit,
            degraded: 0,
            micros: 10,
            trace: 0,
        });
        r.set_trace(0xabc);
        match parse_response(&format_response(&r)).unwrap() {
            Response::Accepted(a) => assert_eq!(a.trace, 0xabc),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_response("OK id=1 rung=eco lb=4 trace=nothex\n").is_err());
    }

    #[test]
    fn kind_names_roundtrip() {
        for k in [
            RejectKind::Overloaded,
            RejectKind::Draining,
            RejectKind::TooLarge,
            RejectKind::Malformed,
            RejectKind::Unsupported,
            RejectKind::Timeout,
            RejectKind::Poisoned,
            RejectKind::Internal,
        ] {
            assert_eq!(RejectKind::from_name(k.name()), Some(k));
        }
        assert_eq!(RejectKind::from_name("nope"), None);
    }
}
