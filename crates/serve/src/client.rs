//! The client: one connection, typed errors, retry with backoff.
//!
//! [`Client::schedule`] submits one graph and blocks for its answer.
//! [`Client::schedule_with_retry`] wraps that in reconnect + capped
//! exponential backoff with deterministic jitter, retrying exactly
//! the failures the server marked retryable (overload, drain,
//! timeout) plus transport errors — and *never* terminal rejections
//! (malformed, too large, unsupported), which would fail identically
//! forever.

use crate::protocol::{
    self, Accepted, ProtoError, Rejected, Request, Response,
};
use crate::server::{BindAddr, Stream};
use std::io::{self, BufRead, BufReader, Write};
use std::time::{Duration, Instant};

/// Per-request knobs.
#[derive(Clone, Debug, Default)]
pub struct RequestOpts {
    /// Deadline hint sent to the server (clamped by its
    /// `max_deadline`).
    pub deadline: Option<Duration>,
    /// Deterministic step quota combined into the server-side budget.
    pub steps: Option<u64>,
    /// Canonical hash of a base graph this one extends (ECO fast
    /// path).
    pub base: Option<u128>,
    /// Bypass the schedule cache.
    pub nocache: bool,
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, write, read, premature close).
    Io(io::Error),
    /// The server answered with a typed rejection.
    Rejected(Rejected),
    /// The server answered with something unparsable.
    Protocol(ProtoError),
}

impl ClientError {
    /// Should an identical resubmission be attempted?
    pub fn retryable(&self) -> bool {
        match self {
            // A broken pipe may be a restarting or drained server.
            ClientError::Io(_) => true,
            ClientError::Rejected(r) => r.kind.retryable(),
            ClientError::Protocol(_) => false,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Rejected(r) => {
                write!(f, "rejected ({}): {}", r.kind.name(), r.msg)
            }
            ClientError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Retry schedule: capped exponential backoff with multiplicative
/// jitter in `[0.5, 1.5)` from a seeded xorshift, so tests are
/// reproducible and synchronized clients don't stampede in lockstep.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 disables retry.
    pub attempts: u32,
    /// Backoff before the second attempt.
    pub base: Duration,
    /// Upper clamp on any single backoff.
    pub cap: Duration,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(400),
            seed: 0x5eed,
        }
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl RetryPolicy {
    /// The pause after failed attempt number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        // Jitter factor in [0.5, 1.5): spreads retries of clients
        // that failed at the same instant.
        let r = xorshift(self.seed ^ (u64::from(attempt) + 1).wrapping_mul(0x9E37_79B9));
        let factor = 0.5 + (r % 1024) as f64 / 1024.0;
        Duration::from_secs_f64(exp.as_secs_f64() * factor)
    }
}

/// One answered exchange, as the client saw it. The difference of the
/// two times is what the request spent outside the server's service:
/// queue wait plus transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Exchange {
    /// Client wall time from sending the request to reading its answer
    /// line, µs.
    pub round_trip_us: u64,
    /// The server's service time for it (`us=` on the `OK` line), µs.
    pub service_us: u64,
}

/// Sends one message, header and body in one write, and flushes it.
fn send(w: &mut impl Write, header: &str, body: &[u8]) -> io::Result<()> {
    w.write_all(&protocol::encode_message(header, body))?;
    w.flush()
}

/// A connected client. One in-flight request at a time.
pub struct Client {
    writer: Stream,
    reader: BufReader<Stream>,
    next_id: u64,
    last: Option<Exchange>,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// [`io::Error`] from the transport.
    pub fn connect(addr: &BindAddr) -> io::Result<Client> {
        let stream = Stream::connect(addr)?;
        // The response wait is bounded: a wedged server surfaces as a
        // timeout error, not a hung client.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
            next_id: 1,
            last: None,
        })
    }

    /// Submits `text` and blocks for the matching answer.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — typed rejections come back as
    /// [`ClientError::Rejected`] with the server's retry verdict.
    pub fn schedule(&mut self, text: &str, opts: &RequestOpts) -> Result<Accepted, ClientError> {
        self.last = None;
        let id = self.next_id;
        self.next_id += 1;
        let req = Request {
            id,
            bytes: text.len(),
            deadline_ms: opts.deadline.map(|d| d.as_millis() as u64),
            steps: opts.steps,
            base: opts.base,
            nocache: opts.nocache,
        };
        let header = protocol::format_request_header(&req);
        let (a, round_trip) = self.exchange(id, &header, text.as_bytes(), |resp| match resp {
            Response::Accepted(a) => Some(Ok(a)),
            Response::Rejected(r) => Some(Err(ClientError::Rejected(r))),
            // A stray STATS reply belongs to no scheduling exchange;
            // keep waiting for our answer.
            Response::Stats(_) => None,
        })?;
        self.last = Some(Exchange {
            round_trip_us: round_trip.as_micros() as u64,
            service_us: a.micros,
        });
        Ok(a)
    }

    /// The round trip and service time of the last [`schedule`]
    /// call, if it was answered `OK`.
    ///
    /// [`schedule`]: Client::schedule
    pub fn last_exchange(&self) -> Option<Exchange> {
        self.last
    }

    /// Queries the daemon's live metrics snapshot (`STATS` verb) and
    /// returns the flat JSON body. Answered inline by the connection
    /// thread, so it works even while the daemon is draining or its
    /// workers are saturated.
    ///
    /// # Errors
    ///
    /// [`ClientError`] — transport failures, a typed rejection (e.g.
    /// a malformed query), or an unparsable reply.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let header = protocol::format_stats_header(id);
        let (json, _) = self.exchange(id, &header, &[], |resp| match resp {
            Response::Stats(s) => Some(Ok(s.json)),
            Response::Rejected(r) => Some(Err(ClientError::Rejected(r))),
            Response::Accepted(_) => None,
        })?;
        Ok(json)
    }

    /// Sends one message and reads lines until `answer` accepts one
    /// for `id`, returning it with the round trip. Answers for ids
    /// this client no longer waits on (e.g. from an abandoned earlier
    /// exchange) are skipped; id 0 is a connection-level rejection.
    fn exchange<T>(
        &mut self,
        id: u64,
        header: &str,
        body: &[u8],
        answer: impl Fn(Response) -> Option<Result<T, ClientError>>,
    ) -> Result<(T, Duration), ClientError> {
        let sent = Instant::now();
        send(&mut self.writer, header, body)?;
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            let resp = protocol::parse_response(&line).map_err(ClientError::Protocol)?;
            if resp.id() != id && resp.id() != 0 {
                continue;
            }
            if let Some(outcome) = answer(resp) {
                return outcome.map(|t| (t, sent.elapsed()));
            }
        }
    }

    /// Connects, submits, and retries retryable failures under
    /// `policy`, reconnecting on each attempt (the previous
    /// connection may be half-dead).
    ///
    /// # Errors
    ///
    /// The last [`ClientError`] once attempts are exhausted, or the
    /// first terminal one.
    pub fn schedule_with_retry(
        addr: &BindAddr,
        text: &str,
        opts: &RequestOpts,
        policy: &RetryPolicy,
    ) -> Result<Accepted, ClientError> {
        let mut last: Option<ClientError> = None;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(policy.backoff(attempt - 1));
            }
            let outcome = Client::connect(addr)
                .map_err(ClientError::from)
                .and_then(|mut c| c.schedule(text, opts));
            match outcome {
                Ok(a) => return Ok(a),
                Err(e) if e.retryable() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| ClientError::Io(io::Error::other("no attempts made"))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RejectKind;

    #[test]
    fn backoff_grows_is_capped_and_jittered() {
        let p = RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 7,
        };
        let waits: Vec<Duration> = (0..8).map(|a| p.backoff(a)).collect();
        // Exponential-ish growth up to the cap (jitter is ±50%).
        assert!(waits[0] >= Duration::from_millis(5) && waits[0] < Duration::from_millis(15));
        assert!(waits[3] > waits[0]);
        for w in &waits {
            assert!(*w < Duration::from_millis(300), "{w:?} exceeds jittered cap");
        }
        // Deterministic for a fixed seed.
        assert_eq!(p.backoff(2), p.backoff(2));
        // Different seeds de-synchronize.
        let q = RetryPolicy { seed: 8, ..p };
        assert_ne!(p.backoff(1), q.backoff(1));
    }

    /// A `Write` that counts its `write` calls.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_leaves_in_one_write_and_round_trips() {
        let body = hls_ir::textfmt::to_text(&hls_ir::bench_graphs::hal());
        let req = Request {
            id: 7,
            bytes: body.len(),
            deadline_ms: Some(250),
            steps: Some(1_000),
            base: Some(0xfeed_beef),
            nocache: true,
        };
        let mut w = Counting::default();
        send(&mut w, &protocol::format_request_header(&req), body.as_bytes()).unwrap();
        assert_eq!(w.writes, 1, "header and body must leave in one write");

        let split = w.bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let header = std::str::from_utf8(&w.bytes[..split]).unwrap();
        let parsed = protocol::parse_request_header(header).unwrap();
        assert_eq!(parsed, req);
        assert_eq!(&w.bytes[split..], body.as_bytes());
        assert_eq!(w.bytes.len() - split, parsed.bytes);
    }

    #[test]
    fn retryability_follows_the_server_verdict() {
        let rej = |kind| {
            ClientError::Rejected(Rejected {
                id: 1,
                kind,
                msg: String::new(),
                trace: 0,
            })
        };
        assert!(rej(RejectKind::Overloaded).retryable());
        assert!(rej(RejectKind::Timeout).retryable());
        assert!(!rej(RejectKind::Malformed).retryable());
        assert!(!rej(RejectKind::Poisoned).retryable());
        assert!(ClientError::Io(io::ErrorKind::BrokenPipe.into()).retryable());
        assert!(!ClientError::Protocol(ProtoError("x".into())).retryable());
    }
}
