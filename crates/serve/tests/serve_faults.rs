//! The serve-path fault-injection property suite: 512 seeded trials
//! against a live daemon — byte-mutated request streams, panics
//! injected mid-request, and a skewed virtual clock expiring
//! deadlines during commits. The property throughout: **every**
//! request is answered with a protocol-valid line (an `OK` or a typed
//! `ERR`), no panic crosses a request boundary, and the daemon keeps
//! answering clean requests after every fault window.
//!
//! Like the flow suite, this file is its own test binary: fault
//! plans are process-global, and the `Armed` guard serializes the
//! tests that (even vacuously) arm one.

use hls_serve::{
    BindAddr, Client, ClientError, RequestOpts, ServeConfig, Server,
};
use hls_ir::faultinject::{arm, mutate_bytes, FaultPlan};
use hls_ir::{bench_graphs, textfmt};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const MUTATION_TRIALS: u64 = 192;
const PANIC_TRIALS: u64 = 160;
const SKEW_TRIALS: u64 = 160;

/// CI re-runs the suite over disjoint seed windows via
/// `FAULTINJECT_SEED_OFFSET`; locally the offset is 0.
fn seed_offset() -> u64 {
    std::env::var("FAULTINJECT_SEED_OFFSET")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(&BindAddr::Tcp("127.0.0.1:0".into()), cfg).expect("bind ephemeral port")
}

fn tcp_target(addr: &BindAddr) -> String {
    match addr {
        BindAddr::Tcp(a) => a.clone(),
        #[cfg(unix)]
        other => panic!("expected tcp addr, got {other}"),
    }
}

/// A clean request must come back answered — any rung, any typed
/// rejection, but *answered*. `Ok(true)` means a schedule; a typed
/// rejection is also an answer. Transport errors and protocol
/// garbage fail the suite.
fn probe(addr: &BindAddr, text: &str) {
    let mut c = Client::connect(addr).expect("daemon must keep accepting");
    match c.schedule(text, &RequestOpts::default()) {
        Ok(a) => assert!(
            a.states.is_none() || a.states.unwrap() >= a.lower_bound,
            "answer violates its own bound"
        ),
        Err(ClientError::Rejected(_)) => {}
        Err(other) => panic!("probe not answered: {other}"),
    }
}

#[test]
fn mutated_request_bytes_never_kill_or_wedge_the_daemon() {
    // Vacuous plan: takes the global fault-injection lock so this
    // test never overlaps the armed ones in this binary.
    let _guard = arm(FaultPlan::default());
    let server = start(ServeConfig {
        workers: 2,
        default_deadline: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let target = tcp_target(server.addr());
    let text = textfmt::to_text(&bench_graphs::ewf());
    let clean = format!("REQ id=1 bytes={}\n{}", text.len(), text);

    for trial in 0..MUTATION_TRIALS {
        let seed = 0x5EED_0000 + seed_offset() + trial;
        let bytes = mutate_bytes(seed, clean.as_bytes());

        let mut s = TcpStream::connect(&target).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let _ = s.write_all(&bytes);
        // Closing our write half turns a short body into EOF at the
        // server, which must answer `malformed` (or close) rather
        // than wait forever.
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut replies = String::new();
        s.read_to_string(&mut replies)
            .expect("server must answer or close, never wedge");
        for line in replies.lines() {
            hls_serve::protocol::parse_response(&format!("{line}\n"))
                .unwrap_or_else(|e| panic!("garbage on the wire (seed {seed}): {e}"));
        }

        // Periodically assert the daemon still serves clean traffic.
        if trial % 32 == 31 {
            probe(server.addr(), &text);
        }
    }
    probe(server.addr(), &text);
    let stats = server.shutdown(Duration::from_secs(10));
    assert_eq!(stats.counter("serve_poisoned"), 0, "mutated *input* must never panic a worker");
}

#[test]
fn injected_panics_stay_inside_their_request() {
    let server = start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let text = textfmt::to_text(&bench_graphs::ewf());

    for trial in 0..PANIC_TRIALS {
        let seed = seed_offset() + trial;
        let k = 1 + (seed % 60);
        // Scope-prefixed: the plan hits every request the daemon
        // runs, and nothing else in this process.
        let guard = arm(FaultPlan::panic_at(k).in_runs_prefixed("serve:"));
        let mut c = Client::connect(server.addr()).expect("connect");
        match c.schedule(
            &text,
            &RequestOpts {
                nocache: true,
                ..RequestOpts::default()
            },
        ) {
            // The ladder usually absorbs the panic and answers from a
            // lower rung; the bound must still hold.
            Ok(a) => assert!(a.states.is_none() || a.states.unwrap() >= a.lower_bound),
            // A typed rejection (poisoned on every rung) is also a
            // contained outcome.
            Err(ClientError::Rejected(_)) => {}
            Err(other) => panic!("panic escaped as a transport failure: {other}"),
        }
        drop(guard);
        // The very next clean request must be served normally.
        if trial % 16 == 15 {
            probe(server.addr(), &text);
        }
    }
    probe(server.addr(), &text);
    server.shutdown(Duration::from_secs(10));
}

#[test]
fn skewed_clock_deadline_expiry_during_commits_degrades_not_hangs() {
    let server = start(ServeConfig {
        workers: 2,
        default_deadline: Duration::from_millis(250),
        ..ServeConfig::default()
    });
    let text = textfmt::to_text(&bench_graphs::ewf());

    for trial in 0..SKEW_TRIALS {
        let seed = 0xC10C_0000 + seed_offset() + trial;
        // Every commit advances the virtual clock 1–50ms: the
        // request's wall deadline expires after a seed-chosen number
        // of commits, mid-flow.
        let per_commit = Duration::from_millis(1 + seed % 50);
        let guard = arm(FaultPlan {
            clock_skew_per_commit: per_commit,
            ..FaultPlan::default()
        }
        .in_runs_prefixed("serve:"));
        let mut c = Client::connect(server.addr()).expect("connect");
        match c.schedule(
            &text,
            &RequestOpts {
                deadline: Some(Duration::from_millis(100 + (seed % 7) * 40)),
                nocache: true,
                ..RequestOpts::default()
            },
        ) {
            // Degraded answers (often bound-only) are the designed
            // outcome of an expiring deadline.
            Ok(a) => assert!(a.states.is_none() || a.states.unwrap() >= a.lower_bound),
            Err(ClientError::Rejected(r)) => {
                assert!(
                    r.kind.retryable() || r.kind == hls_serve::RejectKind::Poisoned,
                    "deadline expiry must reject retryably, got {:?}",
                    r.kind
                );
            }
            Err(other) => panic!("deadline expiry wedged the daemon: {other}"),
        }
        drop(guard);
        if trial % 16 == 15 {
            probe(server.addr(), &text);
        }
    }
    probe(server.addr(), &text);
    server.shutdown(Duration::from_secs(10));
}
