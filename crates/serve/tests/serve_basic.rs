//! End-to-end daemon behavior over real sockets: answers, cache hits,
//! the ECO fast path, typed rejections (malformed, too large,
//! unsupported), overload shedding, and graceful drain.

use hls_serve::{
    BindAddr, CacheStatus, Client, ClientError, RejectKind, RequestOpts, RetryPolicy,
    ServeConfig, Server,
};
use hls_ir::{bench_graphs, canon, textfmt, OpId, OpKind};
use std::time::Duration;

fn local() -> BindAddr {
    BindAddr::Tcp("127.0.0.1:0".into())
}

fn start(cfg: ServeConfig) -> Server {
    Server::start(&local(), cfg).expect("bind ephemeral port")
}

#[test]
fn schedules_a_graph_and_answers_from_the_cache_on_resubmission() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let text = textfmt::to_text(&bench_graphs::ewf());

    let first = client.schedule(&text, &RequestOpts::default()).unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    assert!(first.states.is_some());
    assert!(first.states.unwrap() >= first.lower_bound);

    // Resubmission with rewritten labels: the cache key is the
    // *canonical* form (labels excluded), so this still hits and the
    // answer agrees with the cold one.
    let relabeled = text.replace(" t", " renamed_t");
    assert_ne!(relabeled, text, "the rewrite must actually change labels");
    let second = client.schedule(&relabeled, &RequestOpts::default()).unwrap();
    assert_eq!(second.cache, CacheStatus::Hit);
    assert_eq!(second.states, first.states);
    assert_eq!(second.lower_bound, first.lower_bound);

    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(stats.counter("cache_hits"), 1);
    assert_eq!(stats.counter("serve_completed"), 2);
}

#[test]
fn eco_delta_resubmission_takes_the_replay_fast_path() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let base = bench_graphs::ewf();
    let base_hash = canon::graph_hash(&base);
    client
        .schedule(&textfmt::to_text(&base), &RequestOpts::default())
        .unwrap();

    // An ECO: two extra ops hanging off existing ones.
    let mut eco = base.clone();
    let a = eco.add_op(OpKind::Add, 1, "eco_a");
    eco.add_dep_edge(OpId::from_index(3), a, 0).unwrap();
    let b = eco.add_op(OpKind::Mul, 2, "eco_b");
    eco.add_dep_edge(a, b, 0).unwrap();

    let opts = RequestOpts {
        base: Some(base_hash),
        ..RequestOpts::default()
    };
    let answer = client.schedule(&textfmt::to_text(&eco), &opts).unwrap();
    assert_eq!(answer.cache, CacheStatus::Eco);
    assert_eq!(answer.rung, "eco");
    assert!(answer.states.unwrap() >= answer.lower_bound);

    // A *wrong* base claim (graph does not extend it) still answers —
    // from the cold path.
    let unrelated = textfmt::to_text(&bench_graphs::fir());
    let cold = client.schedule(&unrelated, &opts).unwrap();
    assert_eq!(cold.cache, CacheStatus::Miss);

    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(stats.counter("serve_eco_hits"), 1);
}

#[test]
fn malformed_and_oversized_requests_are_typed_rejections() {
    let cfg = ServeConfig {
        max_request_bytes: 4096,
        ..ServeConfig::default()
    };
    let server = start(cfg);

    // Malformed body: the rejection carries the parser's position.
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client
        .schedule("op 0 add 1 a\nop 1 zorblax 1 b\n", &RequestOpts::default())
        .unwrap_err();
    match err {
        ClientError::Rejected(r) => {
            assert_eq!(r.kind, RejectKind::Malformed);
            assert!(!r.kind.retryable());
            assert!(r.msg.contains("line 2"), "unpositioned: {}", r.msg);
        }
        other => panic!("expected rejection, got {other}"),
    }

    // Oversized declaration: refused before the body is read.
    let mut client = Client::connect(server.addr()).unwrap();
    let big = "x".repeat(8192);
    let err = client.schedule(&big, &RequestOpts::default()).unwrap_err();
    match err {
        ClientError::Rejected(r) => {
            assert_eq!(r.kind, RejectKind::TooLarge);
            assert!(!r.kind.retryable());
        }
        other => panic!("expected rejection, got {other}"),
    }

    // A loop kernel without the pipeline seat: unsupported, terminal.
    let mut client = Client::connect(server.addr()).unwrap();
    let kernel = textfmt::to_text(&bench_graphs::mac_loop());
    let err = client.schedule(&kernel, &RequestOpts::default()).unwrap_err();
    match err {
        ClientError::Rejected(r) => assert_eq!(r.kind, RejectKind::Unsupported),
        other => panic!("expected rejection, got {other}"),
    }

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn overload_sheds_with_typed_retryable_rejections_and_answers_the_rest() {
    // One worker, a one-slot queue, and a burst of concurrent
    // requests: some must be shed (typed, retryable), all must be
    // answered, none may hang.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    };
    let server = start(cfg);
    let addr = server.addr().clone();
    let text = textfmt::to_text(&hls_ir::generate::stress_dag(0x10AD, 300));

    let handles: Vec<_> = (0..12)
        .map(|_| {
            let addr = addr.clone();
            let text = text.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr)?;
                c.schedule(
                    &text,
                    &RequestOpts {
                        nocache: true,
                        deadline: Some(Duration::from_secs(10)),
                        ..RequestOpts::default()
                    },
                )
            })
        })
        .collect();

    let mut ok = 0u32;
    let mut shed = 0u32;
    for h in handles {
        match h.join().expect("client thread must not panic") {
            Ok(a) => {
                assert!(a.states.is_none() || a.states.unwrap() >= a.lower_bound);
                ok += 1;
            }
            Err(ClientError::Rejected(r)) => {
                assert_eq!(r.kind, RejectKind::Overloaded, "unexpected {r:?}");
                assert!(r.kind.retryable());
                shed += 1;
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert_eq!(ok + shed, 12);
    assert!(ok >= 1, "at least the queue capacity must be served");
    assert!(shed >= 1, "a 1-deep queue under a 12-burst must shed");

    let stats = server.shutdown(Duration::from_secs(10));
    assert_eq!(stats.counter("serve_shed"), u64::from(shed));
    assert_eq!(stats.counter("serve_completed"), u64::from(ok));
}

#[test]
fn drain_refuses_new_work_and_shutdown_reports_stats() {
    let server = start(ServeConfig::default());
    let mut before = Client::connect(server.addr()).unwrap();
    let text = textfmt::to_text(&bench_graphs::hal());
    before.schedule(&text, &RequestOpts::default()).unwrap();

    server.drain();

    // A connection opened during drain is refused with the typed,
    // retryable `draining` rejection (or refused outright at the
    // transport, which is also acceptable).
    if let Ok(mut c) = Client::connect(server.addr()) {
        match c.schedule(&text, &RequestOpts::default()) {
            Err(ClientError::Rejected(r)) => {
                assert_eq!(r.kind, RejectKind::Draining);
                assert!(r.kind.retryable());
            }
            Err(ClientError::Io(_)) => {} // refused before the write landed
            other => panic!("admitted during drain: {other:?}"),
        }
    }

    let stats = server.shutdown(Duration::from_secs(5));
    assert_eq!(stats.counter("serve_completed"), 1);
    assert!(stats.counter("serve_drain_rejects") >= 1);
}

#[test]
fn retry_with_backoff_succeeds_against_a_healthy_server() {
    let server = start(ServeConfig::default());
    let text = textfmt::to_text(&bench_graphs::ar());
    let policy = RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        seed: 42,
    };
    let a = Client::schedule_with_retry(server.addr(), &text, &RequestOpts::default(), &policy)
        .unwrap();
    assert!(a.states.is_some());
    server.shutdown(Duration::from_secs(5));
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works_end_to_end() {
    let path = std::env::temp_dir().join(format!("hls-serve-test-{}.sock", std::process::id()));
    let addr = BindAddr::Unix(path.clone());
    let server = Server::start(&addr, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let a = client
        .schedule(&textfmt::to_text(&bench_graphs::hal()), &RequestOpts::default())
        .unwrap();
    assert!(a.states.is_some());
    server.shutdown(Duration::from_secs(5));
    assert!(!path.exists(), "socket file removed on shutdown");
}
