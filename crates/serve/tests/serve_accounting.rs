//! Per-server accounting: every serve event is counted once, in the
//! server that saw it, whether or not `hls-obs` recording is on.
//! `STATS`, `Server::stats()` and `Server::shutdown()` render the same
//! snapshot.
//!
//! Nothing here turns recording on: the point is that serve counters
//! do not depend on it.

use hls_ir::{bench_graphs, canon, textfmt, OpId, OpKind};
use hls_serve::{BindAddr, Client, RequestOpts, ServeConfig, Server};
use std::time::Duration;

fn start(cfg: ServeConfig) -> Server {
    Server::start(&BindAddr::Tcp("127.0.0.1:0".into()), cfg).expect("bind ephemeral port")
}

/// Pulls a top-level `"name":N` integer out of the flat metrics JSON.
fn counter(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"));
    json[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {name} in {json}"))
}

/// The `count` of histogram `name` in the flat metrics JSON.
fn hist_count(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":{{");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {json}"));
    counter(&json[at + key.len() - 1..], "count")
}

#[test]
fn stats_counts_the_request_just_served_with_recording_off() {
    assert!(!hls_obs::enabled(), "this test needs hls-obs recording off");
    let server = start(ServeConfig::default());
    let mut c = Client::connect(server.addr()).expect("connect");
    c.schedule(
        &textfmt::to_text(&bench_graphs::ewf()),
        &RequestOpts::default(),
    )
    .expect("schedule");

    let body = c.stats().expect("stats");
    assert_eq!(counter(&body, "serve_requests"), 1);
    assert_eq!(counter(&body, "serve_completed"), 1);
    assert_eq!(counter(&body, "stats_queries"), 1);
    assert_eq!(hist_count(&body, "serve_queue_wait_us"), 1);
    assert_eq!(hist_count(&body, "serve_request_us"), 1);
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn two_servers_in_one_process_count_only_their_own_requests() {
    let a = start(ServeConfig::default());
    let b = start(ServeConfig::default());
    let text = textfmt::to_text(&bench_graphs::hal());

    let mut ca = Client::connect(a.addr()).expect("connect a");
    ca.schedule(&text, &RequestOpts::default())
        .expect("a schedules");
    let mut cb = Client::connect(b.addr()).expect("connect b");
    for _ in 0..3 {
        cb.schedule(&text, &RequestOpts::default())
            .expect("b schedules");
    }

    let (sa, sb) = (ca.stats().expect("stats a"), cb.stats().expect("stats b"));
    assert_eq!(counter(&sa, "serve_requests"), 1);
    assert_eq!(counter(&sb, "serve_requests"), 3);
    assert_eq!(counter(&sa, "cache_hits"), 0);
    assert_eq!(counter(&sb, "cache_hits"), 2);
    assert_eq!(a.stats().counter("serve_requests"), 1);
    assert_eq!(b.stats().counter("serve_requests"), 3);
    a.shutdown(Duration::from_secs(5));
    b.shutdown(Duration::from_secs(5));
}

#[test]
fn shutdown_snapshot_equals_the_last_stats_body_at_rest() {
    let server = start(ServeConfig {
        max_request_bytes: 1 << 16,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(server.addr()).expect("connect");

    // A cold answer, a cache hit, an ECO graft and a rejection: every
    // counter family moves.
    let base = bench_graphs::ewf();
    let text = textfmt::to_text(&base);
    c.schedule(&text, &RequestOpts::default()).expect("cold");
    c.schedule(&text, &RequestOpts::default()).expect("hit");
    let mut eco = base.clone();
    let d = eco.add_op(OpKind::Add, 1, "eco_d");
    eco.add_dep_edge(OpId::from_index(2), d, 0).unwrap();
    let opts = RequestOpts {
        base: Some(canon::graph_hash(&base)),
        ..RequestOpts::default()
    };
    c.schedule(&textfmt::to_text(&eco), &opts).expect("eco");
    let mut big = Client::connect(server.addr()).expect("connect");
    big.schedule(&"x".repeat(1 << 17), &RequestOpts::default())
        .expect_err("oversized");

    let body = c.stats().expect("stats");
    let fin = server.shutdown(Duration::from_secs(5));

    let serve_keys: Vec<_> = fin
        .counters
        .iter()
        .filter(|(n, _)| {
            n.starts_with("serve_") || n.starts_with("cache_") || *n == "stats_queries"
        })
        .collect();
    assert!(
        serve_keys.len() >= 10,
        "the snapshot leads with the serve counters"
    );
    for &&(name, v) in &serve_keys {
        assert_eq!(counter(&body, name), v, "{name}: STATS vs shutdown");
    }
    for name in ["serve_request_us", "serve_queue_wait_us"] {
        let h = fin.hist(name).unwrap_or_else(|| panic!("no {name}"));
        assert_eq!(
            hist_count(&body, name),
            h.count,
            "{name}: STATS vs shutdown"
        );
    }

    assert_eq!(fin.counter("serve_requests"), 4);
    assert_eq!(fin.counter("serve_completed"), 3);
    assert_eq!(fin.counter("serve_rejected"), 1);
    assert_eq!(fin.counter("serve_toolarge"), 1);
    assert_eq!(fin.counter("serve_eco_hits"), 1);
    assert_eq!(fin.counter("cache_hits"), 1);
}
