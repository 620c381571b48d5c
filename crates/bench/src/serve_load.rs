//! BENCH_5: the scheduler-as-a-service load study.
//!
//! Boots an in-process daemon, measures its capacity with a
//! closed-loop saturation probe (`workers` connections, each sending
//! its next request as soon as the last one is answered), then drives
//! an **open-loop** generator — send times are fixed by the offered
//! rate, not by completions, so overload actually overloads — at
//! multiples of that capacity from 0.5× to 2×. Reported per point:
//! schedules/sec achieved and its ratio to the offered rate,
//! client-side p50/p99 latency of *completed* requests, and the shed
//! rate. The overload point is the contract check: the daemon must
//! shed with typed rejections while the requests it does accept keep a
//! bounded p99 — not buffer without bound and time everything out.
//!
//! A second study measures the schedule cache: server-side service
//! time of a cold submission vs an exact resubmission (hit) vs an
//! ECO-edited resubmission replayed incrementally (eco).

use hls_ir::{canon, generate, textfmt, OpKind};
use hls_serve::{
    BindAddr, CacheStatus, Client, ClientError, RejectKind, RequestOpts, ServeConfig, Server,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered rates of the open-loop sweep, as multiples of the probed
/// capacity.
const RATE_MULTS: [f64; 5] = [0.5, 0.75, 1.0, 1.25, 2.0];

/// Deadline of the cache study's requests: the cold flow must finish
/// on the portfolio rung, or there is nothing to cache.
const CACHE_STUDY_DEADLINE: Duration = Duration::from_secs(120);

/// One offered-rate point of the open-loop sweep.
#[derive(Clone, Copy, Debug)]
pub struct LoadPoint {
    /// Offered rate as a multiple of the probed capacity.
    pub rate_mult: f64,
    /// Offered rate in requests/sec.
    pub offered_rps: f64,
    /// Requests sent.
    pub sent: usize,
    /// Requests answered `OK`.
    pub completed: usize,
    /// Requests shed with a typed retryable rejection (queue or
    /// connection table full).
    pub shed: usize,
    /// Requests rejected with `timeout` (deadline expired).
    pub timeouts: usize,
    /// Other failures (should be 0).
    pub errors: usize,
    /// Median client-observed latency of completed requests, µs.
    pub p50_us: u64,
    /// 99th-percentile client-observed latency of completed
    /// requests, µs.
    pub p99_us: u64,
    /// Completed requests per second of wall time.
    pub achieved_rps: f64,
}

impl LoadPoint {
    /// Shed fraction of all sent requests.
    pub fn shed_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.shed as f64 / self.sent as f64
        }
    }

    /// Achieved over offered rate: 1 while the daemon keeps up.
    pub fn achieved_ratio(&self) -> f64 {
        self.achieved_rps / self.offered_rps
    }
}

/// The cache fast-path study.
#[derive(Clone, Copy, Debug)]
pub struct CacheStudy {
    /// Operation count of the studied graph.
    pub ops: usize,
    /// Server-side service time of the cold submission, µs.
    pub cold_us: u64,
    /// Server-side service time of the exact resubmission, µs.
    pub hit_us: u64,
    /// Server-side service time of the ECO-delta resubmission, µs.
    pub eco_us: u64,
}

impl CacheStudy {
    /// Cold time over hit time.
    pub fn hit_speedup(&self) -> f64 {
        self.cold_us as f64 / self.hit_us.max(1) as f64
    }

    /// Cold time over ECO-replay time.
    pub fn eco_speedup(&self) -> f64 {
        self.cold_us as f64 / self.eco_us.max(1) as f64
    }
}

/// The whole BENCH_5 result.
#[derive(Clone, Debug)]
pub struct LoadStudy {
    /// Worker threads of the daemon under test.
    pub workers: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Mean server-side service time (`us=`) over the probe, µs.
    pub mean_service_us: u64,
    /// Capacity measured by the closed-loop probe: completions per
    /// second with one connection per worker, req/s.
    pub capacity_rps: f64,
    /// Per-request deadline used by the sweep, ms.
    pub deadline_ms: u64,
    /// One point per multiple of the capacity, 0.5× to 2×.
    pub points: Vec<LoadPoint>,
    /// The cache study.
    pub cache: CacheStudy,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// The request corpus: distinct mid-size DAGs, pre-serialized.
fn corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let ops = 60 + (i % 7) * 12;
            textfmt::to_text(&generate::stress_dag(0xB5_0000 + i as u64, ops))
        })
        .collect()
}

fn serve_config(workers: usize) -> ServeConfig {
    let mut cfg = ServeConfig {
        workers,
        queue_capacity: workers * 2,
        max_connections: 256,
        // Room for the cache study's cold flow (~20 s at 1000 ops on
        // a 2-vCPU Xeon); the sweep sets its own short deadline.
        max_deadline: CACHE_STUDY_DEADLINE,
        ..ServeConfig::default()
    };
    // Workers are the parallelism; a portfolio fanning out to every
    // core per request would just thrash under load.
    cfg.flow.engine = hls_flow::Engine::Portfolio(hls_search::PortfolioConfig {
        threads: 2,
        ..Default::default()
    });
    cfg
}

/// The closed-loop saturation probe: `workers` connections, each
/// sending its next request the moment the last is answered, for
/// `window`. A worker idles only while its answer travels back and
/// the next request arrives, so completions per second is the
/// daemon's capacity on this corpus, less that turnaround. Returns
/// the mean server-side service time (µs) and that rate.
fn probe_capacity(addr: &BindAddr, texts: &[String], workers: usize, window: Duration) -> (u64, f64) {
    let opts = RequestOpts {
        nocache: true,
        deadline: Some(Duration::from_secs(10)),
        ..RequestOpts::default()
    };
    let start = Instant::now();
    let (done, total_us) = std::thread::scope(|scope| {
        let conns: Vec<_> = (0..workers)
            .map(|w| {
                let opts = &opts;
                scope.spawn(move || {
                    let mut c = Client::connect(addr).expect("probe connect");
                    let (mut n, mut us) = (0u64, 0u64);
                    for text in texts.iter().cycle().skip(w) {
                        if start.elapsed() >= window {
                            break;
                        }
                        us += c.schedule(text, opts).expect("probe request").micros;
                        n += 1;
                    }
                    (n, us)
                })
            })
            .collect();
        conns
            .into_iter()
            .map(|h| h.join().expect("probe connection"))
            .fold((0, 0), |(n, us), (dn, dus)| (n + dn, us + dus))
    });
    let rate = done as f64 / start.elapsed().as_secs_f64();
    ((total_us / done.max(1)).max(1), rate)
}

/// One open-loop point: `senders` client threads pull fire slots from
/// a shared schedule; each slot fires at `start + i/rate` regardless
/// of how previous requests fared.
fn run_point(
    addr: &BindAddr,
    texts: &[String],
    rate_mult: f64,
    offered_rps: f64,
    total: usize,
    deadline: Duration,
) -> LoadPoint {
    let next = AtomicUsize::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(total));
    let counts = [(); 4].map(|()| AtomicUsize::new(0));
    let [completed, shed, timeouts, errors] = &counts;
    let interval = Duration::from_secs_f64(1.0 / offered_rps);
    let senders = 32usize;
    // One persistent connection per sender, opened before the clock
    // starts so connection set-up is not part of the offered load; a
    // send error reconnects (the server may have closed on us).
    let conns: Vec<Option<Client>> = (0..senders).map(|_| Client::connect(addr).ok()).collect();
    let start = Instant::now();

    std::thread::scope(|scope| {
        for mut conn in conns {
            let (next, latencies, completed, shed, timeouts, errors) =
                (&next, &latencies, completed, shed, timeouts, errors);
            scope.spawn(move || {
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= total {
                        return;
                    }
                    let fire_at = start + interval.mul_f64(slot as f64);
                    if let Some(wait) = fire_at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let text = &texts[slot % texts.len()];
                    let opts = RequestOpts {
                        nocache: true,
                        deadline: Some(deadline),
                        ..RequestOpts::default()
                    };
                    let sent_at = Instant::now();
                    let outcome = match conn.as_mut() {
                        Some(c) => c.schedule(text, &opts),
                        None => match Client::connect(addr) {
                            Ok(mut c) => {
                                let r = c.schedule(text, &opts);
                                conn = Some(c);
                                r
                            }
                            Err(e) => Err(ClientError::Io(e)),
                        },
                    };
                    match outcome {
                        Ok(_) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            let us = sent_at.elapsed().as_micros() as u64;
                            latencies.lock().unwrap().push(us);
                        }
                        Err(ClientError::Rejected(r)) => match r.kind {
                            RejectKind::Overloaded | RejectKind::Draining => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            RejectKind::Timeout => {
                                timeouts.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        },
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            conn = None;
                        }
                    }
                }
            });
        }
    });

    let wall = start.elapsed().as_secs_f64().max(1e-9);
    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let done = completed.load(Ordering::Relaxed);
    LoadPoint {
        rate_mult,
        offered_rps,
        sent: total,
        completed: done,
        shed: shed.load(Ordering::Relaxed),
        timeouts: timeouts.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        achieved_rps: done as f64 / wall,
    }
}

/// The cache study: cold vs hit vs ECO replay on a large graph.
fn cache_study(addr: &BindAddr, quick: bool) -> CacheStudy {
    let ops = if quick { 800 } else { 1000 };
    let base = generate::stress_dag(0xEC0_CACE, ops);
    let base_hash = canon::graph_hash(&base);
    let text = textfmt::to_text(&base);
    let slow = RequestOpts {
        deadline: Some(CACHE_STUDY_DEADLINE),
        ..RequestOpts::default()
    };

    let mut c = Client::connect(addr).expect("cache-study connect");
    let cold = c.schedule(&text, &slow).expect("cold submission");
    assert_eq!(cold.cache, CacheStatus::Miss, "first submission must miss");

    let hit = c.schedule(&text, &slow).expect("resubmission");
    assert_eq!(
        hit.cache,
        CacheStatus::Hit,
        "resubmission must hit (the cold answer: rung {}, states {:?}, {} ms)",
        cold.rung,
        cold.states,
        cold.micros / 1000
    );

    // The ECO: a few late ops hung off existing results.
    let mut eco = base.clone();
    let tail = hls_ir::OpId::from_index(ops - 1);
    let a = eco.add_op(OpKind::Add, 1, "eco_a");
    eco.add_dep_edge(tail, a, 0).expect("eco edge");
    let b = eco.add_op(OpKind::Mul, 2, "eco_b");
    eco.add_dep_edge(a, b, 0).expect("eco edge");
    let d = eco.add_op(OpKind::Sub, 1, "eco_c");
    eco.add_dep_edge(b, d, 0).expect("eco edge");
    let eco_answer = c
        .schedule(
            &textfmt::to_text(&eco),
            &RequestOpts {
                base: Some(base_hash),
                ..slow
            },
        )
        .expect("eco submission");
    assert_eq!(
        eco_answer.cache,
        CacheStatus::Eco,
        "ECO resubmission must replay incrementally"
    );

    CacheStudy {
        ops,
        cold_us: cold.micros.max(1),
        hit_us: hit.micros.max(1),
        eco_us: eco_answer.micros.max(1),
    }
}

/// Runs the whole study against a fresh in-process daemon.
pub fn run_load_study(quick: bool) -> LoadStudy {
    let workers = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .clamp(2, 4);
    let cfg = serve_config(workers);
    let queue_capacity = cfg.queue_capacity;
    let server =
        Server::start(&BindAddr::Tcp("127.0.0.1:0".into()), cfg).expect("bind load-study server");
    let addr = server.addr().clone();

    let texts = corpus(if quick { 12 } else { 48 });
    let probe_window = Duration::from_secs_f64(if quick { 1.0 } else { 3.0 });
    let (mean_service_us, capacity_rps) = probe_capacity(&addr, &texts, workers, probe_window);

    // The deadline bounds tail latency: generous next to the mean
    // service time, small next to the sweep duration.
    let deadline = Duration::from_micros((mean_service_us * 20).clamp(200_000, 5_000_000));
    let window_s = if quick { 2.0 } else { 8.0 };

    let points = RATE_MULTS
        .into_iter()
        .map(|mult| {
            let offered = (capacity_rps * mult).max(1.0);
            let total = (offered * window_s).ceil() as usize;
            run_point(&addr, &texts, mult, offered, total, deadline)
        })
        .collect();

    let cache = cache_study(&addr, quick);
    server.shutdown(Duration::from_secs(10));

    LoadStudy {
        workers,
        queue_capacity,
        mean_service_us,
        capacity_rps,
        deadline_ms: deadline.as_millis() as u64,
        points,
        cache,
    }
}

/// Renders the study as the usual aligned table.
pub fn load_report(study: &LoadStudy) -> String {
    let header: Vec<String> = [
        "rate", "offered/s", "sent", "ok", "shed", "timeout", "err", "p50 ms", "p99 ms",
        "achieved/s", "achieved/offered",
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    let rows: Vec<Vec<String>> = study
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{:.2}x", p.rate_mult),
                format!("{:.1}", p.offered_rps),
                p.sent.to_string(),
                p.completed.to_string(),
                format!("{} ({:.0}%)", p.shed, p.shed_rate() * 100.0),
                p.timeouts.to_string(),
                p.errors.to_string(),
                format!("{:.2}", p.p50_us as f64 / 1000.0),
                format!("{:.2}", p.p99_us as f64 / 1000.0),
                format!("{:.1}", p.achieved_rps),
                format!("{:.3}", p.achieved_ratio()),
            ]
        })
        .collect();
    let mut out = format!(
        "probe: {} connections closed-loop, {:.1} req/s, mean service {:.2} ms\n",
        study.workers,
        study.capacity_rps,
        study.mean_service_us as f64 / 1000.0,
    );
    out.push_str(&crate::render_table(&header, &rows));
    out.push_str(&format!(
        "\ncache study ({} ops): cold {:.1} ms, hit {:.3} ms ({:.0}x), eco replay {:.1} ms ({:.1}x)\n",
        study.cache.ops,
        study.cache.cold_us as f64 / 1000.0,
        study.cache.hit_us as f64 / 1000.0,
        study.cache.hit_speedup(),
        study.cache.eco_us as f64 / 1000.0,
        study.cache.eco_speedup(),
    ));
    out
}
