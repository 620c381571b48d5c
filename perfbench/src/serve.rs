//! `serve-mix`: the daemon over loopback TCP.
//!
//! One in-process `hls_serve::Server` with `ServeConfig::default()`
//! (2 workers, portfolio rung first, 256-entry cache) on its default
//! transport, loopback TCP, driven by 2 closed-loop `Client`
//! connections. Each client replays a seeded stream of 60–150-op
//! designs: ~60% new designs (cold flow plus cache insert), ~25% exact
//! resubmissions (cache hit) and ~15% ECO resubmissions that append
//! 1–3 ops with `base=` set (incremental graft). A stream that runs out
//! starts over; every answer still has to match its reference.

use crate::layers::{self, set};
use crate::measure::{self, ms, Rng, Tally};
use crate::trace::Tracer;
use crate::{gen, setup_repeated, Ctx, Outcome};
use hls_flow::{eco_flow, run_flow_degraded, EcoBase, FlowConfig};
use hls_ir::textfmt::{self, Limits};
use hls_ir::{canon, Budget, PrecedenceGraph};
use hls_serve::{BindAddr, CacheStatus, Client, RequestOpts, ServeConfig, Server};
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
/// Requests per client stream.
const STREAM: usize = 400;
/// Resubmissions and ECOs pick among this many of the client's latest
/// new designs, which the 256-entry cache still holds.
const RECENT: usize = 12;
/// `schedule_states` sums the first this-many answers of each client.
const STATES_PREFIX: usize = 120;
const MIN_OPS: usize = 60;
const MAX_OPS: usize = 150;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    New,
    Resubmit,
    Eco,
}

struct Req {
    kind: Kind,
    graph: PrecedenceGraph,
    text: String,
    base: Option<u128>,
    /// Index of the new design this request resubmits or extends.
    of: Option<usize>,
    /// Final states of the in-process reference answer.
    states: u64,
}

struct Setup {
    streams: Vec<Vec<Req>>,
    server: Server,
    clients: Vec<Client>,
}

/// Parses what goes on the wire, so references see the server's graph.
fn wire(g: &PrecedenceGraph) -> (PrecedenceGraph, String) {
    let text = textfmt::to_text(g);
    let parsed = textfmt::from_text(&text).expect("generated text parses");
    (parsed, text)
}

/// The request kinds, repeated: 12 new, 5 resubmissions, 3 ECOs in 20.
/// A fixed pattern (and sizes stepping through the whole range) keeps
/// every seed's stream the same mix; the seed picks the designs, which
/// earlier ones come back, and the ECO deltas.
const PATTERN: &[u8; 20] = b"NNRNENRNNRNENNRNENRN";

fn stream(rng: &mut Rng) -> Vec<Req> {
    let mut reqs: Vec<Req> = Vec::with_capacity(STREAM);
    let mut news: Vec<usize> = Vec::new();
    for i in 0..STREAM {
        let pick = |rng: &mut Rng, news: &[usize]| {
            news[news.len() - 1 - rng.range(0, news.len().min(RECENT))]
        };
        let req = if PATTERN[i % PATTERN.len()] == b'N' {
            let ops = MIN_OPS + news.len() * 53 % (MAX_OPS - MIN_OPS + 1);
            news.push(i);
            let (graph, text) = wire(&gen::design(rng.next_u64(), ops));
            Req {
                kind: Kind::New,
                graph,
                text,
                base: None,
                of: None,
                states: 0,
            }
        } else if PATTERN[i % PATTERN.len()] == b'R' {
            let of = pick(rng, &news);
            Req {
                kind: Kind::Resubmit,
                graph: reqs[of].graph.clone(),
                text: reqs[of].text.clone(),
                base: None,
                of: Some(of),
                states: 0,
            }
        } else {
            let of = pick(rng, &news);
            let added = 1 + reqs.iter().filter(|r| r.kind == Kind::Eco).count() % 3;
            let (graph, text) = wire(&gen::eco_target(&reqs[of].graph, added, rng));
            let base = Some(canon::graph_hash(&reqs[of].graph));
            Req {
                kind: Kind::Eco,
                graph,
                text,
                base,
                of: Some(of),
                states: 0,
            }
        };
        reqs.push(req);
    }
    reqs
}

fn setup(seed: u64) -> Setup {
    let mut rng = Rng::new(seed);
    let streams = (0..CLIENTS).map(|_| stream(&mut rng)).collect();
    let server = Server::start(&BindAddr::Tcp("127.0.0.1:0".into()), ServeConfig::default())
        .expect("loopback bind");
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("loopback connect"))
        .collect();
    Setup {
        streams,
        server,
        clients,
    }
}

/// Computes every request's reference answer in process: the degraded
/// flow the server runs for a new design, and `eco_flow` on that
/// design's outcome for an ECO. Each must validate and answer on the
/// first rung.
fn references(streams: &mut [Vec<Req>]) -> Result<(), String> {
    let cfg = FlowConfig::default();
    for reqs in streams.iter_mut() {
        let mut bases: Vec<Option<EcoBase>> = (0..reqs.len()).map(|_| None).collect();
        for i in 0..reqs.len() {
            let states = match (reqs[i].kind, reqs[i].of) {
                (Kind::New, _) => {
                    let out = run_flow_degraded(&reqs[i].graph, &cfg).map_err(|e| e.to_string())?;
                    if !out.degraded.is_empty() {
                        return Err("reference degraded below the first rung".into());
                    }
                    let o = out.outcome.ok_or("reference has no design")?;
                    hls_ir::schedule::validate(o.scheduler.graph(), &cfg.resources, &o.schedule)
                        .map_err(|e| e.to_string())?;
                    bases[i] = Some(EcoBase::of_outcome(reqs[i].graph.len(), &o));
                    o.report.final_states
                }
                (Kind::Resubmit, Some(of)) => reqs[of].states,
                (Kind::Eco, Some(of)) => {
                    let base = bases[of].clone().ok_or("ECO base has no reference")?;
                    let (o, _) = eco_flow(base, &reqs[i].graph, &cfg, &Budget::NONE)
                        .map_err(|e| e.to_string())?;
                    hls_ir::schedule::validate(o.scheduler.graph(), &cfg.resources, &o.schedule)
                        .map_err(|e| e.to_string())?;
                    o.report.final_states
                }
                _ => unreachable!("resubmissions name their design"),
            };
            reqs[i].states = states;
        }
    }
    Ok(())
}

/// One answered (or failed) request as a client saw it.
struct Answer {
    client: usize,
    seq: usize,
    latency: Duration,
    /// Server-side service time (`us=`).
    service_us: u64,
    cache: Option<CacheStatus>,
    /// `Err` holds why the answer failed its check.
    verdict: Result<u64, String>,
}

fn check(
    req: &Req,
    res: Result<hls_serve::Accepted, hls_serve::ClientError>,
) -> (u64, Option<CacheStatus>, Result<u64, String>) {
    match res {
        Err(e) => (0, None, Err(e.to_string())),
        Ok(a) => {
            let verdict = match a.states {
                _ if a.degraded != 0 || !(a.rung == "portfolio" || a.rung == "eco") => Err(
                    format!("answered on rung {} after {} demotions", a.rung, a.degraded),
                ),
                Some(s) if s == req.states && a.lower_bound <= s => Ok(s),
                got => Err(format!(
                    "states {got:?} (lower bound {}) against reference {}",
                    a.lower_bound, req.states
                )),
            };
            (a.micros, Some(a.cache), verdict)
        }
    }
}

/// Drives every client's stream in a closed loop until `until`.
fn drive(
    clients: &mut [Client],
    streams: &[Vec<Req>],
    next: &mut [usize],
    until: Instant,
    tracers: Option<&mut Vec<Tracer>>,
) -> Vec<Answer> {
    let mut tracers: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => (0..clients.len()).map(|_| None).collect(),
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(streams)
            .zip(next.iter_mut())
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(c, (((client, reqs), next), tracer))| {
                s.spawn(move || {
                    let mut answers = Vec::new();
                    while Instant::now() < until {
                        let seq = *next;
                        *next += 1;
                        let req = &reqs[seq % reqs.len()];
                        let opts = RequestOpts {
                            base: req.base,
                            ..RequestOpts::default()
                        };
                        if let Some(t) = tracer.as_deref_mut() {
                            t.design((c * 1_000_000 + seq) as u64);
                            t.begin("serve.request");
                        }
                        let t0 = Instant::now();
                        let res = client.schedule(&req.text, &opts);
                        let latency = t0.elapsed();
                        let (service_us, cache, verdict) = check(req, res);
                        if let Some(t) = tracer.as_deref_mut() {
                            // The server's own service time, at the end
                            // of the request; the rest is queue and
                            // transport.
                            let end = hls_obs::recorder::now_us();
                            t.aggregate(
                                "serve.service",
                                end.saturating_sub(service_us),
                                service_us,
                            );
                            t.end();
                        }
                        answers.push(Answer {
                            client: c,
                            seq,
                            latency,
                            service_us,
                            cache,
                            verdict,
                        });
                    }
                    answers
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Checks and tallies answers. `from_start` holds the answers to
/// cover each client's first [`STATES_PREFIX`] requests.
fn tally(answers: &[Answer], streams: &[Vec<Req>], window: Duration, from_start: bool) -> Tally {
    let mut t = Tally::default();
    let mut prefix = vec![0usize; streams.len()];
    for a in answers {
        let req = &streams[a.client][a.seq % STREAM];
        t.attempted += 1;
        t.latency_ms.push(ms(a.latency));
        if req.kind == Kind::Eco {
            t.eco_ms.push(ms(a.latency));
        }
        match &a.verdict {
            Ok(states) => {
                t.answered += 1;
                t.ops += req.graph.len() as u64;
                if a.seq < STATES_PREFIX {
                    prefix[a.client] += 1;
                    t.states += states;
                    t.ii += states;
                }
            }
            Err(e) => t.fail(format!("client {} request {}: {e}", a.client, a.seq)),
        }
    }
    for (c, n) in prefix.iter().enumerate() {
        if from_start && *n < STATES_PREFIX {
            t.fail(format!(
                "client {c} answered {n} of its first {STATES_PREFIX} requests"
            ));
        }
    }
    t.busy = window;
    t
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (mut s, setup_s) = setup_repeated(|| setup(ctx.seed));
    let (refs, ref_time) = measure::timed(|| references(&mut s.streams));
    eprintln!(
        "perfbench: serve-mix references computed in {:.3} s",
        ref_time.as_secs_f64()
    );
    if let Err(e) = refs {
        let mut t = Tally {
            attempted: 1,
            ..Tally::default()
        };
        t.fail(format!("reference: {e}"));
        return finish(s, t, Vec::new(), Vec::new(), None);
    }
    if ctx.trace {
        return traced(ctx, s);
    }
    let mut next = vec![0usize; CLIENTS];
    measure::reset_peak();
    let start = Instant::now();
    let answers = drive(
        &mut s.clients,
        &s.streams,
        &mut next,
        start + Duration::from_secs_f64(ctx.seconds),
        None,
    );
    let window = start.elapsed();
    let t = tally(&answers, &s.streams, window, true);
    let metrics = t.end_to_end(setup_s, measure::peak_bytes());
    let samples = vec![("requests", t.latency_ms.len()), ("eco", t.eco_ms.len())];
    finish(s, t, metrics, samples, None)
}

fn finish(
    s: Setup,
    t: Tally,
    metrics: Vec<measure::Metric>,
    samples: Vec<(&'static str, usize)>,
    trace: Option<Tracer>,
) -> Outcome {
    drop(s.clients);
    s.server.shutdown(Duration::from_secs(5));
    Outcome {
        attempted: t.attempted,
        failed: t.failed,
        failures: t.failures,
        metrics,
        samples,
        // Latency here is mostly loopback transport, which the host's
        // compute speed barely moves, so times are reported raw.
        calibration_ms: None,
        trace,
    }
}

/// Reads `"<hist>":{"count":N,"sum_us":S` or `"<counter>":N` out of a
/// STATS body.
fn stat(json: &str, key: &str, field: Option<&str>) -> f64 {
    let Some(at) = json.find(&format!("\"{key}\":")) else {
        return 0.0;
    };
    let mut rest = &json[at + key.len() + 3..];
    if let Some(f) = field {
        let Some(i) = rest.find(&format!("\"{f}\":")) else {
            return 0.0;
        };
        rest = &rest[i + f.len() + 3..];
    }
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0.0)
}

/// The traced run: the window's first half runs with `hls-obs` off,
/// the second with it on (the overhead comparison). Per-layer numbers
/// come from the second half: the server's `us=` on every OK line, and
/// the deltas of its STATS registry between the half's ends.
fn traced(ctx: &Ctx, mut s: Setup) -> Outcome {
    // Histograms and counters only: ring events would give every race
    // worker thread a ring kept for the life of the process.
    hls_obs::recorder::set_sample_every(u32::MAX);
    let mut stats = Client::connect(s.server.addr()).expect("loopback connect");
    let mut next = vec![0usize; CLIENTS];
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);
    let plain = drive(
        &mut s.clients,
        &s.streams,
        &mut next,
        Instant::now() + half,
        None,
    );

    hls_obs::set_enabled(true);
    let before = stats.stats();
    let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::default()).collect();
    let start = Instant::now();
    let answers = drive(
        &mut s.clients,
        &s.streams,
        &mut next,
        start + half,
        Some(&mut tracers),
    );
    let window = start.elapsed();
    let after = stats.stats();
    hls_obs::set_enabled(false);
    drop(stats);

    let mean_latency =
        |v: &[Answer]| v.iter().map(|a| ms(a.latency)).sum::<f64>() / v.len().max(1) as f64;
    let overhead = mean_latency(&answers) / mean_latency(&plain) - 1.0;
    let mut t = tally(&answers, &s.streams, window, false);
    let checked_plain = tally(&plain, &s.streams, half, true);
    // The plain half's answers are checked too; the two STATS queries
    // count as operations.
    t.attempted += checked_plain.attempted + 2;
    t.failed += checked_plain.failed;
    t.failures.extend(checked_plain.failures);
    let (before, after) = match (before, after) {
        (Ok(b), Ok(a)) => (b, a),
        (Err(e), _) | (_, Err(e)) => {
            t.fail(format!("STATS query: {e}"));
            (String::new(), String::new())
        }
    };
    let answers = &answers[..];
    let delta =
        |key: &str, field: Option<&str>| stat(&after, key, field) - stat(&before, key, field);
    let n = answers.len().max(1) as f64;
    let cold = answers
        .iter()
        .filter(|a| a.cache == Some(CacheStatus::Miss))
        .count()
        .max(1) as f64;
    let eco = answers
        .iter()
        .filter(|a| a.cache == Some(CacheStatus::Eco))
        .count();
    let hits = answers
        .iter()
        .filter(|a| a.cache == Some(CacheStatus::Hit))
        .count();
    let latency = mean_latency(answers);
    let service = answers
        .iter()
        .map(|a| a.service_us as f64 / 1e3)
        .sum::<f64>()
        / n;
    let queue_n = delta("serve_queue_wait_us", Some("count")).max(1.0);
    let queue = delta("serve_queue_wait_us", Some("sum_us")) / 1e3 / queue_n;
    let transport = latency - service - queue;
    let spawned = delta("strategy_spawned", None);
    let wasted = delta("strategy_aborted", None)
        + delta("strategy_timed_out", None)
        + delta("strategy_poisoned", None);
    let race_ms = delta("portfolio_race_us", Some("sum_us")) / 1e3;
    let sched_ms = delta("flow_schedule_us", Some("sum_us")) / 1e3;
    let graft_ms = delta("eco_graft_us", Some("sum_us")) / 1e3;
    let rung_ms = delta("degrade_rung_us", Some("sum_us")) / 1e3;
    let graft_n = delta("eco_graft_us", Some("count")).max(1.0);

    // Parse and hash, replayed on the window's request texts.
    let limits = Limits {
        max_bytes: ServeConfig::default().max_request_bytes,
        ..Limits::serving()
    };
    let (mut parse_ms, mut hash_ms) = (Vec::new(), Vec::new());
    for a in answers.iter().take(400) {
        let text = &s.streams[a.client][a.seq % STREAM].text;
        let (g, tp) = measure::timed(|| textfmt::from_text_limited(text, &limits));
        let Ok(g) = g else { continue };
        let (_, th) = measure::timed(|| canon::graph_hash(&g));
        parse_ms.push(ms(tp));
        hash_ms.push(ms(th));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;

    let mut trace = Tracer::default();
    for tr in tracers {
        trace.absorb(tr);
    }
    let mut metrics = layers::metrics(&trace);
    set(&mut metrics, "ir.parse_ms", mean(&parse_ms));
    set(&mut metrics, "ir.hash_ms", mean(&hash_ms));
    set(&mut metrics, "core.graft_ms", graft_ms / graft_n);
    set(
        &mut metrics,
        "flow.schedule_ms",
        (sched_ms - race_ms) / cold,
    );
    set(&mut metrics, "search.portfolio_ms", race_ms / cold);
    set(&mut metrics, "search.runs", spawned / cold);
    set(
        &mut metrics,
        "search.completed_share",
        (spawned - wasted) / spawned.max(1.0),
    );
    set(&mut metrics, "serve.transport_ms", transport);
    set(&mut metrics, "serve.queue_wait_ms", queue);
    set(&mut metrics, "serve.service_ms", service);
    set(&mut metrics, "serve.transport_share", transport / latency);
    set(&mut metrics, "serve.cache_hit_ratio", hits as f64 / n);
    set(&mut metrics, "serve.eco_ratio", eco as f64 / n);
    set(&mut metrics, "trace_overhead_share", overhead);
    let attributed = rung_ms + graft_ms + (mean(&parse_ms) + mean(&hash_ms)) * n;
    set(
        &mut metrics,
        "trace.accounted_share",
        attributed / (service * n).max(1e-9),
    );
    let samples = vec![("requests", answers.len())];
    finish(s, t, metrics, samples, Some(trace))
}
