//! The experiment runner: one subcommand per paper table, figure or
//! `BENCH_*` study.
//!
//! ```text
//! cargo run --release -p hls-bench --bin bench -- <sub> [--quick] [--out PATH] [...]
//! ```
//!
//! Every artifact goes through `hls_bench::artifact`: it starts with the
//! common host header and is checked to be strict JSON before it is
//! written. The asserts in the study functions are the studies' gates;
//! `EXPERIMENTS.md` records the interpretation of each artifact.

use std::collections::BTreeSet;
use std::process::exit;
use std::time::{Duration, Instant};

use hls_bench::artifact::{self, json_number, Json};
use hls_bench::complexity::{fit_exponent, flow_sweep, report_flow, report_scaling};
use hls_bench::complexity::{scaling_sweep, sweep_config, FLOW_SEEDS};
use hls_bench::mem::{self, CountingAlloc};
use hls_bench::microbench::{bench_kernels, bench_probes, bench_select_commit, check_wall_100k};
use hls_bench::portfolio::{fig3_portfolio, fig3_report};
use hls_bench::portfolio::{sweep_report, thread_sweep};
use hls_bench::serve_load;
use hls_bench::{complexity, coupling, delay_sweep, fig1, fig3, meta_ablation, modulo, obj};
use hls_flow::{run_flow_degraded, FlowConfig};
use hls_ir::{bench_graphs, generate, textfmt, Budget, ResourceSet};
use hls_serve::{BindAddr, Client, RequestOpts, ServeConfig, Server};

/// Installed for every subcommand, armed only by `scaling`: disarmed,
/// the hook is one relaxed load (see `hls_bench::mem`).
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: bench <subcommand> [--quick] [--out PATH] [flag]

paper tables (no flags):
  fig1 | fig3 | coupling | delay-sweep | meta-ablation | complexity

studies (--quick shrinks the run for CI smokes and is recorded in the
artifact; --out overrides the default artifact path):
  scaling [--sizes N,N,..]  BENCH_2.json  schedule_all wall + peak heap vs the frozen seed,
                                          plus the default flow at 150-800 ops
  portfolio                 BENCH_3.json  parallel portfolio quality + thread sweep
  modulo                    BENCH_4.json  achieved II vs certified MII
  serve                     BENCH_5.json  daemon load sweep + schedule cache
  micro [--check PATH]      BENCH_7.json  hot-path micro-benchmarks; --check PATH only
                                          gates the 100k-op wall against PATH
  obs                       obs-trace.json  traced run + STATS smoke";

/// Subcommand, default artifact path (`None`: prints a table and takes
/// no flags) and the one subcommand-specific flag.
const SUBS: [(&str, Option<&str>, Option<&str>); 12] = [
    ("fig1", None, None),
    ("fig3", None, None),
    ("coupling", None, None),
    ("delay-sweep", None, None),
    ("meta-ablation", None, None),
    ("complexity", None, None),
    ("scaling", Some("BENCH_2.json"), Some("--sizes")),
    ("portfolio", Some("BENCH_3.json"), None),
    ("modulo", Some("BENCH_4.json"), None),
    ("serve", Some("BENCH_5.json"), None),
    ("micro", Some("BENCH_7.json"), Some("--check")),
    ("obs", Some("obs-trace.json"), None),
];

#[derive(Debug, Default, PartialEq)]
struct Cli {
    sub: &'static str,
    quick: bool,
    out: String,
    sizes: Option<Vec<usize>>,
    check: Option<String>,
}

/// Parses `<sub> [flags]`; an unknown subcommand or flag, a flag the
/// subcommand does not take, or a missing or malformed flag value is
/// an error.
fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut args = args.into_iter();
    let name = args.next().ok_or("missing subcommand")?;
    let &(sub, default_out, extra) = SUBS
        .iter()
        .find(|s| s.0 == name)
        .ok_or_else(|| format!("unknown subcommand '{name}'"))?;
    let out = default_out.unwrap_or_default().to_string();
    let mut cli = Cli {
        sub,
        out,
        ..Cli::default()
    };
    while let Some(flag) = args.next() {
        let study_flag = default_out.is_some() && matches!(flag.as_str(), "--quick" | "--out");
        if !study_flag && Some(flag.as_str()) != extra {
            return Err(format!("unknown flag '{flag}' for '{name}'"));
        }
        if flag == "--quick" {
            cli.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--out" => cli.out = value,
            "--check" => cli.check = Some(value),
            _ => {
                let sizes: Result<_, _> = value.split(',').map(|s| s.trim().parse()).collect();
                let err = |_| format!("--sizes takes integers, got '{value}'");
                cli.sizes = Some(sizes.map_err(err)?);
            }
        }
    }
    Ok(cli)
}

fn main() {
    let cli = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("bench: {e}\n\n{USAGE}");
        exit(2);
    });
    let (bench, body) = match cli.sub {
        "scaling" => ("BENCH_2", scaling(&cli)),
        "portfolio" => ("BENCH_3", portfolio(cli.quick)),
        "modulo" => ("BENCH_4", modulo(cli.quick)),
        "serve" => ("BENCH_5", serve(cli.quick)),
        "micro" => match &cli.check {
            Some(committed) => return wall_gate(committed),
            None => ("BENCH_7", micro(cli.quick)),
        },
        "obs" => return obs(&cli),
        sub => {
            println!("{}", table(sub));
            return;
        }
    };
    write(&cli.out, &artifact::document(bench, cli.quick, body));
}

/// Writes a validated artifact; an unwritable path or invalid JSON is
/// fatal.
fn write(out: &str, text: &str) {
    artifact::write(out, text).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
}

/// The paper-facing tables and figures, titled.
fn table(sub: &str) -> String {
    let classic = ResourceSet::classic(2, 2);
    let (title, table) = match sub {
        "fig1" => (
            "Figure 1 — phase coupling on the motivating example",
            fig1::report(&fig1::run()),
        ),
        "fig3" => (
            "Figure 3 — scheduling results under resource constraints",
            fig3::report(&fig3::run()),
        ),
        "coupling" => (
            "Phase-coupling ablation (4 injected changes per campaign)",
            coupling::report(&coupling::run(4, 2024)),
        ),
        "delay-sweep" => (
            "Delay-model sweep (2 ALU, 2 MUL; multiplier latency 1..4)",
            delay_sweep::report(&delay_sweep::run(&classic, 4)),
        ),
        "meta-ablation" => (
            "Meta-schedule ablation (2 ALU, 2 MUL; 50 random orders)",
            meta_ablation::report(&meta_ablation::run(&classic, 50)),
        ),
        _ => (
            "Theorem 3 — full-schedule wall time by graph size",
            complexity::report(&complexity::run(&[64, 128, 256, 512, 1024, 2048], 512)),
        ),
    };
    format!("{title}\n{table}")
}

/// BENCH_2: the Theorem 3 scaling study with the byte counter armed —
/// per-size `schedule_all` walls for the optimized scheduler and the
/// frozen seed (asserted equal in diameter), peak heap growth, the
/// fitted exponent and the headline speedup.
fn scaling(cli: &Cli) -> Json {
    // The seed is ~100–2000× slower than the optimized engine; above
    // the cutoff only the optimized engine is timed, and the headline
    // speedup is read at the cutoff.
    let (cutoff, default_sizes) = match cli.quick {
        true => (1000, vec![500, 1000, 2000]),
        false => (
            5000,
            vec![500, 1000, 2000, 5000, 10000, 20000, 50000, 100000],
        ),
    };
    mem::arm();
    // Warm the process (code paging, allocator arenas) so the first
    // measured point is not inflated relative to the rest of the fit.
    let _ = scaling_sweep(&[256], 0);
    let points = scaling_sweep(cli.sizes.as_ref().unwrap_or(&default_sizes), cutoff);
    mem::disarm();
    print!("{}", report_scaling(&points));

    let opt: Vec<(usize, u128)> = points.iter().map(|p| (p.ops, p.opt_us)).collect();
    let slope = fit_exponent(&opt);
    let headline = points
        .iter()
        .find(|p| p.ops == cutoff)
        .and_then(|p| p.ref_us.map(|r| r as f64 / p.opt_us.max(1) as f64));
    println!("fitted scaling exponent (optimized): {slope:.3}");
    if let Some(s) = headline {
        println!("speedup vs pre-refactor seed at the headline size: {s:.1}x");
    }
    if let Some(p) = points.iter().max_by_key(|p| p.ops) {
        let dense_mb = (p.ops as f64 * p.ops as f64 * 2.0 / 8.0) / (1024.0 * 1024.0);
        println!(
            "peak heap growth at |V|={}: {:.1} MB (dense closure pair alone would need {:.0} MB)",
            p.ops,
            p.peak_bytes as f64 / (1024.0 * 1024.0),
            dense_mb,
        );
    }
    let rows = points.iter().map(|p| {
        obj! {
            "ops": p.ops, "edges": p.edges, "optimized_us": p.opt_us, "reference_us": p.ref_us,
            "diameter": p.diameter, "peak_alloc_bytes": p.peak_bytes,
        }
    });

    // The flow row: `--sizes` sets the engine sweep only.
    let flow_sizes: &[usize] = if cli.quick {
        &[150, 250]
    } else {
        &[150, 250, 400, 800]
    };
    let flow = flow_sweep(flow_sizes);
    print!("{}", report_flow(&flow));
    let flow_fit: Vec<(usize, u128)> = flow.iter().map(|p| (p.ops, p.flow_us)).collect();
    let flow_slope = fit_exponent(&flow_fit);
    println!("fitted scaling exponent (flow): {flow_slope:.3}");
    let flow_rows = flow.iter().map(|p| {
        obj! { "ops": p.ops, "flow_us": p.flow_us, "wire_delays": p.wire_delays, "states": p.states }
    });
    obj! {
        "pr": 2u32,
        "subject": "schedule_all wall time + peak heap growth of the incremental engine \
            vs the frozen seed and its dense closures",
        "workload": "layered DFG, bounded mean in-degree ~6, ResourceSet::classic(2,2), \
            topological meta order",
        "fitted_exponent_optimized": Json::fixed(slope, 4),
        "headline_speedup": headline.map(|s| Json::fixed(s, 2)),
        "points": rows.collect::<Vec<_>>(),
        "flow": obj! {
            "workload": format!(
                "default run_flow on stress_dag seeds {}..{}, times summed per size",
                FLOW_SEEDS.start, FLOW_SEEDS.end
            ),
            "fitted_exponent": Json::fixed(flow_slope, 4),
            "points": flow_rows.collect::<Vec<_>>(),
        },
    }
}

/// BENCH_3: Figure-3 portfolio quality and the 1/2/4/8-thread race
/// sweep.
fn portfolio(quick: bool) -> Json {
    let cells = fig3_portfolio(2);
    print!("{}", fig3_report(&cells));
    let optimal = cells
        .iter()
        .filter(|c| c.portfolio == c.lower_bound)
        .count();
    println!(
        "portfolio ≤ best single meta on {}/{} cells (guaranteed); provably optimal on {optimal}",
        cells.len(),
        cells.len()
    );

    let study = thread_sweep(if quick { 2000 } else { 5000 }, &[1, 2, 4, 8]);
    print!("{}", sweep_report(&study));
    let p8 = study
        .points
        .iter()
        .find(|p| p.threads == 8)
        .expect("8-thread point");
    let vs_best = |wall_us: u128| wall_us as f64 / study.best_single_us.max(1) as f64;
    println!(
        "8-thread portfolio of 8 strategies: {:.2}x the best single meta's wall time \
         ({} effective workers)",
        vs_best(p8.wall_us),
        p8.workers
    );

    let fig3_rows = cells.iter().map(|c| {
        obj! {
            "benchmark": c.benchmark, "config": c.config, "best_single": c.best_single,
            "best_single_name": c.best_single_name, "portfolio": c.portfolio,
            "lower_bound": c.lower_bound, "winner": c.winner.as_str(),
        }
    });
    let singles = study.singles.iter().map(|&(name, us, diameter)| {
        obj! { "meta": name, "wall_us": us, "diameter": diameter }
    });
    let threads = study.points.iter().map(|p| {
        obj! {
            "threads": p.threads, "workers": p.workers, "wall_us": p.wall_us,
            "vs_best_single": Json::fixed(vs_best(p.wall_us), 3), "completed": p.completed,
            "aborted": p.aborted, "work_frac": Json::fixed(p.work_frac, 4),
            "diameter": p.diameter,
        }
    });
    obj! {
        "pr": 3u32,
        "subject": "parallel portfolio (4 paper metas + 4 seeded perturbations, shared atomic \
            incumbent, certified early abort)",
        "fig3": fig3_rows.collect::<Vec<_>>(),
        "sweep": obj! {
            "workload": "layered DFG, bounded mean in-degree ~6, ResourceSet::classic(2,2) \
                (complexity::sweep_config)",
            "ops": study.ops,
            "singles": singles.collect::<Vec<_>>(),
            "best_single_wall_us": study.best_single_us,
            "threads": threads.collect::<Vec<_>>(),
            "ratio_8_threads_vs_best_single": Json::fixed(vs_best(p8.wall_us), 3),
        },
    }
}

/// BENCH_4: achieved II vs certified MII per loop kernel × allocation;
/// every winner is re-validated by `check_modulo` inside the grid.
fn modulo(quick: bool) -> Json {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8);
    let cells = modulo::modulo_grid(if quick { 0 } else { 4 }, threads);
    print!("{}", modulo::modulo_report(&cells));
    let tight = cells.iter().filter(|c| c.gap == 0).count();
    let res_bound = cells.iter().filter(|c| c.res_mii >= c.rec_mii).count();
    println!(
        "achieved II = certified MII on {tight}/{} cells \
         ({res_bound} resource-bound, {} recurrence-bound); every winner re-validated by check_modulo",
        cells.len(),
        cells.len() - res_bound,
    );
    let rows = cells.iter().map(|c| {
        obj! {
            "kernel": c.kernel.as_str(), "ops": c.ops, "resources": c.resources.as_str(),
            "res_mii": c.res_mii, "rec_mii": c.rec_mii, "mii": c.mii, "ii": c.ii, "gap": c.gap,
            "latency": c.latency, "wall_us": c.wall_us, "winner": c.winner.as_str(),
        }
    });
    obj! {
        "pr": 4u32,
        "subject": "modulo soft scheduling for loop pipelining: II search from certified MII = \
            max(ResMII, RecMII), modulo portfolio (height + 4 paper metas + seeded topo orders \
            per candidate II, packed (II, latency, slot) incumbent)",
        "threads": threads,
        "cells_total": cells.len(),
        "cells_ii_equals_mii": tight,
        "cells": rows.collect::<Vec<_>>(),
    }
}

/// BENCH_5: the open-loop load sweep and the schedule-cache study
/// against an in-process daemon. The asserts are the calibration (0.5×
/// the probed capacity sheds under 5%) and the overload contract:
/// every request accounted for, typed shedding at 2×, a
/// deadline-bounded p99 and ≥5× cache and ECO-replay speedups.
fn serve(quick: bool) -> Json {
    let study = serve_load::run_load_study(quick);
    print!("{}", serve_load::load_report(&study));

    // A violation here is a real serving bug, not a flaky benchmark:
    // shedding is typed and counted, latency is bounded by the
    // deadline the daemon itself enforces.
    for p in &study.points {
        assert_eq!(
            p.completed + p.shed + p.timeouts + p.errors,
            p.sent,
            "every request must be accounted for at {:.1}x",
            p.rate_mult
        );
        assert_eq!(p.errors, 0, "untyped failures at {:.1}x load", p.rate_mult);
    }
    let under = &study.points[0];
    assert!(
        under.shed_rate() < 0.05,
        "{:.2}x the probed capacity must sit below capacity (shed {:.1}%)",
        under.rate_mult,
        under.shed_rate() * 100.0
    );
    let over = study
        .points
        .iter()
        .find(|p| p.rate_mult > 1.5)
        .expect("sweep includes an overload point");
    assert!(
        over.shed > 0,
        "2x overload must shed (typed), not buffer without bound"
    );
    assert!(
        over.p99_us / 1000 <= 2 * study.deadline_ms,
        "accepted requests must keep a deadline-bounded p99 under overload \
         (p99 {} ms vs deadline {} ms)",
        over.p99_us / 1000,
        study.deadline_ms
    );
    let c = &study.cache;
    assert!(
        c.hit_speedup() >= 5.0,
        "exact resubmission must be >=5x faster than cold ({:.1}x)",
        c.hit_speedup()
    );
    assert!(
        c.eco_speedup() >= 5.0,
        "ECO replay must be >=5x faster than cold ({:.1}x)",
        c.eco_speedup()
    );

    let rows = study.points.iter().map(|p| {
        obj! {
            "rate_mult": Json::Num(p.rate_mult.to_string()),
            "offered_rps": Json::fixed(p.offered_rps, 2), "sent": p.sent,
            "completed": p.completed, "shed": p.shed, "timeouts": p.timeouts,
            "errors": p.errors, "shed_rate": Json::fixed(p.shed_rate(), 4),
            "p50_us": p.p50_us, "p99_us": p.p99_us,
            "achieved_rps": Json::fixed(p.achieved_rps, 2),
            "achieved_ratio": Json::fixed(p.achieved_ratio(), 4),
        }
    });
    obj! {
        "pr": 7u32,
        "subject": "scheduler-as-a-service: open-loop load sweep against the hls-serve daemon \
            (bounded admission queue, per-request deadlines into the degradation ladder, crash \
            isolation) plus the content-hash schedule cache with ECO-delta replay",
        "workers": study.workers,
        "queue_capacity": study.queue_capacity,
        "probe_mean_service_us": study.mean_service_us,
        "probe_rps": Json::fixed(study.capacity_rps, 2),
        "deadline_ms": study.deadline_ms,
        "points": rows.collect::<Vec<_>>(),
        "cache": obj! {
            "ops": c.ops, "cold_us": c.cold_us, "hit_us": c.hit_us, "eco_us": c.eco_us,
            "hit_speedup": Json::fixed(c.hit_speedup(), 2),
            "eco_speedup": Json::fixed(c.eco_speedup(), 2),
        },
    }
}

/// `micro --check PATH`: the 100k-op wall gate against the artifact
/// at PATH; a regression exits 1.
fn wall_gate(committed: &str) {
    match check_wall_100k(committed) {
        Ok(verdict) => println!("{verdict}\nOK: within the 2% envelope"),
        Err(e) => {
            eprintln!("FAIL: {e}");
            exit(1);
        }
    }
}

/// BENCH_7: select/commit per-op cost, `ReachIndex` pair-probe throughput,
/// the extremum kernels and the single-threaded `schedule_all` sweep.
fn micro(quick: bool) -> Json {
    // Warm the process so the first timed scenario is not inflated.
    let _ = scaling_sweep(&[256], 0);
    let (sc_ops, probe_ops, wall_sizes): (usize, usize, Vec<usize>) = if quick {
        (4_000, 4_000, vec![500, 1000, 2000])
    } else {
        (20_000, 20_000, vec![1000, 10000, 100000])
    };

    println!("== select / commit (layered DAG, {sc_ops} ops, mid-run state) ==");
    let (select, pair) = bench_select_commit(sc_ops);
    println!(
        "  select        : {:8.0} ns/op (median {:.0})",
        select.min_ns, select.median_ns
    );
    println!(
        "  select+commit : {:8.0} ns/op (median {:.0})",
        pair.min_ns, pair.median_ns
    );

    println!("== ReachIndex probes ({probe_ops} ops) ==");
    let pp = bench_probes(probe_ops);
    let pp_mops = pp.ops_per_sec() / 1e6;
    println!(
        "  pair probe    : {pp_mops:8.1} Mops/s ({:.1} ns)",
        pp.min_ns
    );
    let k = bench_kernels(probe_ops);
    println!("== min_into kernels ({} lanes/row) ==", k.lanes);
    println!(
        "  converged     : {:8.3} ns/lane word vs {:.3} scalar",
        k.word_converged_ns, k.scalar_converged_ns
    );
    println!(
        "  churning      : {:8.3} ns/lane word vs {:.3} scalar",
        k.word_churn_ns, k.scalar_churn_ns
    );
    println!(
        "  any_le (false): {:8.3} ns/lane word vs {:.3} scalar",
        k.any_le_word_ns, k.any_le_scalar_ns
    );

    println!("== single-threaded schedule_all sweep ==");
    let points = scaling_sweep(&wall_sizes, 0);
    for p in &points {
        println!("  {:>7} ops: {:>8} us", p.ops, p.opt_us);
    }
    let wall_100k = points.iter().find(|p| p.ops == 100000).map(|p| p.opt_us);
    let sweep = points
        .iter()
        .map(|p| obj! { "ops": p.ops, "wall_us": p.opt_us });
    obj! {
        "pr": 9u32,
        "subject": "hot-path micro-benchmarks: select/commit per-op cost, ReachIndex probe \
            throughput, word-parallel extremum kernels",
        "targets": obj! { "wall_100k_us": 150000u32 },
        "select_ns_per_op": Json::fixed(select.min_ns, 1),
        "select_commit_ns_per_op": Json::fixed(pair.min_ns, 1),
        "pair_probe_mops": Json::fixed(pp_mops, 2),
        "kernel_min_into": obj! {
            "lanes": k.lanes,
            "word_converged_ns_per_lane": Json::fixed(k.word_converged_ns, 3),
            "scalar_converged_ns_per_lane": Json::fixed(k.scalar_converged_ns, 3),
            "word_churn_ns_per_lane": Json::fixed(k.word_churn_ns, 3),
            "scalar_churn_ns_per_lane": Json::fixed(k.scalar_churn_ns, 3),
        },
        "kernel_any_le": obj! {
            "word_ns_per_lane": Json::fixed(k.any_le_word_ns, 3),
            "scalar_ns_per_lane": Json::fixed(k.any_le_scalar_ns, 3),
        },
        "sweep": sweep.collect::<Vec<_>>(),
        "wall_100k_us": wall_100k,
    }
}

/// Phases a portfolio flow through the ladder must visibly cross.
const EXPECTED_PHASES: &[&str] = &[
    "flow:schedule",
    "flow:extract",
    "portfolio:race",
    "portfolio:run",
    "degrade:rung",
];

/// The observability smoke: a traced portfolio race (50k ops, 5k with
/// `--quick`) plus a full flow through the degradation ladder must emit
/// a strict-JSON Chrome trace covering ≥ 6 phase kinds, and `STATS` on
/// a live daemon must count the request it just served.
fn obs(cli: &Cli) {
    traced_flow_covers_the_phases(if cli.quick { 5_000 } else { 50_000 }, &cli.out);
    stats_round_trips_on_a_live_daemon();
    println!("bench obs: all gates passed");
}

fn traced_flow_covers_the_phases(ops: usize, trace_out: &str) {
    hls_obs::recorder::clear_events();
    hls_obs::recorder::set_sample_every(1);
    hls_obs::set_enabled(true);

    // (a) The portfolio race at headline scale, where tracing must not
    // perturb the engine.
    let g = generate::layered_dag(0x5EED ^ ops as u64, &sweep_config(ops));
    let pcfg = hls_search::portfolio::PortfolioConfig::default();
    let t0 = Instant::now();
    let race =
        hls_search::portfolio::run_portfolio(&g, &ResourceSet::classic(2, 2), &pcfg, &Budget::NONE)
        .unwrap_or_else(|e| panic!("traced {ops}-op portfolio race must complete: {e}"));
    println!(
        "traced {ops}-op portfolio race: diameter {} in {} ms",
        race.diameter,
        t0.elapsed().as_millis()
    );

    // (b) A full flow through the ladder at behavior scale: placement
    // and FSMD extraction are super-linear by design.
    let flow_ops = 800;
    let fg = generate::layered_dag(0x5EED ^ flow_ops as u64, &sweep_config(flow_ops));
    let t1 = Instant::now();
    let out = run_flow_degraded(&fg, &FlowConfig::default())
        .unwrap_or_else(|e| panic!("traced {flow_ops}-op flow must complete: {e}"));
    let flow_wall = t1.elapsed();
    hls_obs::set_enabled(false);

    let events = hls_obs::recorder::snapshot_events();
    let kinds: BTreeSet<&str> = events.iter().map(|e| e.phase.name()).collect();
    println!(
        "traced {flow_ops}-op flow: rung {}, {} events, {} phase kinds in {} ms: {:?}",
        out.rung.name(),
        events.len(),
        kinds.len(),
        flow_wall.as_millis(),
        kinds
    );
    assert!(
        kinds.len() >= 6,
        "trace must cover >= 6 distinct phase kinds, got {kinds:?}"
    );
    for want in EXPECTED_PHASES {
        assert!(
            kinds.contains(want),
            "trace is missing phase {want}: {kinds:?}"
        );
    }
    write(trace_out, &hls_obs::export::chrome_trace_json(&events));
}

fn stats_round_trips_on_a_live_daemon() {
    hls_obs::set_enabled(true);
    let server = Server::start(&BindAddr::Tcp("127.0.0.1:0".into()), ServeConfig::default())
        .expect("bind ephemeral port");
    let text = textfmt::to_text(&bench_graphs::ewf());
    let mut c = Client::connect(server.addr()).expect("connect");
    let served = |c: &mut Client| {
        let body = c.stats().expect("STATS");
        hls_obs::export::validate_json(&body).expect("STATS body must be strict JSON");
        json_number(&body, "serve_requests").expect("STATS carries serve_requests")
    };
    let before = served(&mut c);
    let a = c
        .schedule(&text, &RequestOpts::default())
        .expect("schedule");
    assert_ne!(a.trace, 0, "an OK line must carry a trace id");
    let after = served(&mut c);
    assert!(
        after > before,
        "STATS must count the request it just served"
    );
    server.shutdown(Duration::from_secs(10));
    hls_obs::set_enabled(false);
    println!(
        "STATS round-trip: serve_requests {before} -> {after}, trace {:016x}",
        a.trace
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cli, String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_common_and_subcommand_flags() {
        let cli = parse_line("scaling --quick --sizes 500,5000 --out b.json").unwrap();
        let sizes = Some(vec![500, 5000]);
        let want = Cli {
            sub: "scaling",
            quick: true,
            out: "b.json".into(),
            sizes,
            ..Cli::default()
        };
        assert_eq!(cli, want);
        assert_eq!(parse_line("micro").unwrap().out, "BENCH_7.json");
        assert_eq!(
            parse_line("micro --check B.json").unwrap().check.as_deref(),
            Some("B.json")
        );
        assert_eq!(parse_line("obs").unwrap().out, "obs-trace.json");
        assert_eq!(parse_line("fig1").unwrap().sub, "fig1");
    }

    #[test]
    fn unknown_subcommand_is_an_error() {
        assert!(parse_line("").unwrap_err().contains("missing subcommand"));
        assert!(parse_line("bench_json")
            .unwrap_err()
            .contains("unknown subcommand"));
    }

    #[test]
    fn unknown_or_misplaced_flag_is_an_error_not_an_output_path() {
        let err = |line| parse_line(line).unwrap_err();
        assert!(err("scaling --quik").contains("unknown flag '--quik'"));
        assert!(err("scaling out.json").contains("unknown flag"));
        assert!(err("portfolio --ops 10").contains("unknown flag"));
        assert!(err("micro --graph ewf").contains("unknown flag"));
        assert!(err("fig1 --quick").contains("unknown flag"));
    }

    #[test]
    fn missing_or_malformed_flag_value_is_an_error() {
        let err = |line| parse_line(line).unwrap_err();
        assert!(err("scaling --out").contains("--out takes a value"));
        assert!(err("micro --check").contains("--check takes a value"));
        assert!(err("scaling --sizes 5,x").contains("--sizes takes integers"));
    }
}
