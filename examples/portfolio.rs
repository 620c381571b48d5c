//! Parallel portfolio scheduling: race the paper's four meta schedules
//! and seeded perturbations, and keep the best.
//!
//! Run with: `cargo run --release --example portfolio`

use soft_hls::ir::{bench_graphs, generate, Budget, ResourceSet};
use soft_hls::search::{run_portfolio, PortfolioConfig};

fn show(name: &str, g: &soft_hls::ir::PrecedenceGraph, resources: &ResourceSet) {
    let cfg = PortfolioConfig::default();
    let out = match run_portfolio(g, resources, &cfg, &Budget::NONE) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("portfolio failed on {name}: {e}");
            std::process::exit(1);
        }
    };

    println!("== {name}: |V| = {}, {} strategies ==", g.len(), out.runs.len());
    for run in &out.runs {
        match run.diameter {
            Some(d) => println!("  {:<24} completed: {d} states", run.name),
            None => println!(
                "  {:<24} aborted after {} ops (could no longer win)",
                run.name, run.scheduled
            ),
        }
    }
    println!(
        "  winner: {} with {} states (certified lower bound {})\n",
        out.winner_name, out.diameter, out.lower_bound,
    );
}

fn main() {
    let resources = ResourceSet::classic(2, 2);
    for (name, g) in bench_graphs::all() {
        show(name, &g, &resources);
    }
    // A bigger randomized workload where the perturbation populations
    // genuinely earn their seats.
    let layered = generate::layered_dag(
        0xF0117,
        &generate::LayeredConfig {
            ops: 1500,
            width: 32,
            edge_prob: 0.2,
            ..generate::LayeredConfig::default()
        },
    );
    show("layered-1500", &layered, &resources);
}
