//! Loop pipelining: modulo-schedule the classic loop kernels, print
//! the certified MII, the achieved II and the steady-state kernel.
//!
//! Run with: `cargo run --example pipeline`

use soft_hls::ir::{bench_graphs, schedule, Budget, ResourceClass, ResourceSet};
use soft_hls::sched::{ModuloScheduler, SchedError};
use soft_hls::search::{run_modulo_portfolio, PipelineConfig};

fn main() -> Result<(), SchedError> {
    let resources = ResourceSet::classic(2, 2).with(ResourceClass::MemPort, 1);
    println!("resources: {resources}\n");

    for (name, g) in bench_graphs::loops() {
        // The kernel carries loop edges: `dist > 0` means "the value
        // from that many iterations ago".
        let carried = g.edges_dist().filter(|&(_, _, d)| d > 0).count();
        println!(
            "{name}: {} ops, {} edges ({carried} loop-carried)",
            g.len(),
            g.edge_count()
        );

        // Certified lower bound: resources vs recurrences.
        let sched = ModuloScheduler::new(g.clone(), resources.clone())?;
        println!(
            "  MII = max(ResMII {}, RecMII {}) = {}",
            sched.res_mii(),
            sched.rec_mii(),
            sched.mii()
        );

        // The modulo portfolio races meta placement orders per
        // candidate II behind one packed (II, latency) incumbent.
        let out = run_modulo_portfolio(&g, &resources, &PipelineConfig::default(), &Budget::NONE)?;
        schedule::check_modulo(&g, &resources, &out.schedule)
            .expect("the winner is cycle-accurately legal");
        println!(
            "  achieved II {} (gap {}), fill latency {}, winner {}",
            out.ii,
            out.ii - out.mii,
            out.latency,
            out.winner_name
        );

        // One iteration repeats every II steps; print iteration 0.
        let slice = out.schedule.iteration_slice();
        for v in g.op_ids() {
            let unit = match out.schedule.unit(v) {
                Some(u) => format!("unit {u}"),
                None => "wire".to_string(),
            };
            println!(
                "    t={:<3} slot={:<3} {:8} ({})",
                slice.start(v).expect("complete"),
                slice.start(v).expect("complete") % out.ii,
                g.label(v),
                unit
            );
        }
        println!();
    }
    Ok(())
}
