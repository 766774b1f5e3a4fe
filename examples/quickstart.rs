//! Quickstart: compare the four mechanisms of the paper (Original, OCOR,
//! iNPG, iNPG+OCOR) on the freqmine model and print the headline
//! metrics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p inpg --example quickstart [-- SCALE]
//! ```

use inpg::stats::{pct, speedup, Table};
use inpg::{Experiment, Mechanism};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Scale keeps the demo under a minute; raise it (up to 1.0, the
    // paper's Figure-8 CS counts) for a full-length run.
    let scale = std::env::args().nth(1).map_or(0.1, |s| s.parse().unwrap_or(0.1));

    println!("freqmine model, 8x8 mesh, QSL locks, scale {scale}\n");

    let mut results = Vec::new();
    for mechanism in Mechanism::ALL {
        let result = Experiment::benchmark("freq")
            .mechanism(mechanism)
            .scale(scale)
            .run()?;
        assert!(result.completed, "{mechanism} hit the cycle bound");
        results.push(result);
    }

    let baseline_roi = results[0].roi_cycles as f64;
    let baseline_cs = results[0].cs_access_time();

    let mut table = Table::new(vec![
        "mechanism",
        "ROI cycles",
        "rel. ROI",
        "CS expedition",
        "COH share",
        "Inv-Ack mean",
        "early invs",
    ]);
    for r in &results {
        let (_, coh, _) = r.phase_shares();
        table.add_row(vec![
            r.mechanism.to_string(),
            r.roi_cycles.to_string(),
            pct(r.roi_cycles as f64 / baseline_roi),
            speedup(baseline_cs / r.cs_access_time()),
            pct(coh),
            format!("{:.1}", r.invack.mean),
            r.noc.early_invs.to_string(),
        ]);
    }
    println!("{table}");
    println!(
        "iNPG stopped {} lock requests at big routers and relayed {} early \
         acknowledgements to the home nodes.",
        results[2].barrier.requests_stopped, results[2].barrier.acks_relayed
    );
    Ok(())
}
