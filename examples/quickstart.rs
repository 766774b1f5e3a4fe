//! Quickstart: compare the four mechanisms of the paper (Original, OCOR,
//! iNPG, iNPG+OCOR) on the freqmine model and print the headline
//! metrics.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p inpg-campaign --example quickstart [-- SCALE]
//! ```

use inpg::stats::{pct, speedup, Table};
use inpg::Mechanism;
use inpg_campaign::{engine, Campaign, CellConfig, ExecOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Scale keeps the demo under a minute; raise it (up to 1.0, the
    // paper's Figure-8 CS counts) for a full-length run.
    let scale = std::env::args()
        .nth(1)
        .map_or(0.1, |s| s.parse().unwrap_or(0.1));

    println!("freqmine model, 8x8 mesh, QSL locks, scale {scale}\n");

    // One cell per mechanism, run as one in-process campaign.
    let mut campaign = Campaign::new("quickstart");
    for mechanism in Mechanism::ALL {
        let mut cell = CellConfig::benchmark("freq");
        cell.mechanism = mechanism;
        cell.scale = scale;
        campaign.push(mechanism.to_string(), cell);
    }
    let report = engine::execute(&campaign, &ExecOptions::quiet())?;
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert!(
        report.incomplete().is_empty(),
        "hit the cycle bound: {:?}",
        report.incomplete()
    );

    let baseline = &report.outcomes[0].record;
    let mut table = Table::new(vec![
        "mechanism",
        "ROI cycles",
        "rel. ROI",
        "CS expedition",
        "COH share",
        "Inv-Ack mean",
        "early invs",
    ]);
    for outcome in &report.outcomes {
        let r = &outcome.record;
        let (_, coh, _) = r.phase_shares();
        table.add_row(vec![
            outcome.spec.label.clone(),
            r.roi_cycles.to_string(),
            pct(r.relative_roi(baseline)),
            speedup(r.cs_expedition(baseline)),
            pct(coh),
            format!("{:.1}", r.invack.mean),
            r.early_invs.to_string(),
        ]);
    }
    println!("{table}");
    let inpg = &report.outcomes[2].record;
    println!(
        "iNPG stopped {} lock requests at big routers and relayed {} early \
         acknowledgements to the home nodes.",
        inpg.requests_stopped, inpg.acks_relayed
    );
    Ok(())
}
