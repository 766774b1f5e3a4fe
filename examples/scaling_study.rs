//! Mesh scaling study: how iNPG's benefit grows with the core count
//! (Figure 15's NoC-dimension sensitivity), on the kdtree model.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p inpg-campaign --example scaling_study [-- SCALE]
//! ```

use inpg::stats::{pct, Table};
use inpg::Mechanism;
use inpg_campaign::{engine, Campaign, CellConfig, ExecOptions};

const MESHES: [(u8, u8); 4] = [(2, 2), (4, 4), (8, 8), (16, 16)];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::args()
        .nth(1)
        .map_or(0.1, |s| s.parse().unwrap_or(0.1));
    println!("kdtree model (one hot lock), QSL, scale {scale}\n");

    // Cells in (mesh, Original then iNPG) order.
    let mut campaign = Campaign::new("scaling-study");
    for (w, h) in MESHES {
        for mechanism in [Mechanism::Original, Mechanism::Inpg] {
            let mut cell = CellConfig::benchmark("kdtree");
            cell.mechanism = mechanism;
            cell.width = w;
            cell.height = h;
            cell.scale = scale;
            campaign.push(format!("{w}x{h}/{mechanism}"), cell);
        }
    }
    let report = engine::execute(&campaign, &ExecOptions::quiet())?;
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert!(
        report.incomplete().is_empty(),
        "hit the cycle bound: {:?}",
        report.incomplete()
    );

    let mut table = Table::new(vec![
        "mesh",
        "threads",
        "ROI (Original)",
        "ROI (iNPG)",
        "iNPG ROI reduction",
        "Inv-Ack mean orig/iNPG",
    ]);
    for ((w, h), pair) in MESHES.into_iter().zip(report.outcomes.chunks(2)) {
        let (base, inpg) = (&pair[0].record, &pair[1].record);
        table.add_row(vec![
            format!("{w}x{h}"),
            base.threads.to_string(),
            base.roi_cycles.to_string(),
            inpg.roi_cycles.to_string(),
            pct(1.0 - inpg.relative_roi(base)),
            format!("{:.1} / {:.1}", base.invack.mean, inpg.invack.mean),
        ]);
    }
    println!("{table}");
    println!("Paper trend (Figure 15): the benefit grows with the mesh — more threads");
    println!("compete for the same lock and invalidation distances grow, so early");
    println!("in-network invalidation saves more.");
    Ok(())
}
