//! Lock primitive shootout: runs the fluidanimate model under all five
//! primitives, Original vs iNPG, and prints ROI times, competition
//! overhead per critical section, and the iNPG benefit per primitive
//! (the Figure-13 trend: TAS benefits most, MCS least).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p inpg-campaign --example primitive_shootout [-- SCALE]
//! ```

use inpg::stats::{pct, Table};
use inpg::{LockPrimitive, Mechanism};
use inpg_campaign::{engine, Campaign, CellConfig, ExecOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::args()
        .nth(1)
        .map_or(0.1, |s| s.parse().unwrap_or(0.1));
    println!("fluidanimate model, 8x8 mesh, scale {scale}\n");

    // Cells in (primitive, Original then iNPG) order.
    let mut campaign = Campaign::new("primitive-shootout");
    for primitive in LockPrimitive::ALL {
        for mechanism in [Mechanism::Original, Mechanism::Inpg] {
            let mut cell = CellConfig::benchmark("fluid");
            cell.primitive = primitive;
            cell.mechanism = mechanism;
            cell.scale = scale;
            campaign.push(format!("{primitive}/{mechanism}"), cell);
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
        "primitive",
        "ROI (Original)",
        "ROI (iNPG)",
        "iNPG ROI reduction",
        "COH/CS (Original)",
        "COH/CS (iNPG)",
    ]);
    for (primitive, pair) in LockPrimitive::ALL
        .into_iter()
        .zip(report.outcomes.chunks(2))
    {
        let (base, inpg) = (&pair[0].record, &pair[1].record);
        table.add_row(vec![
            primitive.to_string(),
            base.roi_cycles.to_string(),
            inpg.roi_cycles.to_string(),
            pct(1.0 - inpg.relative_roi(base)),
            format!("{:.0}", base.avg_cs_coh),
            format!("{:.0}", inpg.avg_cs_coh),
        ]);
    }
    println!("{table}");
    println!("Paper trend (Figure 13): TAS > TTL ≈ ABQL > QSL > MCS in iNPG benefit.");
    Ok(())
}
