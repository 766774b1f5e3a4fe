//! Lock primitive shootout: runs the fluidanimate model under all five
//! primitives, Original vs iNPG, and prints ROI times, competition
//! overhead per critical section, and the iNPG benefit per primitive
//! (the Figure-13 trend: TAS benefits most, MCS least).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p inpg --example primitive_shootout [-- SCALE]
//! ```

use inpg::stats::{pct, Table};
use inpg::{Experiment, LockPrimitive, Mechanism};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::args().nth(1).map_or(0.1, |s| s.parse().unwrap_or(0.1));
    println!("fluidanimate model, 8x8 mesh, scale {scale}\n");

    let mut table = Table::new(vec![
        "primitive",
        "ROI (Original)",
        "ROI (iNPG)",
        "iNPG ROI reduction",
        "COH/CS (Original)",
        "COH/CS (iNPG)",
    ]);
    for primitive in LockPrimitive::ALL {
        let run = |mechanism: Mechanism| {
            Experiment::benchmark("fluid")
                .primitive(primitive)
                .mechanism(mechanism)
                .scale(scale)
                .run()
        };
        let base = run(Mechanism::Original)?;
        let inpg = run(Mechanism::Inpg)?;
        assert!(base.completed && inpg.completed, "{primitive}");
        table.add_row(vec![
            primitive.to_string(),
            base.roi_cycles.to_string(),
            inpg.roi_cycles.to_string(),
            pct(1.0 - inpg.roi_cycles as f64 / base.roi_cycles as f64),
            format!("{:.0}", base.avg_cs_coh),
            format!("{:.0}", inpg.avg_cs_coh),
        ]);
    }
    println!("{table}");
    println!("Paper trend (Figure 13): TAS > TTL ≈ ABQL > QSL > MCS in iNPG benefit.");
    Ok(())
}
