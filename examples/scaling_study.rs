//! Mesh scaling study: how iNPG's benefit grows with the core count
//! (Figure 15's NoC-dimension sensitivity), on the kdtree model.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p inpg --example scaling_study [-- SCALE]
//! ```

use inpg::stats::{pct, Table};
use inpg::{Experiment, Mechanism};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = std::env::args().nth(1).map_or(0.1, |s| s.parse().unwrap_or(0.1));
    println!("kdtree model (one hot lock), QSL, scale {scale}\n");

    let mut table = Table::new(vec![
        "mesh",
        "threads",
        "ROI (Original)",
        "ROI (iNPG)",
        "iNPG ROI reduction",
        "Inv-Ack mean orig/iNPG",
    ]);
    for (w, h) in [(2u8, 2u8), (4, 4), (8, 8), (16, 16)] {
        let run = |mechanism: Mechanism| {
            Experiment::benchmark("kdtree")
                .mechanism(mechanism)
                .mesh(w, h)
                .scale(scale)
                .run()
        };
        let base = run(Mechanism::Original)?;
        let inpg = run(Mechanism::Inpg)?;
        assert!(base.completed && inpg.completed, "{w}x{h}");
        table.add_row(vec![
            format!("{w}x{h}"),
            (w as usize * h as usize).to_string(),
            base.roi_cycles.to_string(),
            inpg.roi_cycles.to_string(),
            pct(1.0 - inpg.roi_cycles as f64 / base.roi_cycles as f64),
            format!("{:.1} / {:.1}", base.invack.mean, inpg.invack.mean),
        ]);
    }
    println!("{table}");
    println!("Paper trend (Figure 15): the benefit grows with the mesh — more threads");
    println!("compete for the same lock and invalidation distances grow, so early");
    println!("in-network invalidation saves more.");
    Ok(())
}
