//! Hot-lock contention microbenchmark: all 64 threads hammer one lock
//! homed at tile (5, 6), reproducing the Figure-10 scenario. Prints the
//! per-core invalidation–acknowledgement delay map for Original vs iNPG
//! so the "distance-dependent long tail vs flat" contrast is visible.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p inpg-campaign --example hot_lock_contention
//! ```

use inpg::Mechanism;
use inpg_campaign::suites::HOT_LOCK_HOME;
use inpg_campaign::{engine, Campaign, CellConfig, ExecOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 20 rounds of 500 parallel cycles then a 100-cycle critical
    // section on every core, under TAS, the lock homed at tile (5, 6).
    let mut campaign = Campaign::new("hot-lock-contention");
    for mechanism in [Mechanism::Original, Mechanism::Inpg] {
        let mut cell = CellConfig::hot_lock(20, 500, 100);
        cell.mechanism = mechanism;
        cell.lock_home = Some(HOT_LOCK_HOME);
        campaign.push(mechanism.to_string(), cell);
    }
    let report = engine::execute(&campaign, &ExecOptions::quiet())?;
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert!(
        report.incomplete().is_empty(),
        "hit the cycle bound: {:?}",
        report.incomplete()
    );

    for outcome in &report.outcomes {
        let result = &outcome.record;
        println!("== {} ==", outcome.spec.label);
        println!(
            "ROI {} cycles | Inv-Ack mean {:.1}, max {} over {} round trips | {} early invalidations",
            result.roi_cycles,
            result.invack.mean,
            result.invack.max,
            result.invack.count,
            result.early_invs,
        );
        println!("per-core mean Inv-Ack delay ('-' = never invalidated, H = home):");
        for y in 0..8 {
            let mut row = String::from("  ");
            for x in 0..8 {
                let idx = y * 8 + x;
                if idx == HOT_LOCK_HOME {
                    row.push_str("    H ");
                    continue;
                }
                match result.invack.per_core_mean[idx] {
                    Some(v) => row.push_str(&format!("{v:5.1} ")),
                    None => row.push_str("    - "),
                }
            }
            println!("{row}");
        }
        println!();
    }
    println!("Paper shape: Original delays grow with distance from (5,6) and show a");
    println!("long tail; iNPG delays are flat and small (invalidation happens at the");
    println!("nearest big router instead of the home node).");
    Ok(())
}
