//! Figure 10: average coherence invalidation–acknowledgement round-trip
//! delay per core (map) and its histogram, Original vs iNPG, for a
//! scenario where all 64 threads compete for one lock homed at tile
//! (5, 6).
//!
//! Paper shape: without iNPG the delay grows with distance from the home
//! node (mean 39.2, max 97, long tail); with iNPG the delay is flat and
//! short (mean 9.5, max 15).

use inpg::Mechanism;
use inpg_bench::{figure_report, scale_from_env};
use inpg_campaign::{suites, CellRecord};

fn print_map(label: &str, r: &CellRecord) {
    println!(
        "{label}: mean {:.1} cycles, max {} cycles, {} round trips",
        r.invack.mean, r.invack.max, r.invack.count
    );
    println!("per-core mean Inv-Ack round-trip delay (8x8 map, '-' = never invalidated):");
    for y in 0..8 {
        let mut row = String::new();
        for x in 0..8 {
            let idx = y * 8 + x;
            let cell = match r.invack.per_core_mean[idx] {
                Some(v) => format!("{v:5.1}"),
                None => "    -".to_string(),
            };
            row.push_str(&cell);
            row.push(' ');
        }
        println!("  {row}");
    }
    println!("histogram (cycles: count), nonzero buckets:");
    let mut shown = 0;
    for (v, &n) in r.invack.histogram.iter().enumerate() {
        if n > 0 {
            print!("  {v}:{n}");
            shown += 1;
            if shown % 10 == 0 {
                println!();
            }
        }
    }
    println!("\n");
}

fn main() {
    let scale = scale_from_env(0.1);
    println!("Figure 10: Inv-Ack round-trip delay, 64 threads competing, lock homed at (5,6)\n");
    let report = figure_report(&suites::fig10(scale));
    let original = report.record(&Mechanism::Original.to_string());
    let inpg = report.record(&Mechanism::Inpg.to_string());
    print_map("Original (Figures 10a/10b)", original);
    print_map("iNPG, all round trips", inpg);
    println!(
        "iNPG early (router-closed) round trips only — the paper's Figures 10c/10d plot these: mean {:.1}, max {} over {} trips",
        inpg.invack_early.mean, inpg.invack_early.max, inpg.invack_early.count
    );
    println!(
        "summary: mean {:.1} -> {:.1} (early-only {:.1}) cycles, max {} -> {}",
        original.invack.mean,
        inpg.invack.mean,
        inpg.invack_early.mean,
        original.invack.max,
        inpg.invack.max
    );
    println!("(Paper: mean 39.2 -> 9.5, max 97 -> 15; the long tail disappears.)");
}
