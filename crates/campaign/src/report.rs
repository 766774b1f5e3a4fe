//! Figure rendering: every table and figure of the paper's evaluation
//! as a pure function of a merged campaign artifact.
//!
//! `inpg report <figure>` reads `results/campaign/<suite>.jsonl` (the
//! file `inpg campaign <suite>` writes), parses its `(label, config,
//! record)` entries into an [`Artifact`], and renders the figure's text.
//! No simulation runs, with two exceptions listed in [`FIGURES`]:
//! Figure 7 is analytical and reads nothing, and Figure 9 needs the
//! per-thread timeline, which [`CellRecord`] does not hold, so it runs
//! its four uncacheable cells. Scale and seeds are read back from the
//! artifact's configs, so a figure always describes the cells it shows.
//!
//! An artifact is input from outside the program: a missing label, a
//! torn line or a missing footer is a [`ReportError`], never a panic.

use crate::cell::{CellConfig, CellRecord, SchemaError};
use crate::engine;
use crate::json::{self, Json};
use crate::pool;
use crate::suites::{
    self, high_group, seed_label, ABLATION_BUDGETS, ABLATION_ENTRIES, ABLATION_SUBJECTS,
    FIG14_DEPLOYMENTS, FIG15_MESHES, FIG15_TABLES,
};
use inpg::hardware;
use inpg::noc::NocConfig;
use inpg::stats::{pct, render_timeline, speedup, timeline_legend, PhaseCounters, Table, Welford};
use inpg::{LockPrimitive, Mechanism, SimError};
use inpg_sim::Cycle;
use inpg_workloads::{group_of, CsGroup, BENCHMARKS};
use std::fmt::{self, Write};
use std::path::{Path, PathBuf};

/// Why a figure could not be rendered. The message names the problem
/// (file, line, label) so the CLI can print it as a usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError(pub String);

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<fmt::Error> for ReportError {
    fn from(e: fmt::Error) -> Self {
        ReportError(format!("formatting failed: {e}"))
    }
}

type Rendered = Result<String, ReportError>;

/// One renderable figure: its `inpg report` name, the stem of its
/// text under `results/`, the suite whose merged artifact it reads
/// (`None` = it reads no artifact), and its renderer.
pub struct Figure {
    pub name: &'static str,
    pub file: &'static str,
    pub artifact: Option<&'static str>,
    render: fn(&Artifact) -> Rendered,
}

/// Every figure `inpg report` renders, in paper order.
pub const FIGURES: &[Figure] = &[
    Figure { name: "fig02", file: "fig02_lco_share", artifact: Some("fig02"), render: fig02 },
    Figure { name: "fig07", file: "fig07_synthesis", artifact: None, render: fig07 },
    Figure {
        name: "fig08",
        file: "fig08_cs_characteristics",
        artifact: Some("fig08"),
        render: fig08,
    },
    Figure { name: "fig09", file: "fig09_timing_profile", artifact: None, render: fig09 },
    Figure { name: "fig10", file: "fig10_invack_delay", artifact: Some("fig10"), render: fig10 },
    Figure { name: "fig11", file: "fig11_cs_expedition", artifact: Some("fig11"), render: fig11 },
    // Same cells as Figure 11 (`suites::fig12`), so the same artifact.
    Figure { name: "fig12", file: "fig12_roi_finish", artifact: Some("fig11"), render: fig12 },
    Figure { name: "fig13", file: "fig13_primitives", artifact: Some("fig13"), render: fig13 },
    Figure { name: "fig14", file: "fig14_deployment", artifact: Some("fig14"), render: fig14 },
    Figure { name: "fig15", file: "fig15_sensitivity", artifact: Some("fig15"), render: fig15 },
    Figure {
        name: "ablation",
        file: "ablation_knobs",
        artifact: Some("ablation"),
        render: ablation,
    },
];

/// Renders figure `name`. Artifact-backed figures read `from`, or
/// `results/campaign/<suite>.jsonl` (relative to the working
/// directory) when `from` is `None`.
pub fn report(name: &str, from: Option<&Path>) -> Rendered {
    let figure = FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        ReportError(format!("unknown figure `{name}`; one of: {}", names.join(", ")))
    })?;
    let Some(suite) = figure.artifact else {
        if from.is_some() {
            return Err(ReportError(format!("{name} reads no artifact; drop --from")));
        }
        return (figure.render)(&Artifact::default());
    };
    let default = || PathBuf::from(format!("results/campaign/{suite}.jsonl"));
    let path = from.map_or_else(default, Path::to_path_buf);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| ReportError(format!("cannot read {}: {e}", path.display())))?;
    let artifact =
        Artifact::parse(&text).map_err(|e| ReportError(format!("{}: {e}", path.display())))?;
    (figure.render)(&artifact)
}

/// One cell of a merged artifact.
#[derive(Debug)]
struct Entry {
    label: String,
    config: CellConfig,
    record: CellRecord,
}

/// A parsed merged artifact: its cell entries in canonical order.
#[derive(Debug, Default)]
struct Artifact {
    entries: Vec<Entry>,
}

impl Entry {
    fn from_json(v: &Json) -> Result<Entry, SchemaError> {
        let field = |key: &str| v.get(key).ok_or_else(|| SchemaError(format!("no {key}")));
        let label = field("label")?.as_str().ok_or_else(|| SchemaError("bad label".into()))?;
        Ok(Entry {
            label: label.to_string(),
            config: CellConfig::from_json(field("config")?)?,
            record: CellRecord::from_json(field("record")?)?,
        })
    }
}

impl Artifact {
    /// Parses the text `inpg campaign` writes: one entry per line, then
    /// a footer whose cell count must match. A file without its footer
    /// is torn and is rejected.
    fn parse(text: &str) -> Result<Artifact, ReportError> {
        let mut entries = Vec::new();
        let mut lines = text.lines().enumerate();
        while let Some((i, line)) = lines.next() {
            let at = |e: SchemaError| ReportError(format!("line {}: {}", i + 1, e.0));
            let v = json::parse(line).map_err(|e| at(e.into()))?;
            if v.get("footer").is_none() {
                entries.push(Entry::from_json(&v).map_err(at)?);
                continue;
            }
            let held = entries.len() as u64;
            if v.get("cells").and_then(Json::as_u64) != Some(held) {
                return Err(at(SchemaError(format!("footer does not count the {held} cells above it"))));
            }
            if let Some((j, _)) = lines.next() {
                return Err(ReportError(format!("line {}: text after the footer", j + 1)));
            }
            return Ok(Artifact { entries });
        }
        Err(ReportError("no footer line: the artifact is truncated".into()))
    }

    /// The record of the completed cell labelled `label`.
    fn record(&self, label: &str) -> Result<&CellRecord, ReportError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.label == label)
            .ok_or_else(|| ReportError(format!("the artifact has no cell labelled `{label}`")))?;
        if !entry.record.completed {
            return Err(ReportError(format!("cell `{label}` hit the cycle bound")));
        }
        Ok(&entry.record)
    }

    /// The workload scale the cells ran at (the first cell's).
    fn scale(&self) -> Result<f64, ReportError> {
        let first = self.entries.first().ok_or_else(|| ReportError("no cells in the artifact".into()))?;
        Ok(first.config.scale)
    }

    /// The workload seeds, in order of first appearance.
    fn seeds(&self) -> Vec<u64> {
        let mut seeds: Vec<u64> = Vec::new();
        for e in &self.entries {
            if !seeds.contains(&e.config.seed) {
                seeds.push(e.config.seed);
            }
        }
        seeds
    }
}

/// Geometric mean of a nonempty slice.
fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of an empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a nonempty slice.
fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty slice");
    values.iter().sum::<f64>() / values.len() as f64
}

struct MatrixRow {
    name: String,
    group: Option<CsGroup>,
    values: Vec<f64>,
}

/// The table shape shared by the evaluation figures: one row per
/// benchmark (optionally tagged with its CS-time group), one numeric
/// column per series, plus the per-group and overall summary and the
/// per-column extremes the figures report.
struct FigureMatrix {
    row_header: String,
    columns: Vec<String>,
    rows: Vec<MatrixRow>,
}

impl FigureMatrix {
    fn new(row_header: &str, columns: &[&str]) -> Self {
        FigureMatrix {
            row_header: row_header.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; `values` must have one entry per column.
    fn add_row(&mut self, name: &str, group: Option<CsGroup>, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row `{name}` width");
        self.rows.push(MatrixRow { name: name.to_string(), group, values });
    }

    fn with_groups(&self) -> bool {
        self.rows.iter().any(|r| r.group.is_some())
    }

    /// The main per-row table, every value rendered with `fmt`.
    fn main_table(&self, fmt: impl Fn(f64) -> String) -> Table {
        let mut headers = vec![self.row_header.as_str()];
        if self.with_groups() {
            headers.push("group");
        }
        headers.extend(self.columns.iter().map(String::as_str));
        let mut table = Table::new(headers);
        for row in &self.rows {
            let mut cells = vec![row.name.clone()];
            if self.with_groups() {
                cells.push(row.group.map(|g| g.to_string()).unwrap_or_default());
            }
            cells.extend(row.values.iter().map(|&v| fmt(v)));
            table.add_row(cells);
        }
        table
    }

    /// The summary table: one row per group (when rows carry groups)
    /// aggregated with `agg`, then one overall row labelled
    /// `overall_label`.
    fn summary_table(
        &self,
        scope_header: &str,
        agg: impl Fn(&[f64]) -> f64,
        fmt: impl Fn(f64) -> String,
        overall_label: &str,
    ) -> Table {
        let mut headers = vec![scope_header];
        headers.extend(self.columns.iter().map(String::as_str));
        let mut table = Table::new(headers);
        if self.with_groups() {
            for group in [CsGroup::Low, CsGroup::Medium, CsGroup::High] {
                let members: Vec<&MatrixRow> =
                    self.rows.iter().filter(|r| r.group == Some(group)).collect();
                if members.is_empty() {
                    continue;
                }
                let mut cells = vec![group.to_string()];
                for col in 0..self.columns.len() {
                    let values: Vec<f64> = members.iter().map(|r| r.values[col]).collect();
                    cells.push(fmt(agg(&values)));
                }
                table.add_row(cells);
            }
        }
        let mut cells = vec![overall_label.to_string()];
        for col in 0..self.columns.len() {
            cells.push(fmt(agg(&self.column(col))));
        }
        table.add_row(cells);
        table
    }

    /// All values of one column, row order.
    fn column(&self, col: usize) -> Vec<f64> {
        self.rows.iter().map(|r| r.values[col]).collect()
    }

    /// The maximum of a column and the row that attains it.
    fn column_max(&self, col: usize) -> (f64, &str) {
        self.rows
            .iter()
            .map(|r| (r.values[col], r.name.as_str()))
            .fold((f64::MIN, ""), |acc, v| if v.0 > acc.0 { v } else { acc })
    }
}

/// The three mechanisms Figures 11 and 12 compare against Original.
const SERIES: [Mechanism; 3] = [Mechanism::Ocor, Mechanism::Inpg, Mechanism::InpgOcor];
const SERIES_NAMES: [&str; 3] = ["OCOR", "iNPG", "iNPG+OCOR"];

/// Figure 2: percentage of lock coherence overhead (LCO) in application
/// running time under TAS, TTL, ABQL, MCS and QSL for kdtree, facesim
/// and fluidanimate.
///
/// Paper shape: TAS highest (up to ~90% on facesim), then TTL ≈ ABQL,
/// with MCS and QSL lowest.
fn fig02(a: &Artifact) -> Rendered {
    let mut out = String::new();
    writeln!(out, "Figure 2: LCO share of application running time (scale {})\n", a.scale()?)?;
    let mut matrix = FigureMatrix::new("benchmark", &["TAS", "TTL", "ABQL", "MCS", "QSL"]);
    for benchmark in ["kdtree", "face", "fluid"] {
        let values = LockPrimitive::ALL
            .into_iter()
            .map(|primitive| Ok(a.record(&format!("{benchmark}/{primitive}"))?.lco_share()))
            .collect::<Result<_, ReportError>>()?;
        matrix.add_row(benchmark, None, values);
    }
    writeln!(out, "{}", matrix.main_table(pct))?;
    writeln!(out, "(LCO = cycles with a lock-variable coherence transaction outstanding,")?;
    writeln!(out, " averaged over threads, relative to ROI runtime.)")?;
    Ok(out)
}

/// Figure 7: synthesis and physical floorplan/layout results for one
/// big/normal router and the whole 64-core chip, from the analytical
/// hardware model (constants anchored to the paper's published numbers;
/// see `inpg::hardware`). Reads no artifact.
fn fig07(_: &Artifact) -> Rendered {
    let mut out = String::new();
    writeln!(out, "Figure 7a: module synthesis and layout (TSMC 40 nm LP model)\n")?;
    let (core, big) = (hardware::core(), hardware::big_router(16));
    let (normal, generator) = (hardware::normal_router(), hardware::packet_generator(16));
    let mut table = Table::new(vec!["metric", "core", "big router", "router", "packet gen"]);
    let modules = [&core, &big, &normal, &generator];
    for (metric, values) in [
        ("gate count (K)", modules.map(|m| m.kgates)),
        ("SC count (K)", modules.map(|m| m.kcells)),
        ("dyn. power (mW)", modules.map(|m| m.dynamic_mw)),
    ] {
        let mut row = vec![metric.to_string()];
        row.extend(values.map(|v| format!("{v:.1}")));
        table.add_row(row);
    }
    let mut row = vec!["area (mm^2)".to_string()];
    row.extend([&core, &big, &normal].map(|m| format!("{:.2}", m.area_mm2)));
    row.push("-".into());
    table.add_row(row);
    let mut row = vec!["cell density".to_string()];
    let densities = [
        hardware::core_cell_density(),
        hardware::router_cell_density(true),
        hardware::router_cell_density(false),
    ];
    row.extend(densities.map(|d| format!("{:.2}%", d * 100.0)));
    row.push("-".into());
    table.add_row(row);
    writeln!(out, "{table}")?;

    let (layers, metal) = hardware::floorplan_layers();
    writeln!(out, "floorplan: {layers} total layers, {metal} metal layers\n")?;
    let (big_tile, normal_tile) = (hardware::tile(true, 16), hardware::tile(false, 16));
    let (big_mw, normal_mw) = (big_tile.dynamic_mw, normal_tile.dynamic_mw);
    writeln!(out, "tiles: big {big_mw:.1} mW, normal {normal_mw:.1} mW")?;
    let chip = hardware::chip(&NocConfig::paper_default());
    writeln!(
        out,
        "chip ({} tiles, {} big routers): {:.0} K gates, {:.2} W dynamic, {:.1} mm^2, +{:.2}% power vs all-normal",
        chip.tiles,
        chip.big_routers,
        chip.kgates,
        chip.dynamic_w,
        chip.area_mm2,
        chip.power_overhead * 100.0
    )?;

    writeln!(out, "\nbarrier-table scaling of the packet generator:")?;
    let mut table = Table::new(vec!["entries", "gates (K)", "power (mW)"]);
    for entries in [4usize, 16, 64] {
        let g = hardware::packet_generator(entries);
        let (gates, power) = (format!("{:.2}", g.kgates), format!("{:.2}", g.dynamic_mw));
        table.add_row(vec![entries.to_string(), gates, power]);
    }
    writeln!(out, "{table}")?;
    Ok(out)
}

/// Figure 8: (a) total CS access counts and average CPU cycles per CS
/// for the 24 programs (model signatures, no artifact needed); (b) the
/// measured COH vs CSE breakdown of total CS time and the three
/// benchmark groups.
fn fig08(a: &Artifact) -> Rendered {
    let mut out = String::new();
    writeln!(out, "Figure 8a: benchmark CS characteristics (model signatures)\n")?;
    let mut table =
        Table::new(vec!["benchmark", "suite", "total CS", "avg cycles/CS", "locks", "group"]);
    let mut ordered: Vec<_> = BENCHMARKS.iter().collect();
    ordered.sort_by_key(|b| b.total_cs_time());
    for spec in &ordered {
        table.add_row(vec![
            spec.name.to_string(),
            spec.suite.to_string(),
            spec.total_cs.to_string(),
            spec.avg_cs_cycles.to_string(),
            spec.locks.to_string(),
            group_of(spec).to_string(),
        ]);
    }
    writeln!(out, "{table}")?;

    let scale = a.scale()?;
    writeln!(out, "Figure 8b: measured COH vs CSE breakdown (Original, QSL, scale {scale})\n")?;
    let mut table = Table::new(vec![
        "benchmark",
        "group",
        "COH share of CS time",
        "CSE share of CS time",
        "avg COH/CS",
        "avg CSE/CS",
    ]);
    for spec in &ordered {
        let r = a.record(spec.name)?;
        let total = r.cs_access_time();
        table.add_row(vec![
            spec.name.to_string(),
            group_of(spec).to_string(),
            pct(r.avg_cs_coh / total),
            pct(r.avg_cs_cse / total),
            format!("{:.0}", r.avg_cs_coh),
            format!("{:.0}", r.avg_cs_cse),
        ]);
    }
    writeln!(out, "{table}")?;
    writeln!(out, "(Paper shape: COH dominates CSE for most programs; groups split 6/12/6.)")?;
    Ok(out)
}

/// Figure 9: execution timing profile of freqmine under the four
/// mechanisms — phase shares (parallel / COH / CSE) over a 30 000-cycle
/// window of the first 8 threads, and critical sections completed in
/// that window.
///
/// The one figure that still runs: it needs each thread's phase
/// timeline, which a [`CellRecord`] does not carry, so it builds the
/// systems of the suite's four uncacheable cells at the suite's default
/// scale, runs them, and reads the timeline off each.
fn fig09(_: &Artifact) -> Rendered {
    const WINDOW: u64 = 30_000;
    const THREADS_SHOWN: usize = 8;
    let scale = suites::suite_info("fig09").map_or(0.2, |s| s.default_scale);
    let cells = suites::fig09(scale).cells;
    let runs = pool::run_indexed(cells.len(), engine::default_workers(), |i| {
        let mut system = cells[i].config.system()?;
        let run = system.run()?;
        Ok::<_, SimError>((system, run))
    });

    let mut out = String::new();
    writeln!(out, "Figure 9: freqmine timing profile, first {THREADS_SHOWN} threads, a {WINDOW}-cycle steady-state window (QSL, scale {scale})\n")?;
    let mut table = Table::new(vec![
        "mechanism",
        "parallel",
        "COH",
        "CSE",
        "CS completed",
        "progress vs Original",
    ]);
    let mut base_cs = None;
    let mut window_start = None;
    for (cell, ran) in cells.iter().zip(runs) {
        let mechanism = cell.config.mechanism;
        let label = mechanism.to_string();
        let (system, run) =
            ran.map_err(|e| ReportError(format!("fig09 cell `{label}` failed: {e}")))?;
        let timeline = system
            .timeline()
            .filter(|_| run.completed)
            .ok_or_else(|| ReportError(format!("fig09 cell `{label}` has no completed timeline")))?;
        // The paper profiles a mid-execution slice; the window starts
        // at 25% of the Original run's ROI so every mechanism is
        // measured over the same absolute cycles, past the warm-up.
        let start = *window_start.get_or_insert(run.cycles / 4);
        let (from, to) = (Cycle::new(start), Cycle::new(start + WINDOW));
        let (parallel, coh, cse) = timeline.shares(from, to, Some(THREADS_SHOWN));
        let cs = cs_completed_between(&system.thread_counters(), from, to, THREADS_SHOWN);
        let progress = match base_cs {
            None => {
                base_cs = Some(cs);
                "-".to_string()
            }
            Some(base) => format!("{:+.1}%", (cs as f64 / base as f64 - 1.0) * 100.0),
        };
        table.add_row(vec![label, pct(parallel), pct(coh), pct(cse), cs.to_string(), progress]);
        writeln!(out, "-- {mechanism} --")?;
        for row in render_timeline(timeline, from, to, THREADS_SHOWN, 96) {
            writeln!(out, "{row}")?;
        }
        writeln!(out)?;
    }
    writeln!(out, "{}\n\n{table}", timeline_legend())?;
    writeln!(out, "(Paper: Original 62.1/28.3/9.6 with 78 CS; OCOR 69.8/19.8/10.4 with 92;")?;
    writeln!(out, " iNPG 73.0/17.0/10.0 with 96; iNPG+OCOR 80.1/9.0/10.9 with 104.)")?;
    Ok(out)
}

/// Critical sections the first `threads` threads completed in
/// `[from, to)` (Figure 9's "critical sections completed during the
/// reported 30 000 CPU cycles").
fn cs_completed_between(
    per_thread: &[PhaseCounters],
    from: Cycle,
    to: Cycle,
    threads: usize,
) -> usize {
    per_thread
        .iter()
        .take(threads)
        .flat_map(|c| &c.cs_records)
        .filter(|r| (from..to).contains(&r.finished_at))
        .count()
}

/// Figure 10's per-core map and histogram of one Inv-Ack population.
fn invack_map(out: &mut String, label: &str, r: &CellRecord) -> Result<(), ReportError> {
    let inv = &r.invack;
    let (mean, max, count) = (inv.mean, inv.max, inv.count);
    writeln!(out, "{label}: mean {mean:.1} cycles, max {max} cycles, {count} round trips")?;
    writeln!(out, "per-core mean Inv-Ack round-trip delay (8x8 map, '-' = never invalidated):")?;
    for y in 0..8 {
        let mut row = String::new();
        for x in 0..8 {
            match inv.per_core_mean.get(y * 8 + x).copied().flatten() {
                Some(v) => write!(row, "{v:5.1} ")?,
                None => row.push_str("    - "),
            }
        }
        writeln!(out, "  {row}")?;
    }
    writeln!(out, "histogram (cycles: count), nonzero buckets:")?;
    let nonzero = inv.histogram.iter().enumerate().filter(|&(_, &n)| n > 0);
    for (shown, (v, n)) in nonzero.enumerate() {
        write!(out, "  {v}:{n}")?;
        if (shown + 1) % 10 == 0 {
            writeln!(out)?;
        }
    }
    writeln!(out, "\n")?;
    Ok(())
}

/// Figure 10: average coherence invalidation–acknowledgement
/// round-trip delay per core (map) and its histogram, Original vs iNPG,
/// for a scenario where all 64 threads compete for one lock homed at
/// tile (5, 6).
///
/// Paper shape: without iNPG the delay grows with distance from the
/// home node (mean 39.2, max 97, long tail); with iNPG the delay is
/// flat and short (mean 9.5, max 15).
fn fig10(a: &Artifact) -> Rendered {
    let mut out = String::new();
    writeln!(
        out,
        "Figure 10: Inv-Ack round-trip delay, 64 threads competing, lock homed at (5,6)\n"
    )?;
    let original = a.record(&Mechanism::Original.to_string())?;
    let inpg = a.record(&Mechanism::Inpg.to_string())?;
    invack_map(&mut out, "Original (Figures 10a/10b)", original)?;
    invack_map(&mut out, "iNPG, all round trips", inpg)?;
    let early = &inpg.invack_early;
    writeln!(
        out,
        "iNPG early (router-closed) round trips only — the paper's Figures 10c/10d plot these: mean {:.1}, max {} over {} trips",
        early.mean, early.max, early.count
    )?;
    writeln!(
        out,
        "summary: mean {:.1} -> {:.1} (early-only {:.1}) cycles, max {} -> {}",
        original.invack.mean, inpg.invack.mean, early.mean, original.invack.max, inpg.invack.max
    )?;
    writeln!(out, "(Paper: mean 39.2 -> 9.5, max 97 -> 15; the long tail disappears.)")?;
    Ok(out)
}

/// A metric of one cell against its baseline cell, such as
/// [`CellRecord::cs_expedition`].
type VsBase = fn(&CellRecord, &CellRecord) -> f64;

/// `metric` of one Figure 11/12 (benchmark, mechanism, seed) cell
/// against the matching Original cell.
fn vs_original(
    a: &Artifact,
    bench: &str,
    mechanism: Mechanism,
    seed: u64,
    metric: VsBase,
) -> Result<f64, ReportError> {
    let label = |m: Mechanism| format!("{bench}/{m}/{}", seed_label(seed));
    Ok(metric(a.record(&label(mechanism))?, a.record(&label(Mechanism::Original))?))
}

/// The Figure 11/12 matrix: per benchmark and series, `metric` against
/// Original aggregated over seeds with `agg`. With 2+ seeds, also a
/// line giving, per series, the Student-t 95% CI of the per-seed `agg`
/// over all 24 programs, each `(mean, ci95)` rendered by `ci`.
fn mechanism_matrix(
    a: &Artifact,
    metric: VsBase,
    agg: fn(&[f64]) -> f64,
    ci: fn(f64, f64) -> String,
) -> Result<(FigureMatrix, Option<String>), ReportError> {
    let seeds = a.seeds();
    let mut matrix = FigureMatrix::new("benchmark", &SERIES_NAMES);
    for spec in &BENCHMARKS {
        let mut values = Vec::with_capacity(SERIES.len());
        for mechanism in SERIES {
            let per_seed = seeds
                .iter()
                .map(|&seed| vs_original(a, spec.name, mechanism, seed, metric))
                .collect::<Result<Vec<f64>, _>>()?;
            values.push(agg(&per_seed));
        }
        matrix.add_row(spec.name, Some(group_of(spec)), values);
    }
    if seeds.len() < 2 {
        return Ok((matrix, None));
    }
    let mut parts = Vec::with_capacity(SERIES.len());
    for (mechanism, name) in SERIES.into_iter().zip(SERIES_NAMES) {
        let mut w = Welford::new();
        for &seed in &seeds {
            let per_bench = BENCHMARKS
                .iter()
                .map(|spec| vs_original(a, spec.name, mechanism, seed, metric))
                .collect::<Result<Vec<f64>, _>>()?;
            w.push(agg(&per_bench));
        }
        parts.push(match w.estimate() {
            Some(est) => format!("{name} {}", ci(est.mean, est.ci95)),
            None => format!("{name} (no CI)"),
        });
    }
    let line = format!("95% CI over {} seeds: {}", seeds.len(), parts.join(", "));
    Ok((matrix, Some(line)))
}

/// Figure 11: critical-section expedition (normalized mean CS access
/// time, COH + CSE) achieved by the four mechanisms over all 24
/// programs, reported per group and overall.
///
/// Paper shape: OCOR 1.45x avg (max 1.90x, dedup); iNPG 1.98x avg (max
/// 3.48x, nab); iNPG+OCOR 2.71x avg; gains grow from Group 1 to Group 3;
/// iNPG over OCOR: 1.35x avg.
fn fig11(a: &Artifact) -> Rendered {
    let mut out = String::new();
    writeln!(out, "Figure 11: CS expedition vs Original (QSL, scale {})\n", a.scale()?)?;
    let ci = |mean: f64, ci95: f64| format!("{mean:.2} ±{ci95:.2}");
    let (matrix, ci_line) = mechanism_matrix(a, CellRecord::cs_expedition, geomean, ci)?;
    writeln!(out, "{}", matrix.main_table(speedup))?;
    writeln!(out, "{}", matrix.summary_table("scope", geomean, speedup, "all 24 (geomean)"))?;
    for (i, name) in SERIES_NAMES.iter().enumerate() {
        let (max, bench) = matrix.column_max(i);
        writeln!(out, "max {name}: {} ({bench})", speedup(max))?;
    }
    let (avg_ocor, avg_inpg) = (geomean(&matrix.column(0)), geomean(&matrix.column(1)));
    writeln!(out, "iNPG over OCOR: {} avg", speedup(avg_inpg / avg_ocor))?;
    if let Some(line) = ci_line {
        writeln!(out, "{line}")?;
    }
    Ok(out)
}

/// Figure 12: relative application ROI finish time of the four
/// mechanisms (Original = 100%), per group and overall. Reads Figure
/// 11's artifact: the two figures share every cell.
///
/// Paper shape: OCOR 87.7%, iNPG 80.1%, iNPG+OCOR 75.3% on average;
/// reductions grow from Group 1 to Group 3; iNPG over OCOR improves ROI
/// by 7.8% avg / 14.7% max (bt331); the combination is sub-additive.
fn fig12(a: &Artifact) -> Rendered {
    let mut out = String::new();
    let scale = a.scale()?;
    writeln!(out, "Figure 12: relative ROI finish time (Original = 100%; QSL, scale {scale})\n")?;
    let ci = |mean: f64, ci95: f64| format!("{:.1}% ±{:.1}%", mean * 100.0, ci95 * 100.0);
    let (matrix, ci_line) = mechanism_matrix(a, CellRecord::relative_roi, mean, ci)?;
    writeln!(out, "{}", matrix.main_table(pct))?;
    writeln!(out, "{}", matrix.summary_table("scope", mean, pct, "all 24 (mean)"))?;
    let (ocor, inpg) = (matrix.column(0), matrix.column(1));
    let best_gain = inpg
        .iter()
        .zip(&ocor)
        .zip(BENCHMARKS.iter())
        .map(|((i, o), spec)| (1.0 - i / o, spec.name))
        .fold((f64::MIN, ""), |acc, v| if v.0 > acc.0 { v } else { acc });
    writeln!(
        out,
        "iNPG over OCOR: {:.1}% avg ROI improvement, {:.1}% max ({})",
        (1.0 - mean(&inpg) / mean(&ocor)) * 100.0,
        best_gain.0 * 100.0,
        best_gain.1
    )?;
    if let Some(line) = ci_line {
        writeln!(out, "{line}")?;
    }
    Ok(out)
}

/// iNPG's ROI reduction of cell `inpg` over cell `base`.
fn roi_reduction(a: &Artifact, base: &str, inpg: &str) -> Result<f64, ReportError> {
    Ok(1.0 - a.record(inpg)?.relative_roi(a.record(base)?))
}

/// Figure 13: ROI finish time reduction achieved by iNPG under the
/// five locking primitives (TAS, TTL, ABQL, QSL, MCS), averaged over
/// all 24 programs.
///
/// Paper shape: TAS benefits most (52.8%), then TTL (33.4%) ≈ ABQL
/// (32.6%), then QSL (19.9%), then MCS (16.5%) — the less lock
/// competition traffic a primitive puts in the NoC, the smaller the win.
fn fig13(a: &Artifact) -> Rendered {
    let mut out = String::new();
    let scale = a.scale()?;
    writeln!(out, "Figure 13: ROI finish time reduction by iNPG per primitive (scale {scale})\n")?;
    let mut matrix = FigureMatrix::new("benchmark", &["TAS", "TTL", "ABQL", "MCS", "QSL"]);
    for spec in &BENCHMARKS {
        let values = LockPrimitive::ALL
            .into_iter()
            .map(|primitive| {
                let label = |m: Mechanism| format!("{}/{primitive}/{m}", spec.name);
                roi_reduction(a, &label(Mechanism::Original), &label(Mechanism::Inpg))
            })
            .collect::<Result<_, _>>()?;
        matrix.add_row(spec.name, None, values);
    }
    writeln!(out, "{}", matrix.main_table(pct))?;
    let mut summary = Table::new(vec!["primitive", "avg ROI reduction"]);
    for (i, primitive) in LockPrimitive::ALL.into_iter().enumerate() {
        summary.add_row(vec![primitive.to_string(), pct(mean(&matrix.column(i)))]);
    }
    writeln!(out, "{summary}")?;
    writeln!(out, "(Paper: TAS 52.8%, TTL 33.4%, ABQL 32.6%, QSL 19.9%, MCS 16.5%.)")?;
    Ok(out)
}

/// Figure 14: critical-section expedition with different big-router
/// deployments (0, 4, 16, 32, 64 big routers, spread evenly).
///
/// Paper shape: COH expedition grows with the number of big routers but
/// saturates — 32 big routers capture nearly all of the 64-router gain
/// (CSE is untouched).
fn fig14(a: &Artifact) -> Rendered {
    let mut out = String::new();
    let scale = a.scale()?;
    writeln!(out, "Figure 14: CS expedition vs big-router deployment (QSL, scale {scale})\n")?;
    let mut matrix = FigureMatrix::new("benchmark", &["0", "4", "16", "32", "64"]);
    for name in high_group() {
        let base = a.record(&format!("{name}/br0"))?;
        let values = FIG14_DEPLOYMENTS
            .into_iter()
            .map(|count| Ok(a.record(&format!("{name}/br{count}"))?.cs_expedition(base)))
            .collect::<Result<_, ReportError>>()?;
        matrix.add_row(name, None, values);
    }
    writeln!(out, "{}", matrix.main_table(speedup))?;
    let mut summary = Table::new(vec!["big routers", "avg CS expedition"]);
    for (i, count) in FIG14_DEPLOYMENTS.into_iter().enumerate() {
        summary.add_row(vec![count.to_string(), speedup(geomean(&matrix.column(i)))]);
    }
    writeln!(out, "{summary}")?;
    writeln!(out, "(Paper: monotone improvement, marginal gain from 32 to 64 big routers.)")?;
    Ok(out)
}

/// Figure 15: iNPG's average ROI finish time reduction across NoC
/// dimensions (2×2, 4×4, 8×8, 16×16) and locking-barrier-table sizes
/// (4, 16, 64 entries).
///
/// Paper shape: the benefit grows with the mesh (4.7% at 2×2 → 19.9% at
/// 8×8 → 57.5% at 16×16); 4-entry tables throttle iNPG on big meshes
/// while 16 vs 64 entries barely differ.
fn fig15(a: &Artifact) -> Rendered {
    let mut out = String::new();
    let scale = a.scale()?;
    writeln!(out, "Figure 15: iNPG ROI reduction vs mesh dimension x barrier-table size (QSL, scale {scale})\n")?;
    let subjects = high_group();
    let mut matrix = FigureMatrix::new("mesh", &["4 entries", "16 entries", "64 entries"]);
    for (w, h) in FIG15_MESHES {
        let mut values = Vec::with_capacity(FIG15_TABLES.len());
        for entries in FIG15_TABLES {
            let reductions = subjects
                .iter()
                .map(|name| {
                    let cell = |suffix: &str| format!("{w}x{h}/{name}/{suffix}");
                    roi_reduction(a, &cell("base"), &cell(&format!("e{entries}")))
                })
                .collect::<Result<Vec<f64>, _>>()?;
            values.push(mean(&reductions));
        }
        matrix.add_row(&format!("{w}x{h}"), None, values);
    }
    writeln!(out, "{}", matrix.main_table(pct))?;
    writeln!(out, "(Paper: benefit grows with mesh size; 4 entries throttle big meshes;")?;
    writeln!(out, " 16 vs 64 entries barely differ — 16 is chosen as the default.)")?;
    Ok(out)
}

/// Ablations for the design knobs DESIGN.md calls out beyond the
/// paper's own sensitivity studies: QSL retry budget, the big-router
/// deployment *pattern* (checkerboard vs evenly spread) at a fixed
/// router count, and barrier-table size.
fn ablation(a: &Artifact) -> Rendered {
    // Average iNPG ROI reduction over the subjects for one knob setting.
    let avg_reduction = |cell: &str| -> Rendered {
        let reductions = ABLATION_SUBJECTS
            .iter()
            .map(|s| roi_reduction(a, &format!("{s}/base"), &format!("{s}/{cell}")))
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(pct(mean(&reductions)))
    };
    let mut out = String::new();
    writeln!(out, "Ablations (QSL, scale {}, subjects: {ABLATION_SUBJECTS:?})\n", a.scale()?)?;
    let mut table = Table::new(vec!["QSL retry budget", "iNPG ROI reduction (avg)"]);
    for budget in ABLATION_BUDGETS {
        table.add_row(vec![budget.to_string(), avg_reduction(&format!("budget{budget}"))?]);
    }
    writeln!(out, "{table}")?;
    // At 32 big routers: checkerboard (the paper default, the plain
    // iNPG cell) vs row-major spread.
    let mut table = Table::new(vec!["deployment (32 big routers)", "iNPG ROI reduction (avg)"]);
    table.add_row(vec!["checkerboard".into(), avg_reduction("budget128")?]);
    table.add_row(vec!["spread (row-major)".into(), avg_reduction("spread32")?]);
    writeln!(out, "{table}")?;
    let mut table = Table::new(vec!["barrier entries", "iNPG ROI reduction (avg)"]);
    for entries in ABLATION_ENTRIES {
        table.add_row(vec![entries.to_string(), avg_reduction(&format!("entries{entries}"))?]);
    }
    writeln!(out, "{table}")?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_summarizes_per_group_and_overall() {
        let mut m = FigureMatrix::new("benchmark", &["a", "b"]);
        m.add_row("x", Some(CsGroup::Low), vec![1.0, 2.0]);
        m.add_row("y", Some(CsGroup::High), vec![3.0, 4.0]);
        m.add_row("z", Some(CsGroup::High), vec![5.0, 6.0]);

        let main = m.main_table(|v| format!("{v:.1}"));
        assert_eq!(main.len(), 3);

        let summary = m.summary_table("scope", mean, |v| format!("{v:.1}"), "all");
        // Low, High, overall (Medium has no members).
        assert_eq!(summary.len(), 3);

        assert_eq!(m.column(1), vec![2.0, 4.0, 6.0]);
        assert_eq!(m.column_max(0), (5.0, "z"));
        assert!((mean(&m.column(0)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_without_groups_has_no_group_column() {
        let mut m = FigureMatrix::new("r", &["only"]);
        m.add_row("x", None, vec![1.0]);
        let summary = m.summary_table("scope", mean, |v| format!("{v}"), "all");
        assert_eq!(summary.len(), 1, "just the overall row");
    }

    /// A Figure-10 artifact with synthetic records, as
    /// `write_artifact` lays it out.
    fn fig10_artifact(labels: &[&str]) -> String {
        let record = CellRecord::from_json(
            &json::parse(
                r#"{"completed":true,"roi_cycles":100,"cs_count":4,"threads":64,
                "avg_cs_coh":30.0,"avg_cs_cse":10.0,"total_parallel":1,"total_coh":1,
                "total_cse":1,"total_sleep":0,"lco_cycles":5,"mem_txn_cycles":5,
                "invack":{"mean":12.5,"max":20,"count":2,"histogram":[0,1,1],"per_core_mean":[12.5,null]},
                "invack_early":{"mean":0.0,"max":0,"count":0,"histogram":[],"per_core_mean":[]},
                "delivered":9,"mean_latency":3.5,"generated":0,"early_invs":0,
                "requests_stopped":0,"acks_relayed":0,"home_invs_sent":2,"home_invs_saved":0}"#,
            )
            .expect("valid json"),
        )
        .expect("valid record");
        let config = CellConfig::hot_lock(16, 500, 100);
        let lines: Vec<Json> = labels
            .iter()
            .map(|l| exec::merged_entry_line(l, &config.content_hash(), &config, &record))
            .collect();
        let mut text = String::new();
        for line in lines.iter().chain([&exec::merged_footer("fig10", labels.len(), 0)]) {
            text.push_str(&line.to_string_compact());
            text.push('\n');
        }
        text
    }

    #[test]
    fn a_well_formed_artifact_renders() {
        let artifact = Artifact::parse(&fig10_artifact(&["Original", "iNPG"])).expect("parses");
        let text = fig10(&artifact).expect("renders");
        assert!(text.contains("Original (Figures 10a/10b): mean 12.5 cycles"), "{text}");
    }

    #[test]
    fn a_missing_label_is_an_error_naming_it() {
        let artifact = Artifact::parse(&fig10_artifact(&["Original"])).expect("parses");
        let err = fig10(&artifact).expect_err("iNPG is missing");
        assert!(err.0.contains("no cell labelled `iNPG`"), "{err}");
    }

    #[test]
    fn a_truncated_line_is_an_error_naming_the_line() {
        let text = fig10_artifact(&["Original", "iNPG"]);
        let second = text.lines().nth(1).expect("two entries");
        let torn = text.replace(second, &second[..second.len() / 2]);
        let err = Artifact::parse(&torn).expect_err("torn line");
        assert!(err.0.starts_with("line 2: "), "{err}");
        // A file cut at a line boundary has lost its footer.
        let cut: String = text.lines().take(1).map(|l| format!("{l}\n")).collect();
        let err = Artifact::parse(&cut).expect_err("no footer");
        assert!(err.0.contains("truncated"), "{err}");
    }

    #[test]
    fn report_errors_name_the_figure_or_file() {
        let err = report("fig99", None).expect_err("unknown figure");
        assert!(err.0.contains("unknown figure `fig99`"), "{err}");
        let err = report("fig07", Some(Path::new("x.jsonl"))).expect_err("fig07 reads nothing");
        assert!(err.0.contains("reads no artifact"), "{err}");
        let missing = Path::new("no/such/artifact.jsonl");
        let err = report("fig02", Some(missing)).expect_err("missing file");
        assert!(err.0.contains("no/such/artifact.jsonl"), "{err}");
    }

    #[test]
    fn every_artifact_figure_reads_a_defined_suite() {
        for figure in FIGURES {
            if let Some(suite) = figure.artifact {
                assert!(suites::suite_info(suite).is_some(), "{} reads `{suite}`", figure.name);
            }
        }
    }
}
