//! Every committed figure text under `results/` is what `inpg report`
//! renders from the committed merged artifact under `results/campaign/`.
//! Figure 9 is left out: it is the one figure that still simulates.

use inpg_campaign::report::{self, FIGURES};
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn committed_figures_render_from_committed_artifacts() {
    let results = results_dir();
    let mut checked = Vec::new();
    for figure in FIGURES.iter().filter(|f| f.name != "fig09") {
        let from = figure
            .artifact
            .map(|suite| results.join(format!("campaign/{suite}.jsonl")));
        let rendered = report::report(figure.name, from.as_deref())
            .unwrap_or_else(|e| panic!("{}: {e}", figure.name));
        let committed = std::fs::read_to_string(results.join(format!("{}.txt", figure.file)))
            .unwrap_or_else(|e| panic!("{}: {e}", figure.file));
        assert!(
            rendered == committed,
            "results/{}.txt differs from `inpg report {}`:\n{rendered}",
            figure.file,
            figure.name
        );
        checked.push(figure.name);
    }
    assert_eq!(checked.len(), 10, "every figure but fig09: {checked:?}");
}

#[test]
fn the_cli_prints_the_rendered_figure() {
    let results = results_dir();
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_inpg"))
        .args(["report", "fig14", "--from"])
        .arg(results.join("campaign/fig14.jsonl"))
        .output()
        .expect("inpg runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let committed =
        std::fs::read_to_string(results.join("fig14_deployment.txt")).expect("committed text");
    assert_eq!(String::from_utf8_lossy(&out.stdout), committed);

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_inpg"))
        .args(["report", "fig14", "--from", "no/such/artifact.jsonl"])
        .output()
        .expect("inpg runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: cannot read no/such/artifact.jsonl"),
        "{stderr}"
    );
}
