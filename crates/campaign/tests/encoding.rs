//! The encoding contract of committed artifacts: every config line of
//! every merged artifact under `results/campaign/` parses back into a
//! [`CellConfig`] whose canonical encoding is byte-identical to the
//! committed one and hashes to the committed content address. A change
//! to `CellConfig`'s encoding that moved one cacheable cell's bytes —
//! and so its cache entry — fails here.

use inpg_campaign::json;
use inpg_campaign::CellConfig;
use std::path::PathBuf;

#[test]
fn committed_configs_reencode_to_their_bytes_and_hashes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/campaign");
    let mut artifacts = 0;
    let mut configs = 0;
    let mut uncacheable = 0;
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("results/campaign exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    paths.sort();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("artifact is readable");
        artifacts += 1;
        for (n, line) in text.lines().enumerate() {
            let where_ = format!("{}:{}", path.display(), n + 1);
            let entry = json::parse(line).unwrap_or_else(|e| panic!("{where_}: {e}"));
            let Some(committed) = entry.get("config") else {
                continue;
            };
            let config =
                CellConfig::from_json(committed).unwrap_or_else(|e| panic!("{where_}: {e}"));
            let canonical = config.canonical();
            assert!(
                line.contains(&format!(r#","config":{canonical},"#)),
                "{where_}: re-encoded config differs from the committed bytes:\n{canonical}"
            );
            let hash = entry.get("hash").and_then(json::Json::as_str);
            assert_eq!(hash, Some(config.content_hash().as_str()), "{where_}");
            configs += 1;
            uncacheable += usize::from(!config.cacheable());
        }
    }
    assert!(
        artifacts >= 11,
        "every committed artifact is checked: {paths:?}"
    );
    assert!(configs > 500, "{configs} configs");
    // Only the fault matrix's run-check cells are uncacheable.
    assert_eq!(uncacheable, 6);
}
