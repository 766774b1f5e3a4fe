//! The encoding contract of committed artifacts. Every line of every
//! merged artifact under `results/campaign/` re-encodes to its own
//! bytes, twice over: as a generic JSON value, and rebuilt from the
//! typed [`CellConfig`], [`CellRecord`] and footer it decodes to. Every
//! config's canonical encoding is byte-identical to the committed one
//! and hashes to the committed content address. A change to the codec
//! or to a typed encoding that moved one byte of an artifact — or of a
//! cacheable cell's address, and so its cache entry — fails here.

use inpg_campaign::json::{self, Json};
use inpg_campaign::{exec, CellConfig, CellRecord};
use std::path::PathBuf;

#[test]
fn committed_configs_reencode_to_their_bytes_and_hashes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/campaign");
    let mut artifacts = 0;
    let mut lines = 0;
    let mut footers = 0;
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
            assert_eq!(entry.to_string_compact(), line, "{where_}: JSON re-encoding differs");
            lines += 1;
            if let Some(footer) = typed_footer(&entry) {
                assert_eq!(footer.to_string_compact(), line, "{where_}: footer differs");
                footers += 1;
            }
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
            let hash = entry.get("hash").and_then(Json::as_str);
            assert_eq!(hash, Some(config.content_hash().as_str()), "{where_}");
            let record = entry.get("record").map(CellRecord::from_json);
            let record = record.unwrap_or_else(|| panic!("{where_}: no record"));
            let record = record.unwrap_or_else(|e| panic!("{where_}: {e}"));
            let label = entry.get("label").and_then(Json::as_str).expect("label");
            let rebuilt = exec::merged_entry_line(label, hash.expect("hash"), &config, &record);
            assert_eq!(rebuilt.to_string_compact(), line, "{where_}: typed re-encoding differs");
            configs += 1;
            uncacheable += usize::from(!config.cacheable());
        }
    }
    assert!(
        artifacts >= 11,
        "every committed artifact is checked: {paths:?}"
    );
    assert!(configs > 500, "{configs} configs");
    assert!(lines > configs, "{lines} lines");
    // The adaptive artifact's footer has a schema of its own; every
    // other artifact ends in a merged-campaign footer.
    assert_eq!(footers, artifacts - 1, "{footers} merged footers");
    // Only the fault matrix's run-check cells are uncacheable.
    assert_eq!(uncacheable, 6);
}

/// The merged-campaign footer a line decodes to, rebuilt through
/// [`exec::merged_footer`]; `None` for every other kind of line.
fn typed_footer(line: &Json) -> Option<Json> {
    let campaign = line.get("campaign")?.as_str()?;
    let cells = line.get("cells")?.as_u64()?;
    let quarantined = line.get("quarantined")?.as_u64()?;
    Some(exec::merged_footer(campaign, cells as usize, quarantined as usize))
}
