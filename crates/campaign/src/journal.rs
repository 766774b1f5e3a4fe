//! The drain journal: cells that were admitted but not yet executed
//! when a daemon drained, persisted so the next daemon can replay them.
//!
//! Format: one canonical [`CellConfig`] encoding per line, written as a
//! whole file through tmp+fsync+rename (the same crash-safety discipline
//! as the result cache). A journal is therefore either fully present or
//! absent — a daemon killed *while* draining leaves at worst the old
//! journal, never a torn one. Replay is idempotent: executing a
//! journaled cell stores its record at the cell's content address, so a
//! cell journaled twice (or already completed by a sibling daemon) costs
//! one verified cache hit, not a re-run.

use crate::cell::CellConfig;
use crate::json;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Atomically replaces the journal at `path` with `cells` (parent
/// directories are created). An empty slice removes the journal
/// instead: no pending work means no file.
pub fn write(path: &Path, cells: &[CellConfig]) -> io::Result<()> {
    if cells.is_empty() {
        return clear(path);
    }
    crate::exec::create_parent_dir(path)?;
    let mut text = String::new();
    for cell in cells {
        text.push_str(&cell.canonical());
        text.push('\n');
    }
    let tmp = tmp_path(path);
    {
        let mut file = fs::File::create(&tmp)?;
        io::Write::write_all(&mut file, text.as_bytes())?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Loads the journal at `path`. A missing journal is an empty one; a
/// line that does not parse as a cell config is reported, not silently
/// dropped.
pub fn load(path: &Path) -> io::Result<Vec<CellConfig>> {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut cells = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = json::parse(line)
            .map_err(|e| corrupt(path, n + 1, &e.to_string()))
            .and_then(|v| {
                CellConfig::from_json(&v).map_err(|e| corrupt(path, n + 1, &e.to_string()))
            })?;
        cells.push(parsed);
    }
    Ok(cells)
}

/// Removes the journal (idempotent).
pub fn clear(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("journal"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

fn corrupt(path: &Path, line: usize, why: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("journal {}:{line}: {why}", path.display()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellConfig;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("inpg-journal-test-{}-{tag}.jsonl", std::process::id()))
    }

    #[test]
    fn roundtrips_and_clears() {
        let path = tmp("roundtrip");
        let cells = vec![
            CellConfig::benchmark("freq"),
            CellConfig::hot_lock(4, 100, 50),
        ];
        write(&path, &cells).unwrap();
        assert_eq!(load(&path).unwrap(), cells);

        // Rewriting replaces, never appends.
        write(&path, &cells[..1]).unwrap();
        assert_eq!(load(&path).unwrap(), cells[..1]);

        // An empty write removes the file entirely.
        write(&path, &[]).unwrap();
        assert!(!path.exists());
        assert_eq!(load(&path).unwrap(), Vec::<CellConfig>::new());
        clear(&path).unwrap();
    }

    #[test]
    fn a_corrupt_line_is_an_error_not_a_skip() {
        let path = tmp("corrupt");
        fs::write(&path, "{\"schema\":1, nope\n").unwrap();
        let err = load(&path).expect_err("corrupt journal must error");
        assert!(err.to_string().contains(":1:"), "{err}");
        let _ = fs::remove_file(&path);
    }
}
