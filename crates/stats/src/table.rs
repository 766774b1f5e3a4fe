//! Plain-text table rendering: `inpg report` prints every figure and
//! table as an aligned text table.

use std::fmt;

/// A simple fixed-width text table.
///
/// # Example
///
/// ```
/// use inpg_stats::Table;
/// let mut t = Table::new(vec!["benchmark", "speedup"]);
/// t.add_row(vec!["freqmine".to_string(), "1.35x".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("freqmine"));
/// assert!(s.contains("speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Table { headers: headers.into_iter().map(String::from).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells
    /// containing commas or quotes), for downstream plotting.
    pub fn to_csv(&self) -> String {
        fn cell(c: &str) -> String {
            if c.contains([',', '"', '\n']) {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        }
        let mut out = String::new();
        let row = |cells: &[String]| {
            cells.iter().map(|c| cell(c)).collect::<Vec<_>>().join(",")
        };
        out.push_str(&row(&self.headers));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&row(r));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let write_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (c, cell) in cells.iter().enumerate() {
                if c > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[c])?;
            }
            writeln!(f)
        };
        write_row(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a fraction as a percentage with one decimal (`12.3%`).
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats a ratio as a speedup (`1.35x`).
pub fn speedup(ratio: f64) -> String {
    format!("{ratio:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(vec!["a", "bench"]);
        t.add_row(vec!["1".into(), "x".into()]);
        t.add_row(vec!["22".into(), "yy".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("---"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        let mut t = Table::new(vec!["a"]);
        t.add_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_export_quotes_when_needed() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["1,5".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(speedup(1.348), "1.35x");
    }
}
