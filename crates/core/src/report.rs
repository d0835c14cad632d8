//! Plain-text table/figure rendering and JSON artifact output for the
//! reproduction harness.

use serde::Serialize;
use std::fmt::Write as _;

/// A simple fixed-width text table.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for i in 0..ncols {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:<width$}", cells[i], width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &widths, &mut out);
        }
        out
    }
}

/// Format a float with `digits` decimals.
pub fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Format a signed percentage the way Table 1 does (`+27.7%` / `-18.4%`).
pub fn signed_pct(v: f64) -> String {
    format!("{}{:.1}%", if v >= 0.0 { "+" } else { "-" }, v.abs())
}

/// Write a JSON artifact under `dir/name.json`; returns the path. Creates
/// the directory if needed.
pub fn write_json<T: Serialize>(dir: &str, name: &str, value: &T) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{name}.json");
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    std::fs::write(&path, json)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["Subset", "EE", "WW"]);
        t.row(&["All".into(), "+27.7%".into(), "-18.4%".into()]);
        t.row(&["PC".into(), "+34.2%".into(), "-5.4%".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Subset"));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("+27.7%"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["x".into()]);
    }

    #[test]
    fn signed_pct_format() {
        assert_eq!(signed_pct(27.7), "+27.7%");
        assert_eq!(signed_pct(-18.4), "-18.4%");
        assert_eq!(signed_pct(0.0), "+0.0%");
    }

    #[test]
    fn write_json_roundtrip() {
        let dir = std::env::temp_dir().join("dvf-report-test");
        let dir = dir.to_str().unwrap();
        let path = write_json(dir, "t", &vec![1, 2, 3]).unwrap();
        let back: Vec<u32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
