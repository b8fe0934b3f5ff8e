//! Fixed-width plain-text tables for harness output.
//!
//! The harness regenerates every figure and table of the paper as text; this
//! module renders aligned tables so the "rows/series the paper reports" are
//! directly readable in a terminal or log file.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Table {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; shorter rows are padded with empty cells.
    pub fn row(&mut self, cells: &[String]) -> &mut Table {
        let mut row: Vec<String> = cells.to_vec();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: String = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:<w$}", h, w = widths[i] + 2))
            .collect();
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let line: String = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i] + 2))
                .collect();
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

/// Formats a ratio as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a normalized speedup like the paper ("2.49x").
pub fn speedup(x: f64) -> String {
    format!("{:.2}x", x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Fig X", &["policy", "throughput"]);
        t.row(&["Linux-NB".into(), "1.00".into()]);
        t.row(&["Chrono".into(), "3.16".into()]);
        let s = t.render();
        assert!(s.contains("== Fig X =="));
        assert!(s.contains("Linux-NB"));
        assert!(s.contains("Chrono"));
        // Columns align: both data rows have the throughput at the same byte
        // offset.
        let lines: Vec<&str> = s.lines().collect();
        let off1 = lines[3].find("1.00").unwrap();
        let off2 = lines[4].find("3.16").unwrap();
        assert_eq!(off1, off2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new("t", &["a", "b", "c"]);
        t.row(&["x".into()]);
        assert_eq!(t.rows(), 1);
        let s = t.render();
        assert!(s.contains('x'));
    }

    #[test]
    fn formatters() {
        assert_eq!(pct(0.4567), "45.7%");
        assert_eq!(speedup(2.491), "2.49x");
    }
}
