//! Plain-text experiment reports: aligned tables on stdout plus TSV
//! files under `reports/` (no serde: the workspace takes no registry
//! dependencies).

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// A tabular report: header row plus data rows of strings.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id, e.g. `fig3-accuracy-k`.
    pub id: String,
    /// Short description printed above the table.
    pub title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// An empty report with the given id, title and column names.
    pub fn new(id: &str, title: &str, header: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row; the cell count must match the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch in {}", self.id);
        self.rows.push(cells.to_vec());
    }

    /// Convenience for mixed-type rows.
    pub fn rowf(&mut self, cells: &[&dyn std::fmt::Display]) {
        let cells: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
        self.row(&cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the report has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned text table.
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders tab-separated values (header + rows).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join("\t"));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and writes `<dir>/<id>.tsv`.
    pub fn emit(&self, dir: &str) -> std::io::Result<PathBuf> {
        print!("{}", self.to_table());
        println!();
        fs::create_dir_all(dir)?;
        let path = PathBuf::from(dir).join(format!("{}.tsv", self.id));
        let mut f = fs::File::create(&path)?;
        f.write_all(self.to_tsv().as_bytes())?;
        Ok(path)
    }
}

/// Formats a byte count with a binary-unit suffix.
pub fn fmt_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: std::time::Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.2} µs")
    } else if us < 1e6 {
        format!("{:.2} ms", us / 1e3)
    } else {
        format!("{:.2} s", us / 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_is_aligned() {
        let mut r = Report::new("t", "test", &["a", "bbbb"]);
        r.rowf(&[&1, &2.5]);
        r.rowf(&[&100, &"x"]);
        let table = r.to_table();
        assert!(table.contains("a  bbbb"));
        assert!(table.lines().count() >= 4);
        let tsv = r.to_tsv();
        assert_eq!(tsv.lines().next().unwrap(), "a\tbbbb");
        assert_eq!(tsv.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        let mut r = Report::new("t", "test", &["a", "b"]);
        r.row(&["only-one".to_string()]);
    }

    #[test]
    fn byte_and_duration_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert!(fmt_duration(std::time::Duration::from_micros(5)).contains("µs"));
        assert!(fmt_duration(std::time::Duration::from_millis(5)).contains("ms"));
        assert!(fmt_duration(std::time::Duration::from_secs(5)).contains(" s"));
    }
}
