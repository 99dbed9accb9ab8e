//! Plain-text and markdown table rendering.
//!
//! The experiment harness prints the same rows the paper's tables report;
//! this module owns the formatting so every table looks consistent and the
//! benches can assert on structure.

use apt_base::SimDuration;
use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// Raw cell access (row-major).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// A cell parsed as `f64`, if numeric.
    pub fn cell_f64(&self, row: usize, col: usize) -> Option<f64> {
        self.rows.get(row)?.get(col)?.parse().ok()
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("**{}**\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths from headers and cells.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        writeln!(f, "{}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            for w in &widths {
                write!(f, "+{}", "-".repeat(w + 2))?;
            }
            writeln!(f, "+")
        };
        line(f)?;
        for (header, w) in self.headers.iter().zip(&widths) {
            write!(f, "| {header:>w$} ")?;
        }
        writeln!(f, "|")?;
        line(f)?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                write!(f, "| {:>w$} ", cell, w = widths[i])?;
            }
            writeln!(f, "|")?;
        }
        line(f)
    }
}

/// Format a duration the way the paper's tables do: whole milliseconds.
pub fn fmt_ms(d: SimDuration) -> String {
    format!("{}", d.as_ms_f64().round() as i64)
}

/// Format a percentage with three decimals (Table 13 style).
pub fn fmt_pct(p: f64) -> String {
    format!("{p:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TextTable {
        let mut t = TextTable::new("Table X", &["Graph", "APT", "MET"]);
        t.push_row(vec!["1".into(), "8298".into(), "8006".into()]);
        t.push_row(vec!["2".into(), "27684".into(), "27684".into()]);
        t
    }

    #[test]
    fn renders_aligned_text() {
        let s = sample().to_string();
        assert!(s.contains("Table X"));
        assert!(s.contains("| Graph |"));
        assert!(s.contains("|  8298 |"));
        // Every data line has the same length as the header line.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    /// Widths count characters, not bytes, so a header with `α` lines up
    /// with its cells.
    #[test]
    fn non_ascii_headers_align_by_character() {
        let mut t = TextTable::new("α sweep", &["α", "APT"]);
        t.push_row(vec!["1.5".into(), "8298".into()]);
        let s = t.to_string();
        assert!(s.contains("|   α |"), "{s}");
        let widths: Vec<usize> = s.lines().skip(1).map(|l| l.chars().count()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "{s}");
    }

    #[test]
    fn a_table_without_rows_renders_its_frame() {
        let t = TextTable::new("Empty", &["A", "BB"]);
        assert_eq!(t.row_count(), 0);
        assert_eq!(
            t.to_string(),
            "Empty\n+---+----+\n| A | BB |\n+---+----+\n+---+----+\n"
        );
        assert_eq!(t.to_markdown(), "**Empty**\n\n| A | BB |\n|---|---|\n");
    }

    #[test]
    fn renders_markdown() {
        let md = sample().to_markdown();
        assert!(md.starts_with("**Table X**"));
        assert!(md.contains("| Graph | APT | MET |"));
        assert!(md.contains("| 2 | 27684 | 27684 |"));
    }

    #[test]
    fn cell_parsing_and_counts() {
        let t = sample();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.cell_f64(0, 1), Some(8298.0));
        assert_eq!(t.cell_f64(0, 0), Some(1.0));
        assert_eq!(t.cell_f64(5, 0), None);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_panics() {
        sample().push_row(vec!["oops".into()]);
    }

    #[test]
    fn duration_formatting_matches_paper_style() {
        assert_eq!(fmt_ms(SimDuration::from_us(8_298_400)), "8298");
        assert_eq!(fmt_ms(SimDuration::from_us(8_298_501)), "8299");
        assert_eq!(fmt_pct(18.223_4), "18.223");
    }
}
