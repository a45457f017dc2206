//! Column-aligned table rendering.

use std::fmt;

/// A simple column-aligned table used for experiment output.
///
/// Renders as fixed-width text ([`fmt::Display`]).
///
/// # Example
///
/// ```
/// use sp_analysis::Table;
///
/// let mut t = Table::new(vec!["n", "PoA"]);
/// t.push_row(vec!["8".into(), "1.31".into()]);
/// let text = t.to_string();
/// assert!(text.contains("PoA"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// The column headers.
    #[must_use]
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when there are no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{h:>width$}", width = w[i])?;
        }
        writeln!(f)?;
        let total: usize = w.iter().sum::<usize>() + 2 * (w.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:>width$}", width = w[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Formats a float compactly for tables (3 significant decimals, `inf`
/// for infinities).
#[must_use]
pub fn fmt_f64(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "inf".to_owned()
        } else {
            "-inf".to_owned()
        }
    } else if v == 0.0 || (v.abs() >= 0.01 && v.abs() < 100_000.0) {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_alignment() {
        let mut t = Table::new(vec!["a", "long-header"]);
        t.push_row(vec!["123456".into(), "x".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].starts_with("123456"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(vec!["x"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(f64::INFINITY), "inf");
        assert_eq!(fmt_f64(0.0), "0.000");
        assert!(fmt_f64(1.0e9).contains('e'));
        assert!(fmt_f64(0.0001).contains('e'));
    }

    #[test]
    fn emptiness() {
        let t = Table::new(vec!["x"]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.headers(), &["x".to_owned()]);
    }
}
