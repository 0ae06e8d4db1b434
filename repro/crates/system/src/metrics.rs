//! Output helpers shared by the `repro` reports: plain-text
//! tables, labelled series, and summary statistics.

/// A labelled series of `(x-label, value)` points — one line/bar group of
/// a figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Series label (e.g. a design-point name).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }

    /// Largest y value (0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Renders a padded plain-text table.
///
/// ```
/// let t = tcast_system::render_table(
///     &["model", "speedup"],
///     &[vec!["RM1".into(), "2.0".into()]],
/// );
/// assert!(t.contains("RM1"));
/// assert!(t.contains("speedup"));
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths.iter()) {
            line.push_str(&format!(" {cell:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&render_row(headers.to_vec(), &widths));
    let sep: String = {
        let mut s = String::from("|");
        for w in &widths {
            s.push_str(&"-".repeat(w + 2));
            s.push('|');
        }
        s.push('\n');
        s
    };
    out.push_str(&sep);
    for row in rows {
        out.push_str(&render_row(
            row.iter().map(String::as_str).collect(),
            &widths,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("Ours(NMP)");
        s.push("b1024", 5.0);
        s.push("b2048", 7.5);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.max(), 7.5);
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        // Geomean < arithmetic mean for non-constant values.
        assert!(geometric_mean(&[1.0, 9.0]) < 5.0);
    }

    #[test]
    fn table_alignment_and_content() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4); // header, sep, 2 rows
                                    // All lines equal width.
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
        assert!(t.contains("long-name"));
    }
}
