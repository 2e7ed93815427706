//! Result output: what one experiment returns — its `results/`
//! artifacts and, when it ran traced, its traced cells — and the
//! renderers that turn rows and cells into bytes. The `experiments`
//! binary alone writes files.

use simnet::telemetry::{ChromeTrace, MetricsSnapshot, Recorder};
use simnet::trace::Figure;

/// One traced experiment cell: its trace-process label and (when tracing
/// was on) its recorder.
pub type TracedCell = (String, Option<Box<Recorder>>);

/// Everything one experiment produces.
#[derive(Default)]
pub struct Output {
    /// `results/` files in write order: each a file name and its bytes.
    pub artifacts: Vec<(String, String)>,
    /// Traced cells in a thread-count-independent order; empty when the
    /// experiment ran untraced or records no telemetry.
    pub cells: Vec<TracedCell>,
}

impl Output {
    /// Adds `fig` as `<name>.csv`.
    #[must_use]
    pub fn figure(self, name: &str, fig: &Figure) -> Self {
        self.file(format!("{name}.csv"), fig.to_csv())
    }

    /// Adds a rendered table as `<name>.txt`.
    #[must_use]
    pub fn text(self, name: &str, text: String) -> Self {
        self.file(format!("{name}.txt"), text)
    }

    /// Adds `bytes` as the file `file`.
    #[must_use]
    pub fn file(mut self, file: String, bytes: String) -> Self {
        self.artifacts.push((file, bytes));
        self
    }

    /// Attaches the experiment's traced cells.
    #[must_use]
    pub fn traced(mut self, cells: Vec<TracedCell>) -> Self {
        self.cells = cells;
        self
    }
}

/// Renders traced cells, in order, as one Chrome trace (one process per
/// recorded cell) and their merged metrics.
#[must_use]
pub fn render_traced(cells: &[TracedCell]) -> (String, MetricsSnapshot) {
    let mut ct = ChromeTrace::new();
    for (label, rec) in cells {
        if let Some(rec) = rec {
            ct.add_cell(label, rec);
        }
    }
    let metrics = Recorder::merge_metrics(cells.iter().filter_map(|(_, r)| r.as_deref()));
    (ct.render(), metrics)
}

/// Formats rows as an aligned text table with a header row.
#[must_use]
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let header_cells: Vec<String> = header.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        // Columns align: "value"/"1"/"22" start at the same offset.
        let col = lines[0].find("value").unwrap();
        assert_eq!(lines[2].chars().nth(col), Some('1'));
        assert_eq!(lines[3].chars().nth(col), Some('2'));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = format_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
