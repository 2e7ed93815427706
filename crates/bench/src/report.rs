//! Result output: CSV figures and aligned text tables under `results/`,
//! and the Chrome trace plus metrics of a traced experiment.

use simnet::telemetry::{ChromeTrace, MetricsSnapshot, Recorder};
use simnet::trace::Figure;
use std::fs;
use std::path::PathBuf;

/// The repository `results/` directory (created on demand).
///
/// Overridable with `TANGO_RESULTS_DIR`, so determinism checks can run
/// the same experiments into two separate directories and diff them.
#[must_use]
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var_os("TANGO_RESULTS_DIR") {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
            .join("results"),
    };
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a figure as `results/<name>.csv` and returns the path.
pub fn write_figure(name: &str, fig: &Figure) -> PathBuf {
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, fig.to_csv()).expect("write figure");
    path
}

/// Writes a text report as `results/<name>.txt` and returns the path.
pub fn write_text(name: &str, text: &str) -> PathBuf {
    let path = results_dir().join(format!("{name}.txt"));
    fs::write(&path, text).expect("write text");
    path
}

/// One traced experiment cell: its trace-process label and (when tracing
/// was on) its recorder.
pub type TracedCell = (String, Option<Box<Recorder>>);

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
