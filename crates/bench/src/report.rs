//! Report rendering: aligned text tables and JSON artifacts.

use mce_obs::json::{self, ToJson};
use std::fs;
use std::path::PathBuf;

/// Renders rows as an aligned text table with a header row.
///
/// ```
/// let t = mce_bench::render_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
/// );
/// assert!(t.contains("name"));
/// assert!(t.lines().count() >= 4);
/// ```
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_owned()
    };
    let mut out = String::new();
    out.push_str(&line(header.iter().map(|s| s.to_string()).collect()));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row.clone()));
        out.push('\n');
    }
    out
}

/// Writes a JSON artifact for experiment `id` under `target/experiments/`,
/// returning the written path.
///
/// # Errors
///
/// Returns any I/O or serialization error.
pub fn write_json_artifact<T: ToJson>(
    id: &str,
    data: &T,
) -> Result<PathBuf, Box<dyn std::error::Error>> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.json"));
    fs::write(&path, json::to_string_pretty(data))?;
    Ok(path)
}

/// Renders a 2-D scatter as ASCII art, `width × height` characters plus
/// axes. Points marked `'*'` are highlighted (e.g. the pareto front) and
/// win over plain `'.'` points sharing a cell. Both axes are linear and
/// auto-scaled to the data range; Y grows upward.
///
/// ```
/// let plot = mce_bench::render_scatter(
///     &[(1.0, 1.0, false), (2.0, 2.0, true), (3.0, 1.5, false)],
///     20,
///     8,
///     "cost",
///     "latency",
/// );
/// assert!(plot.contains('*'));
/// assert!(plot.contains("cost"));
/// ```
pub fn render_scatter(
    points: &[(f64, f64, bool)],
    width: usize,
    height: usize,
    x_label: &str,
    y_label: &str,
) -> String {
    if points.is_empty() || width < 2 || height < 2 {
        return String::from("(no data)\n");
    }
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y, _) in points {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    let x_span = (x_max - x_min).max(f64::EPSILON);
    let y_span = (y_max - y_min).max(f64::EPSILON);
    let mut grid = vec![vec![' '; width]; height];
    for &(x, y, highlight) in points {
        let cx = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
        let cy = (((y - y_min) / y_span) * (height - 1) as f64).round() as usize;
        let row = height - 1 - cy; // y grows upward
        let cell = &mut grid[row][cx];
        if highlight {
            *cell = '*';
        } else if *cell != '*' {
            *cell = '.';
        }
    }
    let mut out = format!("{y_label} ({y_min:.2} .. {y_max:.2})\n");
    for row in &grid {
        out.push('|');
        out.extend(row.iter());
        out.push('\n');
    }
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(" {x_label} ({x_min:.0} .. {x_max:.0})\n"));
    out
}

/// Writes a gnuplot-ready whitespace-separated data file for experiment
/// `id` under `target/experiments/`, returning the written path. `columns`
/// become a `#`-prefixed header line.
///
/// # Errors
///
/// Returns any I/O error.
pub fn write_dat_artifact(
    id: &str,
    columns: &[&str],
    rows: &[Vec<f64>],
) -> Result<PathBuf, Box<dyn std::error::Error>> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{id}.dat"));
    let mut body = format!("# {}\n", columns.join(" "));
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        body.push_str(&line.join(" "));
        body.push('\n');
    }
    fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["xxxx".into(), "y".into()],
                vec!["z".into(), "w".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // Second column starts at the same offset on every row.
        let col = lines[0].find("bbbb").unwrap();
        assert_eq!(&lines[2][col..col + 1], "y");
        assert_eq!(&lines[3][col..col + 1], "w");
    }

    #[test]
    fn scatter_places_extremes() {
        let plot = render_scatter(&[(0.0, 0.0, false), (10.0, 10.0, true)], 10, 5, "x", "y");
        let lines: Vec<&str> = plot.lines().collect();
        // Highlighted max-y point lands on the top grid row; min on bottom.
        assert!(lines[1].contains('*'), "{plot}");
        assert!(lines[5].contains('.'), "{plot}");
    }

    #[test]
    fn scatter_handles_degenerate_input() {
        assert!(render_scatter(&[], 10, 5, "x", "y").contains("no data"));
        let single = render_scatter(&[(1.0, 1.0, true)], 10, 5, "x", "y");
        assert!(single.contains('*'));
    }

    #[test]
    fn dat_artifact_has_header_and_rows() {
        let p = write_dat_artifact(
            "test_dat",
            &["cost", "latency"],
            &[vec![1.0, 2.5], vec![3.0, 4.5]],
        )
        .unwrap();
        let body = std::fs::read_to_string(p).unwrap();
        assert!(body.starts_with("# cost latency\n"));
        assert_eq!(body.lines().count(), 3);
    }

    #[test]
    fn artifacts_round_trip() {
        use crate::experiments::Table1Row;
        let row = Table1Row {
            cost_gates: 42,
            latency_cycles: 1.5,
            energy_nj: 0.25,
        };
        let p = write_json_artifact("test_artifact", &row).unwrap();
        let body = std::fs::read_to_string(p).unwrap();
        assert_eq!(json::from_str::<Table1Row>(&body), Ok(row));
    }
}
