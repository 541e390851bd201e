//! Plain-text tables printed by the experiments, plus a machine-readable
//! JSON emitter so the performance trajectory can be tracked across PRs.

use std::fmt;
use std::io::Write;
use std::path::PathBuf;

/// A simple fixed-width table with a title, matching one table or one data
/// series of a paper figure.
#[derive(Debug, Clone)]
pub struct Table {
    /// Title, e.g. `"Table 2: single-tier vs multi-tier"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn add_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Find a cell by row label (first column) and column header.
    pub fn cell(&self, row_label: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        self.rows
            .iter()
            .find(|r| r.first().map(String::as_str) == Some(row_label))
            .and_then(|r| r.get(col))
            .map(String::as_str)
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{self}");
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i >= widths.len() {
                    widths.push(cell.len());
                } else {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        writeln!(f, "\n=== {} ===", self.title)?;
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:<width$}", width = widths[i]))
            .collect();
        writeln!(f, "{}", header.join("  "))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    format!(
                        "{c:<width$}",
                        width = widths.get(i).copied().unwrap_or(c.len())
                    )
                })
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Table {
    /// Serialise the table as a JSON object (`title`, `headers`, `rows`).
    pub fn to_json(&self) -> String {
        let headers: Vec<String> = self
            .headers
            .iter()
            .map(|h| format!("\"{}\"", json_escape(h)))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row
                    .iter()
                    .map(|c| format!("\"{}\"", json_escape(c)))
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"title\":\"{}\",\"headers\":[{}],\"rows\":[{}]}}",
            json_escape(&self.title),
            headers.join(","),
            rows.join(",")
        )
    }
}

/// Directory benchmark JSON files are written to: `$PRISM_BENCH_OUT` if
/// set, otherwise the workspace root (so results land next to the code
/// they measure regardless of the invoking working directory).
pub fn bench_output_dir() -> PathBuf {
    match std::env::var("PRISM_BENCH_OUT") {
        Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

/// Write `tables` as `BENCH_<name>.json` (machine-readable: ops/s and
/// stall columns stay exactly as printed) into [`bench_output_dir`].
/// Returns the path written, or `None` if the write failed (benchmarks
/// must not abort because the output directory is read-only).
pub fn write_bench_json(name: &str, tables: &[Table]) -> Option<PathBuf> {
    let path = bench_output_dir().join(format!("BENCH_{name}.json"));
    let body: Vec<String> = tables.iter().map(Table::to_json).collect();
    let doc = format!(
        "{{\"benchmark\":\"{}\",\"tables\":[{}]}}\n",
        json_escape(name),
        body.join(",")
    );
    let result = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match result {
        Ok(()) => {
            println!("wrote {}", path.display());
            Some(path)
        }
        Err(err) => {
            eprintln!("could not write {}: {err}", path.display());
            None
        }
    }
}

/// One line of the consolidated cross-sweep summary: the best
/// configuration of one sweep and its throughput. Every sweep appends its
/// entry to `BENCH_summary.json` via [`update_bench_summary`], so the
/// perf trajectory is machine-readable across PRs without knowing each
/// sweep's own table schema.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryEntry {
    /// Sweep name (the `BENCH_<name>.json` stem).
    pub sweep: String,
    /// Row label of the best configuration.
    pub best_config: String,
    /// Its throughput in thousands of operations per simulated second.
    pub throughput_kops: f64,
    /// Keys loaded for the sweep (the `Scale::record_count`). Entries
    /// regenerated at different scales (e.g. a CI quick run refreshing
    /// one sweep of a default-scale file) stay comparable because each
    /// line records the scale it was measured at.
    pub record_count: u64,
}

impl SummaryEntry {
    /// The best row of a sweep table: the row whose `kops_column` cell
    /// parses to the highest value, labelled by its first column.
    /// `None` if no row has a parseable throughput.
    pub fn best_of(
        sweep: &str,
        table: &Table,
        kops_column: &str,
        record_count: u64,
    ) -> Option<SummaryEntry> {
        let col = table.headers.iter().position(|h| h == kops_column)?;
        let mut best: Option<(f64, &str)> = None;
        for row in &table.rows {
            let (Some(label), Some(cell)) = (row.first(), row.get(col)) else {
                continue;
            };
            let Ok(kops) = cell.parse::<f64>() else {
                continue;
            };
            if best.is_none_or(|(b, _)| kops > b) {
                best = Some((kops, label));
            }
        }
        best.map(|(kops, label)| SummaryEntry {
            sweep: sweep.to_string(),
            best_config: label.to_string(),
            throughput_kops: kops,
            record_count,
        })
    }

    fn to_json_line(&self) -> String {
        format!(
            "{{\"sweep\":\"{}\",\"best_config\":\"{}\",\"throughput_kops\":{:.3},\"record_count\":{}}}",
            json_escape(&self.sweep),
            json_escape(&self.best_config),
            self.throughput_kops,
            self.record_count
        )
    }
}

/// Read-modify-write `BENCH_summary.json` in `dir`: replace the entry of
/// `entry.sweep` (each sweep owns one line) and keep every other sweep's
/// line, so independently-run bench targets build up one consolidated
/// file. The file is deliberately line-structured — one entry object per
/// line inside the `summary` array — so this update needs no JSON parser.
/// Returns the path written, or `None` if the write failed.
pub fn update_bench_summary_in(dir: &std::path::Path, entry: &SummaryEntry) -> Option<PathBuf> {
    let path = dir.join("BENCH_summary.json");
    let mut lines: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        let owned_prefix = format!("{{\"sweep\":\"{}\"", json_escape(&entry.sweep));
        for line in existing.lines() {
            let trimmed = line.trim().trim_end_matches(',');
            if trimmed.starts_with("{\"sweep\":") && !trimmed.starts_with(&owned_prefix) {
                lines.push(trimmed.to_string());
            }
        }
    }
    lines.push(entry.to_json_line());
    lines.sort();
    let doc = format!("{{\"summary\":[\n{}\n]}}\n", lines.join(",\n"));
    let result = std::fs::File::create(&path).and_then(|mut f| f.write_all(doc.as_bytes()));
    match result {
        Ok(()) => {
            println!("updated {}", path.display());
            Some(path)
        }
        Err(err) => {
            eprintln!("could not write {}: {err}", path.display());
            None
        }
    }
}

/// [`update_bench_summary_in`] on [`bench_output_dir`].
pub fn update_bench_summary(entry: &SummaryEntry) -> Option<PathBuf> {
    update_bench_summary_in(&bench_output_dir(), entry)
}

/// Format a float with a sensible number of decimals for tables.
pub fn fmt_f64(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else if value >= 1.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_layout_and_lookup() {
        let mut table = Table::new("Demo", &["engine", "tput", "cost"]);
        table.add_row(vec!["prismdb".into(), "184".into(), "0.3".into()]);
        table.add_row(vec!["rocksdb".into(), "93".into(), "0.3".into()]);
        assert_eq!(table.row_count(), 2);
        assert_eq!(table.cell("prismdb", "tput"), Some("184"));
        assert_eq!(table.cell("rocksdb", "cost"), Some("0.3"));
        assert_eq!(table.cell("nope", "tput"), None);
        assert_eq!(table.cell("prismdb", "nope"), None);
        let rendered = format!("{table}");
        assert!(rendered.contains("=== Demo ==="));
        assert!(rendered.contains("prismdb"));
    }

    #[test]
    fn summary_best_of_picks_the_fastest_row() {
        let mut table = Table::new("Sweep", &["config", "Kops/s"]);
        table.add_row(vec!["a/t1".into(), "10.5".into()]);
        table.add_row(vec!["a/t4".into(), "41.2".into()]);
        table.add_row(vec!["broken".into(), "n/a".into()]);
        let entry = SummaryEntry::best_of("demo", &table, "Kops/s", 8_000).unwrap();
        assert_eq!(entry.best_config, "a/t4");
        assert!((entry.throughput_kops - 41.2).abs() < 1e-9);
        assert_eq!(entry.record_count, 8_000);
        assert!(SummaryEntry::best_of("demo", &table, "missing", 8_000).is_none());
    }

    #[test]
    fn summary_updates_merge_across_sweeps() {
        let dir = std::env::temp_dir().join(format!("prism-summary-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |sweep: &str, config: &str, kops: f64| {
            update_bench_summary_in(
                &dir,
                &SummaryEntry {
                    sweep: sweep.into(),
                    best_config: config.into(),
                    throughput_kops: kops,
                    record_count: 8_000,
                },
            )
            .expect("summary written")
        };
        let path = write("write_batching", "ycsb-a/t4/b64", 132.0);
        write("scalability", "8", 111.0);
        // Re-running a sweep replaces only its own entry.
        let path2 = write("write_batching", "ycsb-a/t4/b8", 140.5);
        assert_eq!(path, path2);
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"summary\":["));
        assert!(body.contains("\"sweep\":\"scalability\""));
        assert!(body.contains("\"best_config\":\"ycsb-a/t4/b8\""));
        assert!(body.contains("\"record_count\":8000"));
        assert!(
            !body.contains("ycsb-a/t4/b64"),
            "a sweep's old entry must be replaced, not duplicated"
        );
        assert_eq!(
            body.lines()
                .filter(|l| l.trim().starts_with("{\"sweep\":"))
                .count(),
            2
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(1234.5), "1234");
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(0.1234), "0.123");
    }
}
