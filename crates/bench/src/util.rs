//! Harness utilities: scaling, result matrices, rendering, TSV output.

use std::fmt::Write as _;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI-sized: seconds per experiment.
    Quick,
    /// Paper-shaped: minutes for the full set.
    Full,
}

impl Scale {
    /// Reads `CKI_BENCH_SCALE` (`quick`/`full`); `None` when it is unset.
    ///
    /// # Errors
    ///
    /// Any other value is rejected rather than silently run at full scale.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("CKI_BENCH_SCALE") {
            Err(std::env::VarError::NotPresent) => Ok(None),
            Ok(v) => Self::parse(&v).map(Some),
            Err(e) => Err(format!("CKI_BENCH_SCALE: {e}")),
        }
    }

    /// Parses `quick` or `full`.
    ///
    /// # Errors
    ///
    /// Names the accepted values for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            _ => Err(format!(
                "CKI_BENCH_SCALE must be `quick` or `full`, not `{s}`"
            )),
        }
    }

    /// The spelling [`Scale::parse`] accepts, as recorded in result files.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Scales a nominal full-size count down for quick runs.
    pub fn n(&self, full: u64) -> u64 {
        match self {
            Scale::Quick => (full / 8).max(64),
            Scale::Full => full,
        }
    }
}

/// A labelled result matrix: rows (e.g. workloads) × columns (e.g.
/// backends), plus units — the common shape of the paper's figures.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// Title (e.g. "Figure 12: memory-intensive latency").
    pub title: String,
    /// Unit of the cell values.
    pub unit: String,
    /// Column labels.
    pub cols: Vec<String>,
    /// Row labels.
    pub rows: Vec<String>,
    /// `data[row][col]`.
    pub data: Vec<Vec<f64>>,
}

impl Matrix {
    /// Creates an empty matrix with the given shape.
    pub fn new(title: &str, unit: &str, cols: &[&str]) -> Self {
        Self {
            title: title.to_owned(),
            unit: unit.to_owned(),
            cols: cols.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the column count.
    pub fn push_row(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.cols.len(), "row width mismatch");
        self.rows.push(label.to_owned());
        self.data.push(values);
    }

    /// Returns a copy normalized per row to the named column (that column
    /// becomes 1.0) — how the paper plots Figures 4/5/11/12/14.
    pub fn normalized_to(&self, col: &str) -> Matrix {
        let idx = position(&self.cols, col);
        let mut out = self.clone();
        out.unit = format!("normalized to {col}");
        for row in &mut out.data {
            let base = row[idx];
            for v in row.iter_mut() {
                *v = if base == 0.0 { 0.0 } else { *v / base };
            }
        }
        out
    }

    /// Cell accessor by labels.
    pub fn get(&self, row: &str, col: &str) -> f64 {
        self.data[position(&self.rows, row)][position(&self.cols, col)]
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== {} [{}]", self.title, self.unit);
        let w0 = self.rows.iter().map(|r| r.len()).max().unwrap_or(4).max(4);
        let _ = write!(s, "{:w0$}", "");
        for c in &self.cols {
            let _ = write!(s, " {:>12}", c);
        }
        let _ = writeln!(s);
        for (label, row) in self.rows.iter().zip(&self.data) {
            let _ = write!(s, "{label:w0$}");
            for &v in row {
                let _ = match v {
                    _ if v == 0.0 => write!(s, " {:>12}", "-"),
                    _ if v.abs() >= 1000.0 => write!(s, " {v:>12.0}"),
                    _ => write!(s, " {v:>12.3}"),
                };
            }
            let _ = writeln!(s);
        }
        s
    }

    /// Renders the matrix as one JSON object (title, unit, cols, rows,
    /// data) for the machine-readable `results/run_all.json` summary.
    pub fn to_json(&self) -> String {
        use obs::export::json_escape;
        let join = |items: Vec<String>| items.join(",");
        let strings = |items: &[String]| {
            join(
                items
                    .iter()
                    .map(|i| format!("\"{}\"", json_escape(i)))
                    .collect(),
            )
        };
        let cell = |v: &f64| match v.is_finite() {
            true => v.to_string(),
            false => "null".to_owned(),
        };
        let rows = self
            .data
            .iter()
            .map(|r| format!("[{}]", join(r.iter().map(cell).collect())));
        format!(
            "{{\"title\":\"{}\",\"unit\":\"{}\",\"cols\":[{}],\"rows\":[{}],\"data\":[{}]}}",
            json_escape(&self.title),
            json_escape(&self.unit),
            strings(&self.cols),
            strings(&self.rows),
            join(rows.collect())
        )
    }

    /// Renders the matrix as a TSV document: a `# title [unit]` line, a
    /// header row, then one line per row with raw values.
    pub fn tsv(&self) -> String {
        let mut s = String::new();
        let _ = write!(s, "# {} [{}]\nrow", self.title, self.unit);
        for c in &self.cols {
            let _ = write!(s, "\t{c}");
        }
        let _ = writeln!(s);
        for (label, row) in self.rows.iter().zip(&self.data) {
            let _ = write!(s, "{label}");
            for v in row {
                let _ = write!(s, "\t{v}");
            }
            let _ = writeln!(s);
        }
        s
    }
}

/// Index of `label` in `labels`.
///
/// # Panics
///
/// Panics if it is absent.
fn position(labels: &[String], label: &str) -> usize {
    labels
        .iter()
        .position(|x| x == label)
        .unwrap_or_else(|| panic!("no row or column {label}"))
}

/// Capture window for per-experiment metrics snapshots.
///
/// Experiment functions boot stacks internally and return only their
/// outcome, so the runner cannot reach the registries afterwards. Instead,
/// each measurement helper publishes its finished stack's snapshot here;
/// `repro` brackets every experiment with [`sink::begin`] / [`sink::end`]
/// and `repro all` embeds the result in `results/run_all.json`. Outside a
/// window, recording is a no-op, so tests pay nothing.
pub mod sink {
    use std::cell::RefCell;

    use obs::MetricsSnapshot;

    thread_local! {
        static ACTIVE: RefCell<Option<Vec<(String, MetricsSnapshot)>>> =
            const { RefCell::new(None) };
    }

    /// Opens a capture window (discarding any previous one).
    pub fn begin() {
        ACTIVE.with(|a| *a.borrow_mut() = Some(Vec::new()));
    }

    /// Publishes one stack's snapshot under `tag` (usually the backend
    /// name). No-op outside a window.
    pub fn record(tag: &str, snapshot: MetricsSnapshot) {
        ACTIVE.with(|a| {
            if let Some(v) = a.borrow_mut().as_mut() {
                v.push((tag.to_owned(), snapshot));
            }
        });
    }

    /// Closes the window, returning the snapshots merged per tag (an
    /// experiment that boots a backend several times yields one summed
    /// snapshot for it), in first-recorded order.
    pub fn end() -> Vec<(String, MetricsSnapshot)> {
        let raw = ACTIVE.with(|a| a.borrow_mut().take()).unwrap_or_default();
        let mut merged: Vec<(String, MetricsSnapshot)> = Vec::new();
        for (tag, snap) in raw {
            match merged.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, m)) => *m = m.merge(&snap),
                None => merged.push((tag, snap)),
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_and_get() {
        let mut m = Matrix::new("t", "ns", &["RunC", "CKI"]);
        m.push_row("a", vec![100.0, 110.0]);
        m.push_row("b", vec![200.0, 500.0]);
        assert_eq!(m.get("b", "CKI"), 500.0);
        let n = m.normalized_to("RunC");
        assert!((n.get("a", "CKI") - 1.1).abs() < 1e-12);
        assert!((n.get("b", "CKI") - 2.5).abs() < 1e-12);
        assert_eq!(n.get("a", "RunC"), 1.0);
    }

    #[test]
    fn render_contains_everything() {
        let mut m = Matrix::new("Demo", "ns", &["A"]);
        m.push_row("row1", vec![1234.5]);
        let out = m.render();
        assert!(out.contains("Demo"), "{out}");
        assert!(out.contains("row1"), "{out}");
        assert!(out.contains("1234") || out.contains("1235"), "{out}");
    }

    #[test]
    fn to_json_is_balanced_and_complete() {
        let mut m = Matrix::new("Fig \"X\"", "ns", &["RunC", "CKI"]);
        m.push_row("a", vec![100.0, 110.5]);
        let json = m.to_json();
        assert!(obs::export::json_balanced(&json));
        assert!(json.contains("\"Fig \\\"X\\\"\""));
        assert!(json.contains("\"cols\":[\"RunC\",\"CKI\"]"));
        assert!(json.contains("\"data\":[[100,110.5]]"));
    }

    #[test]
    fn sink_merges_per_tag() {
        let mut r = obs::MetricsRegistry::new();
        let c = r.counter("x");
        r.add(c, 2);
        // No window: recording is dropped.
        sink::record("CKI", r.snapshot());
        assert!(sink::end().is_empty());
        sink::begin();
        sink::record("CKI", r.snapshot());
        r.add(c, 3);
        sink::record("CKI", r.snapshot());
        sink::record("PVM", r.snapshot());
        let out = sink::end();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, "CKI");
        assert_eq!(out[0].1.get("x"), 7, "2 + 5 merged");
        assert_eq!(out[1].1.get("x"), 5);
    }

    #[test]
    fn scale_quick_shrinks() {
        assert_eq!(Scale::Full.n(10_000), 10_000);
        assert_eq!(Scale::Quick.n(10_000), 1250);
        assert_eq!(Scale::Quick.n(100), 64);
    }

    #[test]
    fn scale_parse_round_trips_and_rejects_the_rest() {
        for s in [Scale::Quick, Scale::Full] {
            assert_eq!(Scale::parse(s.name()), Ok(s));
        }
        for bad in ["", "Quick", "fast", "full "] {
            let err = Scale::parse(bad).unwrap_err();
            assert!(err.contains("`quick` or `full`"), "{err}");
        }
    }
}
