//! Plain-text table rendering for the experiment binaries (the moral
//! equivalent of the paper's gnuplot data files, plus aligned tables for
//! humans).

use std::fmt::Write as _;

/// A column-aligned table: one row label per row, one column per series.
pub struct Table {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    pub fn new(title: impl Into<String>, x_label: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            x_label: x_label.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        let cells_len = cells.len();
        assert_eq!(cells_len, self.columns.len(), "row width mismatch");
        self.rows.push((label.into(), cells));
    }

    /// Formats a mean ± 95% CI cell.
    pub fn cell(mean: f64, ci: f64) -> String {
        format!("{mean:8.2} ±{ci:5.2}")
    }

    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let mut label_w = self.x_label.len();
        for (label, cells) in &self.rows {
            label_w = label_w.max(label.len());
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = write!(out, "{:>label_w$}", self.x_label);
        for (c, w) in self.columns.iter().zip(&widths) {
            let _ = write!(out, "  {c:>w$}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:>label_w$}");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(out, "  {c:>w$}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Gnuplot-friendly data block (numbers only; columns separated by
    /// whitespace, `#`-prefixed header).
    pub fn render_dat(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# {} | {} {}",
            self.title,
            self.x_label,
            self.columns.join(" ")
        );
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label}");
            for c in cells {
                // Strip the "± ci" decoration for machine consumption.
                let value = c.split('±').next().unwrap_or(c).trim();
                let _ = write!(out, " {value}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

/// Tiny argv parser for the experiment binaries: `--key value` pairs and
/// flags. Unknown keys abort with a usage message.
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    pub fn parse(allowed: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = argv[i]
                .strip_prefix("--")
                .unwrap_or_else(|| die(&format!("unexpected argument {}", argv[i]), allowed));
            if !allowed.contains(&key) {
                die(&format!("unknown option --{key}"), allowed);
            }
            let value = argv
                .get(i + 1)
                .unwrap_or_else(|| die(&format!("--{key} needs a value"), allowed));
            pairs.push((key.to_string(), value.clone()));
            i += 2;
        }
        Args { pairs }
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| die(&format!("invalid value for --{key}: {v}"), &[])),
        }
    }
}

/// Prints `error: msg` and, when `allowed` is non-empty, a usage line to
/// stderr, then exits with status 2.
pub(crate) fn die(msg: &str, allowed: &[&str]) -> ! {
    eprintln!("error: {msg}");
    if !allowed.is_empty() {
        eprintln!(
            "usage: [{}]",
            allowed
                .iter()
                .map(|a| format!("--{a} <v>"))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("Tree cost", "receivers", &["HBH", "REUNITE"]);
        t.row("2", vec!["10.00".into(), "11.00".into()]);
        t.row("16", vec!["100.00".into(), "118.00".into()]);
        let s = t.render();
        assert!(s.contains("# Tree cost"));
        assert!(s.contains("HBH"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].len(), lines[2].len(), "columns aligned");
    }

    #[test]
    fn dat_strips_ci() {
        let mut t = Table::new("x", "n", &["a"]);
        t.row("1", vec![Table::cell(3.5, 0.2)]);
        let dat = t.render_dat();
        assert!(dat.contains("1 3.50"), "{dat}");
        assert!(!dat.contains('±'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", "n", &["a", "b"]);
        t.row("1", vec!["only-one".into()]);
    }
}
