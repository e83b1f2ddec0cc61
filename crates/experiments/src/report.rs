//! What `hbh-exp` is made of below the experiment table: plain-text
//! table rendering (the moral equivalent of the paper's gnuplot data
//! files, plus aligned tables for humans), the argv parser, the
//! [`Report`] every experiment returns, and the history-file and peak-RSS
//! plumbing behind the sweeps' `--out` flag.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A column-aligned table: one row label per row, one column per series.
pub struct Table {
    title: String,
    x_label: String,
    columns: Vec<String>,
    rows: Vec<(String, Vec<String>)>,
}

impl Table {
    pub fn new<C: AsRef<str>>(
        title: impl Into<String>,
        x_label: impl Into<String>,
        columns: &[C],
    ) -> Self {
        Table {
            title: title.into(),
            x_label: x_label.into(),
            columns: columns.iter().map(|c| c.as_ref().to_string()).collect(),
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

/// Tiny argv parser for `hbh-exp` and `hbh_bench`: `--key
/// value` pairs. Unknown keys are usage errors (exit 2).
pub struct Args {
    pairs: Vec<(String, String)>,
    allowed: Vec<String>,
}

impl Args {
    pub fn parse(allowed: &[&str]) -> Args {
        Args::parse_from(std::env::args().skip(1), allowed)
    }

    /// [`Args::parse`] over an explicit argument list: `hbh-exp` parses
    /// what follows the experiment name, `hbh-exp all` each results
    /// file's pinned argv.
    pub fn parse_from(argv: impl IntoIterator<Item = String>, allowed: &[&str]) -> Args {
        let mut args = Args {
            pairs: Vec::new(),
            allowed: allowed.iter().map(|a| a.to_string()).collect(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let Some(key) = arg.strip_prefix("--") else {
                args.die(&format!("unexpected argument {arg}"))
            };
            if !allowed.contains(&key) {
                args.die(&format!("unknown option --{key}"));
            }
            let Some(value) = argv.next() else {
                args.die(&format!("--{key} needs a value"))
            };
            args.pairs.push((key.to_string(), value));
        }
        args
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
                .unwrap_or_else(|_| self.die(&format!("invalid value for --{key}: {v}"))),
        }
    }

    /// [`die`], followed by the usage line of the flags this parse allowed.
    pub fn die(&self, msg: &str) -> ! {
        let flags: Vec<String> = self.allowed.iter().map(|a| format!("--{a} <v>")).collect();
        die(&format!("{msg}\nusage: [{}]", flags.join(" ")))
    }
}

/// Prints `error: msg` to stderr and exits with status 2: the one way a
/// bad argument, an unwritable `--out` file or a missing directory ends a
/// run.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// What one experiment hands back to `hbh-exp`, which alone decides where
/// it goes: stdout for `hbh-exp <name>`, `results/` for `hbh-exp all`.
pub struct Report {
    /// Exactly what `hbh-exp <name>` prints on stdout.
    pub text: String,
    /// Machine-readable twin that `hbh-exp all` writes beside the text
    /// file (churn only).
    pub json: Option<String>,
    /// Why the run exits 1 — unserved receivers, unrecovered trees; empty
    /// when healthy.
    pub failures: Vec<String>,
}

impl Report {
    /// The shape most figures print: each table aligned for humans, then
    /// as a gnuplot block, a blank line after either.
    pub fn tables(tables: &[Table]) -> Report {
        let mut text = String::new();
        for t in tables {
            let _ = write!(text, "{}\n{}\n", t.render(), t.render_dat());
        }
        Report {
            text,
            json: None,
            failures: Vec::new(),
        }
    }
}

/// Peak resident set of this process in kB, from `/proc/self/status`
/// (`VmHWM`). Linux-only; 0 where the file or field is missing.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// Appends `record` — one rendered JSON object — to the `history` array
/// of the file at `path`, oldest first, so the committed `BENCH_*.json`
/// grow a trajectory instead of being overwritten or assembled by hand.
/// A missing or empty file becomes `{"history": [record]}`; a file
/// holding one bare record (what `--out` wrote before) keeps it as the
/// array's first element.
pub fn append_history(path: impl AsRef<Path>, record: &str) -> io::Result<()> {
    let record = record.trim_end();
    let existing = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    let body = existing.trim();
    let earlier = match body.strip_prefix("{\"history\": [") {
        Some(rest) => rest
            .strip_suffix("]}")
            .ok_or_else(|| io::Error::other("history array is not closed by `]}`"))?
            .trim(),
        None => body,
    };
    let sep = if earlier.is_empty() { "" } else { ",\n" };
    std::fs::write(
        path,
        format!("{{\"history\": [\n{earlier}{sep}{record}\n]}}\n"),
    )
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

    #[test]
    fn out_file_grows_a_history_array() {
        let path = std::env::temp_dir().join(format!("hbh_history_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_history(&path, "{\n  \"run\": 1\n}\n").unwrap();
        let one = "{\"history\": [\n{\n  \"run\": 1\n}\n]}\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), one);
        append_history(&path, "{\"run\": 2}").unwrap();
        let two = "{\"history\": [\n{\n  \"run\": 1\n},\n{\"run\": 2}\n]}\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), two);
        // A bare record from before the history format is kept, first.
        std::fs::write(&path, "{\"run\": 0}\n").unwrap();
        append_history(&path, "{\"run\": 1}").unwrap();
        let wrapped = "{\"history\": [\n{\"run\": 0},\n{\"run\": 1}\n]}\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), wrapped);
        // Anything else is refused rather than mangled.
        std::fs::write(&path, "{\"history\": [\n{\"run\": 0}\n").unwrap();
        assert!(append_history(&path, "{\"run\": 1}").is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
