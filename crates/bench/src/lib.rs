//! Benchmark host crate. The Criterion benches live in `benches/`:
//!
//! * `figures` — one bench per paper figure (7a, 7b, 8a, 8b at reduced
//!   run counts; the full-scale tables come from the `fig7`/`fig8`
//!   binaries of `hbh-experiments`);
//! * `ablations` — stability, asymmetry sweep, unicast clouds, timers,
//!   overhead;
//! * `microbench` — the hot paths under everything: Dijkstra/all-pairs
//!   routing, the event kernel, one full converge-and-probe run per
//!   protocol.
//!
//! The library itself holds the one thing the `bench_*` binaries share:
//! how a run's record reaches its `--out` file.

use std::io;
use std::path::Path;

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
    use super::append_history;

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
