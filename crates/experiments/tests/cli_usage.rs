//! Bad argv is a usage error (exit 2, `error: …` on stderr), never a
//! panic and never a table of zeros.

use std::process::Command;

#[test]
fn bad_arguments_exit_2_without_panicking() {
    for argv in [
        &["--topo", "bogus"][..],
        &["--threads", "x"],
        &["--topo", "isp", "--runs", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig7"))
            .args(argv)
            .output()
            .expect("fig7 runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(stderr.starts_with("error:"), "{argv:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?} printed a report");
    }
}
