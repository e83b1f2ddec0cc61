//! `hbh-exp` at its command line. Bad argv — an out-of-range value
//! included — is a usage error (exit 2, `error: …` on stderr), never a
//! panic and never a table of zeros — on every row of the table. And `results/` is what the code prints:
//! `hbh-exp all --check 1` regenerates every file in memory and compares
//! bytes (a file there that no row owns fails it too), a gate that is
//! sound on any runner only because a report does not depend on the
//! worker count, which is pinned here too.

use hbh_experiments::registry::EXPERIMENTS;
use std::path::Path;
use std::process::{Command, Output};

/// Runs `hbh-exp` on a whitespace-separated command line.
fn hbh_exp_in(dir: &Path, command_line: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbh-exp"))
        .args(command_line.split_whitespace())
        .current_dir(dir)
        .output()
        .expect("hbh-exp runs")
}

fn hbh_exp(command_line: &str) -> Output {
    hbh_exp_in(Path::new("."), command_line)
}

/// Asserts `argv` ends in a usage error and returns what it said.
fn usage_error(argv: &str) -> String {
    let out = hbh_exp(argv);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{argv}: {stderr}");
    assert!(!stderr.contains("panicked"), "{argv}: {stderr}");
    assert!(out.stdout.is_empty(), "{argv} printed a report");
    stderr
}

/// A usage error before anything ran, naming what was wrong.
fn assert_bad_argv(argv: &str, names: &str) {
    let stderr = usage_error(argv);
    assert!(stderr.starts_with("error:"), "{argv}: {stderr}");
    assert!(stderr.contains(names), "{argv}: {stderr}");
}

#[test]
fn bad_arguments_exit_2_without_panicking() {
    for exp in EXPERIMENTS {
        // A flag the row does not take is as much a usage error as a bad
        // value for one it does, so all four apply to every row.
        for bad in [
            "--topo bogus",
            "--runs 0",
            "--threads x",
            "--no-such-flag 1",
        ] {
            let flag = bad.split(' ').next().unwrap();
            assert_bad_argv(&format!("{} {bad}", exp.name), flag);
        }
        // `--check` is `all`'s alone: no row judges its own numbers.
        let argv = format!("{} --check x", exp.name);
        assert_bad_argv(&argv, "unknown option --check");
    }
    assert_bad_argv("no_such_experiment", "no_such_experiment");
    assert_bad_argv("", "usage: hbh-exp");
    assert_bad_argv("all --check maybe", "--check");
    assert_bad_argv("fig7 --threads 0", "--threads must be at least 1");
}

#[test]
fn out_of_range_values_exit_2_naming_the_flag_and_the_bound() {
    // Each of these reached a library `assert!` (exit 101) before the
    // bounds were checked where the flags are read.
    for (argv, flag, bound) in [
        ("stability --group 99", "--group", "17"),
        ("asymmetry --group 99", "--group", "17"),
        ("qos --group 99", "--group", "17"),
        ("qos --minbw 0", "--minbw", "1"),
        ("qos --minbw 11", "--minbw", "10"),
        ("inspect --group 99", "--group", "17"),
        ("stability --group 0", "--group", "1"),
        ("groups --rx 100", "--rx", "17"),
        ("scale --smoke 1 --group 100000", "--group", "119"),
        ("membership --smoke 1 --hosts 1", "--hosts", "0"),
        ("membership --smoke 1 --hosts 100", "--hosts", "160"),
        ("membership --smoke 1 --channels 0", "--channels", "2"),
        ("membership --smoke 1 --channels 1", "--channels", "2"),
        ("scale --smoke 1 --group 0", "--group", "1"),
        ("membership --smoke 1 --group 0", "--group", "1"),
        ("scale --smoke 1 --cache 0", "--cache", "1"),
        ("scale --smoke 1 --ases 0", "--ases", "1"),
    ] {
        let stderr = usage_error(argv);
        assert!(stderr.starts_with("error:"), "{argv}: {stderr}");
        let said = stderr.lines().next().unwrap();
        assert!(
            said.contains(flag) && said.contains(bound),
            "{argv}: {said}"
        );
    }
    // A group larger than the pool it is sampled from, on every row that
    // takes one, whatever the topology.
    for exp in EXPERIMENTS {
        for flag in ["group", "rx"] {
            if !exp.flags.contains(&flag) {
                continue;
            }
            let topos: &[&str] = match exp.flags.contains(&"topo") {
                true => &["", " --topo rand50", " --topo waxman30"],
                false => &[""],
            };
            for topo in topos {
                let argv = format!("{}{topo} --{flag} 1000000", exp.name);
                assert_bad_argv(&argv, &format!("--{flag} must be"));
            }
        }
    }
}

#[test]
fn a_sweep_writes_no_file_it_was_not_told_to() {
    let dir = std::env::temp_dir().join(format!("hbh_no_out_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = hbh_exp_in(&dir, "scale --smoke 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(out.stdout.starts_with(b"{"), "the record goes to stdout");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().flatten().collect();
    assert!(left.is_empty(), "a plain run wrote {left:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn all_refuses_to_run_where_there_is_no_results_directory() {
    let dir = std::env::temp_dir().join(format!("hbh_nowhere_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = hbh_exp_in(&dir, "all");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: no ./results"));
    assert!(!dir.join("results").exists(), "a stray results/ appeared");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_report_is_the_same_bytes_on_one_worker_and_on_four() {
    let run = |threads| {
        let out = hbh_exp(&format!("fig7 --topo isp --runs 20 --threads {threads}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        out.stdout
    };
    let one = run(1);
    assert!(!one.is_empty());
    assert_eq!(one, run(4));
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "regenerates every results file twice: 2 min with --release (as CI runs it), 30 without"
)]
fn check_passes_on_the_committed_tree_and_names_an_altered_or_stray_file() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let dir = std::env::temp_dir().join(format!("hbh_check_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("results")).unwrap();
    for entry in std::fs::read_dir(committed).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join("results").join(entry.file_name())).unwrap();
    }

    let out = hbh_exp_in(&dir, "all --check 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "committed results/ drifted:\n{stderr}"
    );

    // One digit of one file: 0.00 survivor route changes for HBH → 0.01.
    let altered = dir.join("results/stability.txt");
    let text = std::fs::read_to_string(&altered).unwrap();
    let at = text
        .rfind("0.00 ± 0.00\n")
        .expect("HBH's cell ends its row");
    std::fs::write(&altered, format!("{}0.01{}", &text[..at], &text[at + 4..])).unwrap();
    // And a file no row of the table owns, which nothing would regenerate.
    std::fs::write(dir.join("results/x.txt"), "stray\n").unwrap();

    let out = hbh_exp_in(&dir, "all --check 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let failed: Vec<&str> = stderr.lines().filter(|l| l.starts_with("FAILED")).collect();
    assert_eq!(failed.len(), 2, "{stderr}");
    assert!(
        failed[0].contains("results/stability.txt") && failed[0].contains("line 5"),
        "{stderr}"
    );
    assert!(
        failed[1].contains("results/x.txt") && failed[1].contains("no experiment owns"),
        "{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
