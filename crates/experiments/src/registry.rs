//! The experiment table behind `hbh-exp`: one row per experiment — its
//! name, the flags it accepts, the function that runs it and renders its
//! [`Report`], and the `results/` files it owns, each with the argv that
//! makes it. `hbh-exp <name> [flags]` prints a row's report, `hbh-exp all`
//! rewrites every owned file (the only code that writes to `results/`),
//! and `hbh-exp all --check 1` renders them in memory and fails on the
//! first line that differs from the committed file — which is what makes
//! `results/` what the code prints. That is the one `--check`: a row exits
//! 1 only on a broken run (an unserved receiver, an unrecovered tree), and
//! the bounds on the numbers of the runs no file holds (the churn, scale
//! and membership smoke sizes) are tier-1 asserts beside their pinned
//! records.

use crate::figures::eval::{self, Metric, COST, DELAY};
use crate::figures::{asymmetry, churn, clouds, groups, overhead, qos, stability};
use crate::figures::{state_size, timers};
use crate::membership::{run_membership, MembershipConfig};
use crate::protocols::ProtocolKind;
use crate::report::{append_history, die, peak_rss_kb, Args, Report, Table};
use crate::runner::RunConfig;
use crate::scale::{run_scale, ScaleConfig};
use crate::scenario::TopologyKind;
use hbh_topo::hier::TierSpec;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// One row of the table.
pub struct Experiment {
    pub name: &'static str,
    /// The `--key value` flags the row accepts.
    pub flags: &'static [&'static str],
    pub run: fn(&Args) -> Report,
    /// The files under `results/` this row owns, with the argv behind each.
    pub files: &'static [(&'static str, &'static [&'static str])],
}

pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig7",
        flags: &["topo", "runs", "seed", "threads"],
        run: fig7,
        files: &[
            ("fig7_isp.txt", &["--topo", "isp", "--runs", "500"]),
            ("fig7_rand50.txt", &["--topo", "rand50", "--runs", "500"]),
        ],
    },
    Experiment {
        name: "fig8",
        flags: &["topo", "runs", "seed", "threads"],
        run: fig8,
        files: &[
            ("fig8_isp.txt", &["--topo", "isp", "--runs", "500"]),
            ("fig8_rand50.txt", &["--topo", "rand50", "--runs", "500"]),
        ],
    },
    Experiment {
        name: "stability",
        flags: &["runs", "group", "topo", "seed", "threads"],
        run: stability,
        files: &[("stability.txt", &["--runs", "200", "--group", "8"])],
    },
    Experiment {
        name: "churn",
        flags: &["topo", "runs", "seed", "threads", "group"],
        run: churn,
        // CI's smoke size: `--runs 100` at seed 1 aborts on memory (soft
        // HBH grows without bound after some crashes — ROADMAP item 1);
        // the row moves to the full sweep when that is fixed.
        files: &[("churn.txt", &["--runs", "5"])],
    },
    Experiment {
        name: "asymmetry",
        flags: &["runs", "group", "topo", "seed", "threads"],
        run: asymmetry,
        files: &[("asymmetry.txt", &["--runs", "200"])],
    },
    Experiment {
        name: "unicast_clouds",
        flags: &["runs", "group", "topo", "seed", "threads"],
        run: unicast_clouds,
        files: &[("unicast_clouds.txt", &["--runs", "200"])],
    },
    Experiment {
        name: "timers",
        flags: &["runs", "group", "topo", "seed", "threads"],
        run: timers,
        files: &[("timers.txt", &["--runs", "100"])],
    },
    Experiment {
        name: "overhead",
        flags: &["runs", "topo", "seed", "threads"],
        run: overhead,
        files: &[("overhead.txt", &["--runs", "100"])],
    },
    Experiment {
        name: "state_size",
        flags: &["runs", "topo", "seed", "threads"],
        run: state_size,
        files: &[("state_size.txt", &["--runs", "100"])],
    },
    Experiment {
        name: "qos",
        flags: &["runs", "group", "topo", "seed", "minbw", "threads"],
        run: qos,
        files: &[("qos.txt", &["--runs", "200"])],
    },
    Experiment {
        name: "groups",
        flags: &["runs", "rx", "seed", "threads"],
        run: groups,
        files: &[("groups.txt", &["--runs", "30"])],
    },
    Experiment {
        name: "scale",
        flags: &[
            "ases", "pops", "access", "hosts", "group", "runs", "seed", "cache", "out", "smoke",
        ],
        run: scale,
        files: &[],
    },
    Experiment {
        name: "membership",
        flags: &[
            "ases", "pops", "access", "hosts", "group", "channels", "zaps", "seed", "cache", "out",
            "smoke",
        ],
        run: membership,
        files: &[],
    },
    Experiment {
        name: "inspect",
        flags: &["topo", "group", "seed"],
        run: inspect,
        files: &[],
    },
];

/// `hbh-exp`'s `main`: dispatches `argv[1]` to its row, or to `all`.
pub fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let usage = || {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        format!("usage: hbh-exp <{}|all> [--flag value …]", names.join("|"))
    };
    let Some(name) = argv.next() else {
        die(&format!("no experiment named\n{}", usage()))
    };
    if name == "all" {
        return all(Args::parse_from(argv, &["check"]).get_parse("check", 0u8) != 0);
    }
    let Some(exp) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        die(&format!("unknown experiment {name}\n{}", usage()))
    };
    let report = (exp.run)(&Args::parse_from(argv, exp.flags));
    print!("{}", report.text);
    finish(&report.failures)
}

/// Exit 1 listing `failures` on stderr, or exit 0 when there are none.
fn finish(failures: &[String]) -> ExitCode {
    for f in failures {
        eprintln!("FAILED: {f}");
    }
    ExitCode::from(u8::from(!failures.is_empty()))
}

/// Runs every `(argv, file)` pair of the table and writes the files into
/// `./results` — or, under `check`, compares them with what is there. A
/// file there that no row owns fails either way: nothing regenerates it.
fn all(check: bool) -> ExitCode {
    let dir = Path::new("results");
    if !dir.is_dir() {
        die("no ./results directory here: run `hbh-exp all` from the repository root");
    }
    let mut failures = Vec::new();
    let mut owned = Vec::new();
    for exp in EXPERIMENTS {
        for (file, argv) in exp.files {
            let args = Args::parse_from(argv.iter().map(|a| a.to_string()), exp.flags);
            let report = (exp.run)(&args);
            failures.extend(report.failures.iter().map(|f| format!("{file}: {f}")));
            let header = format!("== hbh-exp {} {} ==\n", exp.name, argv.join(" "));
            let text = (dir.join(file), header + &report.text);
            let json = report
                .json
                .map(|json| (dir.join(file).with_extension("json"), json));
            for (path, fresh) in [text].into_iter().chain(json) {
                owned.push(path.clone());
                let shown = path.display();
                if !check {
                    match std::fs::write(&path, fresh) {
                        Ok(()) => eprintln!("wrote {shown}"),
                        Err(e) => failures.push(format!("{shown}: {e}")),
                    }
                    continue;
                }
                match std::fs::read_to_string(&path) {
                    Ok(committed) => match first_difference(&committed, &fresh) {
                        None => eprintln!("{shown}: matches"),
                        Some(diff) => {
                            failures.push(format!("{shown} is not what the code prints: {diff}"))
                        }
                    },
                    Err(e) => failures.push(format!("{shown}: {e}")),
                }
            }
        }
    }
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            let mut strays: Vec<_> = entries
                .flatten()
                .map(|entry| entry.path())
                .filter(|path| !owned.contains(path))
                .collect();
            strays.sort();
            failures.extend(strays.iter().map(|path| {
                let shown = path.display();
                format!("{shown}: no experiment owns this file")
            }));
        }
        Err(e) => failures.push(format!("{}: {e}", dir.display())),
    }
    finish(&failures)
}

/// The first line at which `committed` and `fresh` part, for a human.
fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let same = |(a, b): &(&str, &str)| a == b;
    let n = committed
        .lines()
        .zip(fresh.lines())
        .take_while(same)
        .count();
    let show = |text: &str| match text.lines().nth(n) {
        Some(line) => format!("`{line}`"),
        None => "<end of file>".to_string(),
    };
    let (old, new) = (show(committed), show(fresh));
    Some(format!("line {} reads {old}, the code prints {new}", n + 1))
}

/// `--<flag>` as a group size on `topo`: at least one receiver, at most
/// the hosts the source leaves to sample from.
fn group_size(args: &Args, flag: &str, topo: TopologyKind, default: usize) -> usize {
    let (group, pool) = (args.get_parse(flag, default), topo.receiver_pool());
    if !(1..=pool).contains(&group) {
        let topo = topo.name();
        args.die(&format!(
            "--{flag} must be between 1 and {pool}, the receiver pool of the {topo} topology, got {group}"
        ));
    }
    group
}

fn eval_report(args: &Args, metric: Metric, what: &str, paper: &str) -> Report {
    let run = RunConfig::from_args(args, 500);
    let sizes = run.topo.paper_group_sizes();
    let points = eval::evaluate(&run, &sizes);
    let mut report = Report::tables(&[eval::render(&run, &points, metric)]);
    if let Some(adv) = eval::hbh_advantage_over_reunite(&points, metric) {
        let _ = writeln!(
            report.text,
            "# HBH {what} advantage over REUNITE, averaged over group sizes: {adv:.1}%\n\
             # (paper, {paper})"
        );
    }
    report.failures.extend(eval::health_violations(&points));
    report
}

fn fig7(args: &Args) -> Report {
    let paper = "§4.2.1: ≈5% on the ISP topology, ≈18% on the 50-node topology";
    eval_report(args, COST, "tree-cost", paper)
}

fn fig8(args: &Args) -> Report {
    let paper = "§4.2.2: ≈14% on the ISP topology, ≈30% on the 50-node topology";
    eval_report(args, DELAY, "delay", paper)
}

fn stability(args: &Args) -> Report {
    let run = RunConfig::from_args(args, 100);
    let group = group_size(args, "group", run.topo, 8);
    let point = stability::evaluate(&run, group);
    Report::tables(&[stability::render(&run, group, &point)])
}

fn churn(args: &Args) -> Report {
    let run = RunConfig::from_args(args, 100).protocols(ProtocolKind::CHURN_ARMS.to_vec());
    let group = group_size(args, "group", run.topo, 8);
    let point = churn::evaluate(&run, group);
    let mut failures = Vec::new();
    for &kind in &run.protocols {
        let unrecovered = point.count(kind, churn::UNRECOVERED);
        if unrecovered > 0 {
            let name = kind.name();
            failures.push(format!(
                "{name} did not restore full service in {unrecovered} run(s)"
            ));
        }
    }
    Report {
        text: format!("{}\n", churn::render(&run, group, &point).render()),
        json: Some(churn::render_json(&run, group, &point)),
        failures,
    }
}

/// The shape of the two option sweeps: `--group` receivers, both metrics'
/// tables, one after the other.
fn option_sweep(
    args: &Args,
    arms: &[ProtocolKind],
    values: &[f64],
    tables: fn(&RunConfig, usize, &[f64]) -> [Table; 2],
) -> Report {
    let run = RunConfig::from_args(args, 100).protocols(arms.to_vec());
    let group = group_size(args, "group", run.topo, 10);
    Report::tables(&tables(&run, group, values))
}

fn asymmetry(args: &Args) -> Report {
    let steps = [0.0, 0.25, 0.5, 0.75, 1.0];
    option_sweep(args, &asymmetry::ASYMMETRY_ARMS, &steps, asymmetry::tables)
}

fn unicast_clouds(args: &Args) -> Report {
    let fractions = [0.0, 0.2, 0.4, 0.6, 0.8];
    option_sweep(
        args,
        &ProtocolKind::RECURSIVE_UNICAST,
        &fractions,
        clouds::tables,
    )
}

fn timers(args: &Args) -> Report {
    let run = RunConfig::from_args(args, 50).protocols(ProtocolKind::RECURSIVE_UNICAST.to_vec());
    let group = group_size(args, "group", run.topo, 8);
    let points = timers::evaluate(&run, group, &[1.0, 2.0, 4.0]);
    Report::tables(&[timers::render(&run, group, &points)])
}

fn overhead(args: &Args) -> Report {
    let run = RunConfig::from_args(args, 50);
    let points = overhead::evaluate(&run, &[2, 8, 16]);
    Report::tables(&[overhead::render(&run, &points)])
}

fn state_size(args: &Args) -> Report {
    let run = RunConfig::from_args(args, 50);
    let points = state_size::evaluate(&run, &[4, 8, 16]);
    Report::tables(&[state_size::render(&run, &points)])
}

fn qos(args: &Args) -> Report {
    let run = RunConfig::from_args(args, 100).protocols(ProtocolKind::SOURCE_SPECIFIC.to_vec());
    let group = group_size(args, "group", run.topo, 8);
    let (lo, hi) = qos::CAPACITY_RANGE;
    let min_bw = args.get_parse("minbw", 4);
    if !(lo..=hi).contains(&min_bw) {
        args.die(&format!(
            "--minbw must be between {lo} and {hi}, the range link capacities are drawn from, got {min_bw}"
        ));
    }
    let point = qos::evaluate(&run, group, min_bw);
    Report::tables(&[qos::render(&run, group, min_bw, &point)])
}

fn groups(args: &Args) -> Report {
    let run = RunConfig::from_args(args, 20).protocols(ProtocolKind::SOURCE_SPECIFIC.to_vec());
    let rx = group_size(args, "rx", TopologyKind::Isp, 5);
    let points = groups::evaluate(&run, &[1, 4, 8, 16], rx);
    Report::tables(&[groups::render(&run, rx, &points)])
}

/// One draw's converged HBH tables and the data-plane trace of a probe.
fn inspect(args: &Args) -> Report {
    let topo = RunConfig::from_args(args, 1).topo;
    let group = group_size(args, "group", topo, 6);
    Report {
        text: crate::inspect::dump(topo, group, args.get_parse("seed", 3)),
        json: None,
        failures: Vec::new(),
    }
}

/// `--<flag>` with a floor below which it has no meaning (a tier of no
/// routers, a cache of no rows, zapping over one channel).
fn flag_at_least<T: std::str::FromStr + PartialOrd + std::fmt::Display>(
    args: &Args,
    flag: &str,
    default: T,
    min: T,
) -> T {
    let n = args.get_parse(flag, default);
    if n < min {
        args.die(&format!("--{flag} must be at least {min}, got {n}"));
    }
    n
}

/// The `--ases --pops --access` overrides the two sweeps share.
fn tier_spec(args: &Args, default: TierSpec) -> TierSpec {
    TierSpec {
        ases: flag_at_least(args, "ases", default.ases, 1),
        pops_per_as: flag_at_least(args, "pops", default.pops_per_as, 1),
        access_per_pop: flag_at_least(args, "access", default.access_per_pop, 1),
    }
}

/// The `--hosts --group` overrides the two sweeps share: at least one
/// receiver, sampled from the hosts the source leaves.
fn hosts_and_group(args: &Args, hosts: usize, group: usize) -> (usize, usize) {
    let hosts = args.get_parse("hosts", hosts);
    let group = args.get_parse("group", group);
    let pool = hosts.saturating_sub(1);
    if !(1..=pool).contains(&group) {
        args.die(&format!(
            "--group must be between 1 and --hosts − 1 = {pool}, got {group}"
        ));
    }
    (hosts, group)
}

/// The tail of a sweep row: append `record` to the `--out` history when
/// one is named (nothing is written otherwise), and print it.
fn sweep_report(args: &Args, record: String) -> Report {
    if let Some(out) = args.get("out") {
        append_history(out, &record)
            .unwrap_or_else(|e| die(&format!("cannot append this run to {out}: {e}")));
    }
    Report {
        text: record,
        json: None,
        failures: Vec::new(),
    }
}

fn scale(args: &Args) -> Report {
    let mut cfg = if args.get_parse("smoke", 0usize) != 0 {
        ScaleConfig::smoke()
    } else {
        ScaleConfig::full()
    };
    cfg.spec = tier_spec(args, cfg.spec);
    (cfg.hosts, cfg.group_size) = hosts_and_group(args, cfg.hosts, cfg.group_size);
    cfg.runs = RunConfig::from_args(args, cfg.runs).runs;
    cfg.base_seed = args.get_parse("seed", cfg.base_seed);
    cfg.cache_rows = flag_at_least(args, "cache", cfg.cache_rows, 1);

    eprintln!(
        "scale sweep: {} routers, {} hosts, {} runs x {} protocols, cache {} rows",
        cfg.router_count(),
        cfg.hosts,
        cfg.runs,
        cfg.protocols.len(),
        cfg.cache_rows,
    );
    let record = run_scale(&cfg).to_json(&cfg, peak_rss_kb());
    sweep_report(args, record)
}

fn membership(args: &Args) -> Report {
    let mut cfg = if args.get_parse("smoke", 0usize) != 0 {
        MembershipConfig::smoke()
    } else {
        MembershipConfig::full()
    };
    cfg.spec = tier_spec(args, cfg.spec);
    (cfg.hosts, cfg.group_size) = hosts_and_group(args, cfg.hosts, cfg.group_size);
    if let Some(&storm) = cfg.storm_sizes.iter().max().filter(|&&n| n >= cfg.hosts) {
        args.die(&format!(
            "--hosts must be above {storm}, the receivers of the largest storm, got {}",
            cfg.hosts
        ));
    }
    cfg.channels = flag_at_least(args, "channels", cfg.channels, 2);
    cfg.zaps = args.get_parse("zaps", cfg.zaps);
    cfg.base_seed = args.get_parse("seed", cfg.base_seed);
    cfg.cache_rows = flag_at_least(args, "cache", cfg.cache_rows, 1);

    eprintln!(
        "membership sweep: {} routers, {} hosts, {} workloads x {} arms, storm to {} receivers",
        cfg.router_count(),
        cfg.hosts,
        cfg.workloads().len(),
        ProtocolKind::MEMBERSHIP_ARMS.len(),
        cfg.storm_sizes.last().copied().unwrap_or(0),
    );
    let record = run_membership(&cfg).to_json(&cfg, peak_rss_kb());
    sweep_report(args, record)
}
