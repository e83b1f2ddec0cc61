//! ```text
//! hbh_bench --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke 1]
//!           [--trace-out FILE]          one workload, in this process
//! hbh_bench [--seed N] [--seconds S] [--trace 0|1] [--smoke 1] [--out FILE]
//!           [--trace-out PREFIX]        all six, one child process each
//! hbh_bench compare A.json B.json       two --out files against the bounds
//! ```
//!
//! The last line a `--workload` run prints is the result object of the
//! benchmark contract; the lines before it are for people (and the
//! `samples` line for the all-workloads driver).

use hbh_bench_harness::compare::compare;
use hbh_bench_harness::json::Json;
use hbh_bench_harness::metrics::{median, quartiles, Catalog, MetricDef};
use hbh_bench_harness::run::measure;
use hbh_experiments::report::Args;
use std::collections::BTreeMap;
use std::io::{BufWriter, Read, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Address-space cap of a workload's child process, kB (`ulimit -v`).
const CHILD_VM_KB: u64 = 4 * 1024 * 1024;
/// Wall-clock cap of a workload's child process.
const CHILD_TIMEOUT: Duration = Duration::from_secs(600);

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

/// Reads the flags with the workspace's own `--key value` parser (which
/// exits with a usage message on anything it does not know).
fn parse_opts(catalog: &Catalog) -> Result<Opts, String> {
    let args = Args::parse(&[
        "workload",
        "seed",
        "seconds",
        "trace",
        "smoke",
        "out",
        "trace-out",
    ]);
    let switch = |key: &str| match args.get(key) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("--{key} takes 0 or 1, not '{v}'")),
    };
    let seconds: f64 = args.get_parse("seconds", catalog.run_seconds);
    if !(0.0..=3600.0).contains(&seconds) {
        return Err(format!("--seconds must be within 0..=3600, not {seconds}"));
    }
    Ok(Opts {
        workload: args.get("workload").map(str::to_string),
        seed: args.get_parse("seed", 1),
        seconds,
        trace: switch("trace")?,
        smoke: switch("smoke")?,
        out: args.get("out").map(str::to_string),
        trace_out: args.get("trace-out").map(str::to_string),
    })
}

/// One line per metric: the reported value and unit, then the median,
/// quartiles and count of its samples.
fn print_samples(
    defs: &[MetricDef],
    value_of: impl Fn(&str) -> Option<f64>,
    samples: &BTreeMap<String, Vec<f64>>,
) {
    for def in defs {
        let (Some(value), Some(s)) = (value_of(&def.name), samples.get(&def.name)) else {
            println!("  {:<34} (not measured)", def.name);
            continue;
        };
        let (q1, q3) = quartiles(s);
        println!(
            "  {:<34} {value:>16.6} {:<12} median {:.6}  q1 {q1:.6}  q3 {q3:.6}  n {}",
            def.name,
            def.unit,
            median(s),
            s.len()
        );
    }
}

fn samples_json(samples: &BTreeMap<String, Vec<f64>>) -> Json {
    Json::obj(samples.iter().map(|(k, v)| {
        (
            k.as_str(),
            Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
        )
    }))
}

/// One workload in this process: the mode the benchmark contract runs.
fn run_one(name: &str, o: &Opts, catalog: &Catalog) -> Result<(), String> {
    let run = measure(name, o.seed, o.smoke, o.seconds, o.trace)?;
    let defs = if o.trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    println!(
        "workload {name}  seed {}  trace {}  unserved {}/{}",
        o.seed,
        u8::from(o.trace),
        run.failed,
        run.attempted
    );
    print_samples(defs, |name| run.values.get(name).copied(), &run.samples);
    if let (Some(path), Some(tracer)) = (&o.trace_out, &run.spans) {
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut w = BufWriter::new(file);
        tracer
            .write_spans(&mut w)
            .and_then(|()| w.flush())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("samples {}", samples_json(&run.samples).render());

    let mut metrics = BTreeMap::new();
    for def in defs {
        let value = run
            .values
            .get(&def.name)
            .copied()
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric '{}' was not measured", def.name))?;
        metrics.insert(
            def.name.clone(),
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::Str(def.unit.clone())),
            ]),
        );
    }
    let result = Json::obj([
        ("correct", Json::Bool(run.failed == 0)),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// Runs `hbh_bench <args>` as a child under the memory and time caps and
/// returns its standard output, or why there is none.
fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!("ulimit -v {CHILD_VM_KB} && exec \"$0\" \"$@\""))
        .arg(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break Ok(status),
            None if started.elapsed() > CHILD_TIMEOUT => {
                // Best effort: the child may have exited since try_wait.
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {CHILD_TIMEOUT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?
        .map_err(|e| format!("reading child stdout: {e}"))?;
    match status? {
        s if s.success() => Ok(text),
        s => Err(format!("child exited with {s}")),
    }
}

/// A child's `samples` line and result line.
fn parse_child(text: &str) -> Result<(Json, Json), String> {
    let result = text.lines().last().ok_or("child printed nothing")?;
    let samples = text
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("samples "))
        .ok_or("child printed no samples line")?;
    Ok((Json::parse(samples)?, Json::parse(result)?))
}

/// Every workload, each in its own child process (so `peak_rss_mb` is per
/// workload and a crash or a cap hit costs one workload, not the run).
fn run_all(o: &Opts, catalog: &Catalog) -> Result<bool, String> {
    let mut all_ok = true;
    let mut report = BTreeMap::new();
    for name in &catalog.workloads {
        let mut entry = BTreeMap::new();
        for traced in [false, true] {
            if traced && !o.trace {
                continue;
            }
            let mut args: Vec<String> = [
                "--workload",
                name,
                "--trace",
                if traced { "1" } else { "0" },
            ]
            .map(String::from)
            .to_vec();
            args.extend(["--seed".to_string(), o.seed.to_string()]);
            args.extend(["--seconds".to_string(), o.seconds.to_string()]);
            if o.smoke {
                args.extend(["--smoke".to_string(), "1".into()]);
            }
            if let (true, Some(prefix)) = (traced, &o.trace_out) {
                args.extend(["--trace-out".to_string(), format!("{prefix}{name}.jsonl")]);
            }
            let (section, defs) = if traced {
                ("layers", &catalog.per_layer)
            } else {
                ("samples", &catalog.end_to_end)
            };
            match run_child(&args).and_then(|text| parse_child(&text)) {
                Ok((samples, result)) => {
                    let field = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let (attempted, failed) = (field("attempted"), field("failed"));
                    println!(
                        "{name} ({section}): unserved_share {} ({failed}/{attempted})",
                        failed / attempted
                    );
                    all_ok &= failed == 0.0;
                    let parsed: BTreeMap<String, Vec<f64>> = samples
                        .as_obj()
                        .into_iter()
                        .flatten()
                        .map(|(k, v)| {
                            (
                                k.clone(),
                                v.as_arr().iter().filter_map(Json::as_f64).collect(),
                            )
                        })
                        .collect();
                    let value_of =
                        |name: &str| result.get("metrics")?.get(name)?.get("value")?.as_f64();
                    print_samples(defs, value_of, &parsed);
                    entry.insert(section.to_string(), samples);
                    entry.insert("attempted".into(), Json::Num(attempted));
                    entry.insert("failed".into(), Json::Num(failed));
                }
                Err(why) => {
                    // Every receiver of a workload that crashed or hit a
                    // cap counts as unserved.
                    println!("{name} ({section}): unserved_share 1 ({why})");
                    all_ok = false;
                }
            }
        }
        report.insert(name.clone(), Json::Obj(entry));
    }
    if let Some(path) = &o.out {
        let doc = Json::obj([
            ("seed", Json::Num(o.seed as f64)),
            ("smoke", Json::Bool(o.smoke)),
            ("workloads", Json::Obj(report)),
        ]);
        std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(all_ok)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let catalog = Catalog::load();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => read_json(a)
                .and_then(|a| Ok((a, read_json(b)?)))
                .map(|(a, b)| {
                    let (table, any_worse) = compare(&catalog, &a, &b);
                    print!("{table}");
                    !any_worse
                }),
            _ => Err("usage: hbh_bench compare A.json B.json".to_string()),
        }
    } else {
        parse_opts(&catalog).and_then(|o| match &o.workload {
            Some(name) => run_one(name, &o, &catalog).map(|()| true),
            None => run_all(&o, &catalog),
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("hbh_bench: {why}");
            ExitCode::FAILURE
        }
    }
}
