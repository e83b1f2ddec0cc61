//! One measured run of one workload in this process: warm up, repeat the
//! pass a fixed number of times, check the repeats agree, and reduce the
//! passes to per-metric samples and one reported value each.

use crate::metrics::{self, reported, Values};
use crate::trace::Tracer;
use crate::workloads::{run_pass, Pass, Spec};
use std::collections::BTreeMap;

/// Passes a run makes at least, however short `--seconds` is: enough for a
/// median and quartiles, and for one traced pass after a traced run's two
/// untraced ones.
pub const MIN_PASSES: usize = 3;

/// What a run measured.
pub struct Run {
    /// Σ expected receivers over draws × arms of one pass.
    pub attempted: u64,
    /// Of those, receivers not served exactly once (or on an arm that
    /// never converged).
    pub failed: u64,
    /// One value per pass for pass-level metrics, one for process-level
    /// ones (`peak_rss_mb`, probes).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// The one number reported per metric: [`reported`] of its samples.
    pub values: Values,
    /// The last traced pass's spans, for `--trace-out`.
    pub spans: Option<Tracer>,
}

fn push_all(samples: &mut BTreeMap<String, Vec<f64>>, values: Values) {
    for (k, v) in values {
        samples.entry(k).or_default().push(v);
    }
}

fn reduce(samples: &BTreeMap<String, Vec<f64>>) -> Values {
    samples
        .iter()
        .map(|(k, v)| (k.clone(), reported(k, v)))
        .collect()
}

/// Errors when two passes of the same inputs simulated different things:
/// the simulator is deterministic, so that is a bug, not noise.
fn check_repeat(first: &Pass, pass: &Pass) -> Result<(), String> {
    if pass.sim == first.sim && pass.routes == first.routes {
        Ok(())
    } else {
        Err(format!(
            "simulated results differ between repeats of the same inputs:\n  first {:?}\n  later {:?}",
            first.sim, pass.sim
        ))
    }
}

/// Measures workload `name`: `seconds / Spec::pass_s` passes, at least
/// [`MIN_PASSES`]. Untraced (`traced == false`) they all are, and the
/// samples are the end-to-end metrics. A traced run makes two untraced
/// passes for the overhead baseline and traces the rest; its samples are
/// the per-layer metrics.
pub fn measure(
    name: &str,
    seed: u64,
    smoke: bool,
    seconds: f64,
    traced: bool,
) -> Result<Run, String> {
    let spec = Spec::new(name, seed, smoke).ok_or_else(|| format!("unknown workload '{name}'"))?;
    // Untimed warm-up over the same code path at smoke size: faults the
    // binary in and lets the allocator grow its first arenas.
    let warm = Spec::new(name, seed, true).expect("same name");
    run_pass(&warm, false);

    let passes = ((seconds / spec.pass_s) as usize).max(MIN_PASSES);
    // A traced run needs untraced passes only as the overhead baseline:
    // two, because the first one after the warm-up still pays for the
    // first large allocations.
    let untraced = if traced { 2 } else { passes };
    let first = run_pass(&spec, false);
    let mut samples = BTreeMap::new();
    let mut absorb = |pass: &Pass| {
        check_repeat(&first, pass)?;
        push_all(&mut samples, metrics::end_to_end(&spec, pass));
        Ok::<(), String>(())
    };
    absorb(&first)?;
    for _ in 1..untraced {
        absorb(&run_pass(&spec, false))?;
    }
    let (attempted, failed) = (first.attempted(), first.failed());

    if !traced {
        samples.insert("peak_rss_mb".into(), vec![metrics::peak_rss_mb()]);
        return Ok(Run {
            attempted,
            failed,
            values: reduce(&samples),
            samples,
            spans: None,
        });
    }

    let untraced_wall_s = reported("wall_s", &samples["wall_s"]);
    let mut samples = BTreeMap::new();
    let mut last = None;
    for _ in untraced..passes {
        let pass = run_pass(&spec, true);
        check_repeat(&first, &pass)?;
        push_all(&mut samples, metrics::per_layer(&pass, untraced_wall_s));
        last = Some(pass);
    }
    let last = last.expect("at least one traced pass");
    let layers = reduce(&samples);
    push_all(
        &mut samples,
        metrics::probe_layer(&spec, &last, &layers, untraced_wall_s),
    );
    Ok(Run {
        attempted,
        failed,
        values: reduce(&samples),
        samples,
        spans: Some(last.tracer),
    })
}
