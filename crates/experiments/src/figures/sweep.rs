//! The paper's §4.1 method, written once: for every x of a figure, draw
//! `run.runs` scenarios, run every protocol arm on each same draw (paired
//! comparison) and keep what each arm measured, in draw order; then fold
//! named columns of those outcomes into [`Summary`]s and lay them out as a
//! [`Table`] with one column — or one row — per arm.
//!
//! Every other module of `figures/` is a [`Study`], a seed formula and a
//! column list around the functions here. So are the two hierarchy
//! sweeps, [`scale`](crate::scale) and [`membership`](crate::membership):
//! each is a `Study`, a seed formula and a record, run through [`point`]
//! at one worker, because a single 5k-router draw is the unit of memory
//! residency and each draw's scenario must go before the next is built.
//! This is the one caller of [`parallel::map_runs`](crate::parallel::map_runs)
//! and, through [`dispatch`], of `runner::build_kernel`.

use crate::parallel::map_runs;
use crate::protocols::{dispatch, ProtocolKind, Study};
use crate::report::Table;
use crate::runner::RunConfig;
use crate::scenario::Scenario;
use crate::stats::Summary;

/// One named measurement read off an arm's outcome of one draw. `None`
/// is a draw with nothing to read — a tree that never repaired has no
/// repair latency — and folds into nothing.
pub type Column<O> = (&'static str, fn(&O) -> Option<f64>);

/// One named yes/no read off an outcome, reported as the number of draws
/// on which it holds.
pub type Count<O> = (&'static str, fn(&O) -> bool);

/// One x of a figure: what every arm measured on every draw that ran.
pub struct Point<O> {
    /// The x, as the figure's table labels its row (empty for a figure
    /// that is one point).
    pub x: String,
    /// Per arm of `run.protocols`, in that order: its outcomes in draw
    /// order, skipped draws absent.
    pub arms: Vec<(ProtocolKind, Vec<O>)>,
    /// Draws that did not run (`draw` returned `None`: churn's "no
    /// crashable router", qos's "channel not admissible").
    pub skipped: usize,
}

impl<O> Point<O> {
    /// `kind`'s outcomes in draw order.
    ///
    /// # Panics
    /// When `kind` was not an arm of the run.
    pub fn of(&self, kind: ProtocolKind) -> &[O] {
        let arm = self.arms.iter().find(|(k, _)| *k == kind);
        &arm.unwrap_or_else(|| panic!("{} is not an arm of this run", kind.name()))
            .1
    }

    /// `column` of `kind`'s outcomes, folded in draw order.
    pub fn summary(&self, kind: ProtocolKind, column: Column<O>) -> Summary {
        summary(self.of(kind), column)
    }

    /// The draws of `kind` on which `count` holds.
    pub fn count(&self, kind: ProtocolKind, count: Count<O>) -> u64 {
        tally(self.of(kind), count)
    }

    /// The draws on which `count` holds, summed over every arm.
    pub fn total(&self, count: Count<O>) -> u64 {
        self.arms
            .iter()
            .map(|(_, outcomes)| tally(outcomes, count))
            .sum()
    }

    /// One `mean ± ci` cell (or `n/a`) per arm for `column`, in arm order.
    pub fn cells(&self, column: Column<O>) -> Vec<String> {
        let arms = self.arms.iter();
        arms.map(|(_, outcomes)| cell(outcomes, column)).collect()
    }

    /// One right-aligned count per arm for `count`, in arm order.
    pub fn counts(&self, count: Count<O>) -> Vec<String> {
        let cell = |(_, outcomes): &(_, Vec<O>)| format!("{:>8}", tally(outcomes, count));
        self.arms.iter().map(cell).collect()
    }
}

fn summary<O>(outcomes: &[O], (_, of): Column<O>) -> Summary {
    let mut s = Summary::default();
    outcomes.iter().filter_map(of).for_each(|x| s.add(x));
    s
}

fn tally<O>(outcomes: &[O], (_, is): Count<O>) -> u64 {
    outcomes.iter().filter(|o| is(o)).count() as u64
}

/// `column`'s `mean ± ci` over `outcomes`, or `n/a` when no draw gave it
/// a sample: an empty fold is not a measured zero.
fn cell<O>(outcomes: &[O], column: Column<O>) -> String {
    let s = summary(outcomes, column);
    if s.n() == 0 {
        return "n/a".into();
    }
    Table::cell(s.mean(), s.ci95())
}

/// One x: `draw(i)` builds draw `i`'s scenario and the study to run on it
/// (or `None` to skip the draw), every arm of `run.protocols` runs that
/// study on that scenario under `run.timing`, on `run.workers` threads,
/// and the outcomes come back per arm in draw order — whatever the worker
/// count, so every fold over them is bit-identical to a sequential
/// evaluation.
pub fn point<S: Study>(
    run: &RunConfig,
    draw: impl Fn(usize) -> Option<(Scenario, S)> + Sync,
) -> Point<S::Out>
where
    S::Out: Send,
{
    let per_draw = map_runs(run.workers, run.runs, |i| {
        let (scenario, study) = draw(i)?;
        let arm = |&kind: &ProtocolKind| dispatch(kind, &scenario, &run.timing, &study);
        Some(run.protocols.iter().map(arm).collect::<Vec<_>>())
    });
    let mut point = Point {
        x: String::new(),
        arms: run.protocols.iter().map(|&k| (k, Vec::new())).collect(),
        skipped: 0,
    };
    for outcomes in per_draw {
        match outcomes {
            None => point.skipped += 1,
            Some(outcomes) => {
                for ((_, arm), o) in point.arms.iter_mut().zip(outcomes) {
                    arm.push(o);
                }
            }
        }
    }
    point
}

/// [`point`] at every x of `xs`, in order, each labelled by `label`.
pub fn sweep<X: Sync, S: Study>(
    run: &RunConfig,
    xs: &[X],
    label: fn(&X) -> String,
    draw: impl Fn(&X, usize) -> Option<(Scenario, S)> + Sync,
) -> Vec<Point<S::Out>>
where
    S::Out: Send,
{
    let at = |x| Point {
        x: label(x),
        ..point(run, |i| draw(x, i))
    };
    xs.iter().map(at).collect()
}

/// The table of a swept figure: one row per point, and per arm one `mean
/// ± ci` cell for each of `columns`, headed `ARM column` (the bare arm
/// name for a column named `""`).
pub fn table_by_x<O>(
    title: String,
    x_label: &str,
    arms: &[ProtocolKind],
    columns: &[Column<O>],
    points: &[Point<O>],
) -> Table {
    let head =
        |arm: &ProtocolKind, name: &str| format!("{} {name}", arm.name()).trim_end().to_string();
    let header: Vec<String> = arms
        .iter()
        .flat_map(|arm| columns.iter().map(move |(name, _)| head(arm, name)))
        .collect();
    let mut t = Table::new(title, x_label, &header);
    for point in points {
        let arms = point.arms.iter();
        let row = arms.flat_map(|(_, outcomes)| columns.iter().map(move |&c| cell(outcomes, c)));
        t.row(&point.x, row.collect());
    }
    t
}

/// The table of a one-point figure, turned: one row per column, then one
/// per count, and one table column per arm.
pub fn table_by_metric<O>(
    title: String,
    point: &Point<O>,
    columns: &[Column<O>],
    counted: &[Count<O>],
) -> Table {
    let arms: Vec<&str> = point.arms.iter().map(|(kind, _)| kind.name()).collect();
    let mut t = Table::new(title, "metric", &arms);
    for &column in columns {
        t.row(column.0, point.cells(column));
    }
    for &count in counted {
        t.row(count.0, point.counts(count));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{build, ScenarioOptions, TopologyKind};
    use hbh_proto_base::{Channel, Cmd, Timing};
    use hbh_sim_core::{Kernel, Protocol};

    /// Reads back which draw it ran on; never runs the kernel.
    struct WhichDraw;

    impl Study for WhichDraw {
        type Out = u64;

        fn run<P: Protocol<Command = Cmd>>(
            &self,
            _k: Kernel<P>,
            _ch: Channel,
            scenario: &Scenario,
            _timing: &Timing,
        ) -> u64 {
            scenario.seed
        }
    }

    /// Draw `i` is seeded `i`; odd draws are skipped when `skip_odd`.
    fn draw(skip_odd: bool) -> impl Fn(usize) -> Option<(Scenario, WhichDraw)> + Sync {
        move |i| {
            let (timing, opts) = (Timing::default(), ScenarioOptions::default());
            let sc = build(TopologyKind::Isp, 2, i as u64, &timing, &opts);
            (!skip_odd || i % 2 == 0).then_some((sc, WhichDraw))
        }
    }

    const SEED: Column<u64> = ("seed", |&seed| Some(seed as f64));
    const EVEN: Column<u64> = ("even", |&seed| (seed % 2 == 0).then_some(seed as f64));
    const LATE: Count<u64> = ("late", |&seed| seed >= 4);

    #[test]
    fn outcomes_come_back_per_arm_in_draw_order_on_any_worker_count() {
        for workers in [1, 2, 4, 16] {
            let run = RunConfig {
                workers,
                ..RunConfig::default().runs(9)
            };
            let point = point(&run, draw(false));
            assert_eq!(point.skipped, 0);
            let arms: Vec<ProtocolKind> = point.arms.iter().map(|(kind, _)| *kind).collect();
            assert_eq!(arms, run.protocols);
            for (kind, outcomes) in &point.arms {
                let seeds: Vec<u64> = (0..9).collect();
                assert_eq!(outcomes, &seeds, "{} on {workers} workers", kind.name());
            }
        }
    }

    #[test]
    fn a_skipped_draw_is_counted_and_folds_into_nothing() {
        let run = RunConfig::default().runs(7);
        let point = point(&run, draw(true));
        assert_eq!(point.skipped, 3);
        let hbh = ProtocolKind::Hbh;
        assert_eq!(point.of(hbh), [0, 2, 4, 6]);
        assert_eq!(point.summary(hbh, SEED).n(), 4);
        assert_eq!(point.summary(hbh, SEED).mean(), 3.0);
        assert_eq!(point.count(hbh, LATE), 2);
        assert_eq!(point.total(LATE), 2 * run.protocols.len() as u64);
        // So does a `None` read off a draw that ran.
        let all = super::point(&run, draw(false));
        assert_eq!(all.summary(hbh, EVEN).n(), 4);
        assert_eq!(all.summary(hbh, EVEN).mean(), 3.0);
    }

    #[test]
    fn an_empty_x_list_renders_a_header_only_table() {
        let run = RunConfig::default().runs(2);
        let none: [usize; 0] = [];
        let points = sweep(&run, &none, usize::to_string, |_, i| draw(false)(i));
        assert!(points.is_empty());
        let table = table_by_x("t".into(), "x", &run.protocols, &[SEED, EVEN], &points);
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[1].contains("PIM-SM seed") && lines[1].contains("HBH even"));
    }

    #[test]
    fn both_layouts_hold_one_cell_per_arm_and_column() {
        let run = RunConfig::default()
            .runs(3)
            .protocols(ProtocolKind::RECURSIVE_UNICAST.to_vec());
        let points = sweep(&run, &[10, 20], i32::to_string, |_, i| draw(false)(i));
        let by_x = table_by_x(
            "t".into(),
            "x",
            &run.protocols,
            &[SEED, ("", SEED.1)],
            &points,
        );
        let dat = by_x.render_dat();
        assert!(
            dat.starts_with("# t | x REUNITE seed REUNITE HBH seed HBH\n"),
            "{dat}"
        );
        assert!(dat.contains("\n20 1.00 1.00 1.00 1.00\n"), "{dat}");
        let by_metric = table_by_metric("t".into(), &points[0], &[SEED], &[LATE]).render_dat();
        assert!(
            by_metric.starts_with("# t | metric REUNITE HBH\n"),
            "{by_metric}"
        );
        assert!(
            by_metric.ends_with("seed 1.00 1.00\nlate 0 0\n"),
            "{by_metric}"
        );
    }

    #[test]
    fn a_column_without_samples_renders_na_in_both_layouts() {
        let run = RunConfig::default()
            .runs(2)
            .protocols(ProtocolKind::RECURSIVE_UNICAST.to_vec());
        // Two empty folds: a column that no draw gives a sample (draw 0
        // runs, draw 1 is skipped), and a point whose every draw was
        // skipped.
        const NONE: Column<u64> = ("none", |_| None);
        let ran = point(&run, draw(true));
        let skipped = Point {
            x: "0".into(),
            arms: run.protocols.iter().map(|&k| (k, Vec::new())).collect(),
            skipped: 2,
        };
        let by_metric = table_by_metric("t".into(), &ran, &[SEED, NONE], &[]);
        let dat = by_metric.render_dat();
        assert!(dat.ends_with("seed 0.00 0.00\nnone n/a n/a\n"), "{dat}");
        let text = by_metric.render();
        let last: Vec<&str> = text.lines().last().unwrap().split_whitespace().collect();
        assert_eq!(last, ["none", "n/a", "n/a"], "{text}");
        let by_x = table_by_x("t".into(), "x", &run.protocols, &[SEED], &[skipped]);
        let dat = by_x.render_dat();
        assert!(dat.ends_with("\n0 n/a n/a\n"), "{dat}");
    }
}
