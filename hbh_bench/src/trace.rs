//! Harness-side spans: one around every call into a layer, recorded from
//! outside the program under test.
//!
//! Every pass accumulates per-`(name, arm)` totals — that is where
//! `setup_s` and `wall_s` come from, traced or not, at a handful of
//! clock reads per arm. Only a traced pass also keeps the individual
//! [`Span`] records (name, start, end, parent, draw, arm) for
//! `--trace-out`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Arm label (`"hbh.soft"`, …) or `""` outside any arm.
    pub arm: &'static str,
    /// Scenario draw the span belongs to (spans of one draw share it).
    pub draw: u32,
    /// Index of the enclosing span in the span list.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Accumulated time of all spans sharing a `(name, arm)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub ns: u64,
    /// `ns` minus the part covered by child spans.
    pub self_ns: u64,
}

struct Open {
    start_ns: u64,
    child_ns: u64,
    /// Slot in `spans` (only when records are kept).
    slot: Option<u32>,
}

pub struct Tracer {
    origin: Instant,
    keep: bool,
    spans: Vec<Span>,
    stack: Vec<Open>,
    totals: BTreeMap<(&'static str, &'static str), Total>,
    /// Context stamped on spans opened from here on.
    pub draw: u32,
    pub arm: &'static str,
}

impl Tracer {
    /// `keep` = also record individual spans (the traced pass).
    pub fn new(keep: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            keep,
            spans: Vec::new(),
            stack: Vec::new(),
            totals: BTreeMap::new(),
            draw: 0,
            arm: "",
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` through
    /// the tracer it is handed become children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let slot = self.keep.then(|| {
            let parent = self.stack.iter().rev().find_map(|o| o.slot);
            self.spans.push(Span {
                name,
                arm: self.arm,
                draw: self.draw,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        });
        let arm = self.arm;
        let start_ns = self.now_ns();
        self.stack.push(Open {
            start_ns,
            child_ns: 0,
            slot,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span stack underflow");
        let ns = end_ns - open.start_ns;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += ns;
        }
        let t = self.totals.entry((name, arm)).or_default();
        t.ns += ns;
        t.self_ns += ns.saturating_sub(open.child_ns);
        if let Some(slot) = open.slot {
            let s = &mut self.spans[slot as usize];
            s.start_ns = open.start_ns;
            s.end_ns = end_ns;
        }
        out
    }

    /// Seconds spent in spans called `name`, over all arms.
    pub fn secs(&self, name: &str) -> f64 {
        self.sum(name, |t| t.ns)
    }

    /// Self seconds (children excluded) of spans called `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.sum(name, |t| t.self_ns)
    }

    fn sum(&self, name: &str, f: impl Fn(&Total) -> u64) -> f64 {
        self.totals
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, t)| f(t))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Seconds spent in spans called `name` under arm `arm`.
    pub fn arm_secs(&self, name: &str, arm: &str) -> f64 {
        self.totals
            .get(&(name, arm))
            .map_or(0.0, |t| t.ns as f64 / 1e9)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans as JSON lines (`id` = line number).
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"arm\": \"{}\", \
                 \"draw\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.arm, s.draw, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link() {
        let mut tr = Tracer::new(true);
        tr.arm = "a";
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", |_| ());
        });
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[2].parent, Some(0));
        assert!(tr.secs("inner") >= 0.002);
        assert!(tr.secs("outer") >= tr.secs("inner"));
        assert!(tr.self_secs("outer") <= tr.secs("outer") - tr.secs("inner") + 1e-9);
        assert_eq!(tr.arm_secs("outer", "b"), 0.0);
        assert!(tr.arm_secs("outer", "a") > 0.0);
        let mut buf = Vec::new();
        tr.write_spans(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            crate::json::Json::parse(line).unwrap();
        }
    }

    #[test]
    fn untraced_tracer_keeps_totals_but_no_records() {
        let mut tr = Tracer::new(false);
        tr.span("x", |_| ());
        assert!(tr.spans().is_empty());
        assert!(tr.secs("x") >= 0.0);
    }
}
