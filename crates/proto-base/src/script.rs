//! One schedule, every backend: a time-ordered list of protocol commands
//! and fault events that drives the simulator kernel *and* the live UDP
//! cluster.
//!
//! Before this type existed, the kernel was scripted through ad-hoc
//! `command_at` sequences and the live cluster through its own method
//! calls, so "the same scenario on sim and sockets" was a claim, not a
//! property. A [`Script`] makes it a property: build the schedule once,
//! [`Script::schedule`] it onto a kernel, or hand it to
//! `hbh_live::Cluster::run_script` to replay it in wall-clock time on
//! real sockets (one simulated time unit = one millisecond there).
//!
//! Entries keep their *push* order among same-time entries, which is
//! exactly the kernel's tie-breaking rule (scheduling order = sequence
//! order), so a script replays identically however it is consumed.

use crate::channel::Channel;
use crate::command::Cmd;
use hbh_sim_core::fault::FaultEvent;
use hbh_sim_core::{Kernel, Protocol, Time};
use hbh_topo::graph::NodeId;

/// One scheduled step of a scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScriptAction {
    /// Deliver an experiment command to a node (join/leave/send/…).
    Command(NodeId, Cmd),
    /// Inject a topology fault (link down/up, node crash/restart).
    Fault(FaultEvent),
}

/// A declarative scenario schedule: `(time, action)` pairs.
///
/// Built with the chaining constructors; consumed by
/// [`Script::schedule`] (simulation) or `Cluster::run_script` (live UDP).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Script {
    entries: Vec<(Time, ScriptAction)>,
}

impl Script {
    /// An empty script.
    pub fn new() -> Self {
        Script::default()
    }

    /// Appends an arbitrary command at `node`.
    pub fn cmd(mut self, at: Time, node: NodeId, cmd: Cmd) -> Self {
        self.entries.push((at, ScriptAction::Command(node, cmd)));
        self
    }

    /// Appends a fault event.
    pub fn fault(mut self, at: Time, ev: FaultEvent) -> Self {
        self.entries.push((at, ScriptAction::Fault(ev)));
        self
    }

    /// The source host of `ch` starts sourcing at `at`.
    pub fn start_source(self, at: Time, ch: Channel) -> Self {
        let src = ch.source;
        self.cmd(at, src, Cmd::StartSource(ch))
    }

    /// `node` joins `ch` at `at`.
    pub fn join(self, at: Time, node: NodeId, ch: Channel) -> Self {
        self.cmd(at, node, Cmd::Join(ch))
    }

    /// `node` leaves `ch` at `at`.
    pub fn leave(self, at: Time, node: NodeId, ch: Channel) -> Self {
        self.cmd(at, node, Cmd::Leave(ch))
    }

    /// The source injects a data packet tagged `tag` on `ch` at `at`.
    pub fn send(self, at: Time, ch: Channel, tag: u64) -> Self {
        let src = ch.source;
        self.cmd(at, src, Cmd::SendData { ch, tag })
    }

    /// Node `n` crashes at `at`.
    pub fn fail_node(self, at: Time, n: NodeId) -> Self {
        self.fault(at, FaultEvent::NodeDown(n))
    }

    /// Node `n` restarts at `at`.
    pub fn restore_node(self, at: Time, n: NodeId) -> Self {
        self.fault(at, FaultEvent::NodeUp(n))
    }

    /// The link `a — b` fails (both directions) at `at`.
    pub fn fail_link(self, at: Time, a: NodeId, b: NodeId) -> Self {
        self.fault(at, FaultEvent::LinkDown { a, b })
    }

    /// The entries in push order (the tie-break order every backend uses).
    pub fn entries(&self) -> &[(Time, ScriptAction)] {
        &self.entries
    }

    /// The entries sorted by time, same-time entries keeping push order —
    /// the replay order for wall-clock backends.
    pub fn sorted_entries(&self) -> Vec<(Time, ScriptAction)> {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|&(at, _)| at);
        sorted
    }

    /// The time of the last entry (`Time::ZERO` when empty).
    pub fn duration(&self) -> Time {
        self.entries
            .iter()
            .map(|&(at, _)| at)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// True if the script contains no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedules every entry onto a simulation kernel. Same-time entries
    /// keep their script order (the kernel's sequence-number tie-break).
    pub fn schedule<P>(&self, k: &mut Kernel<P>)
    where
        P: Protocol<Command = Cmd>,
    {
        for &(at, action) in &self.entries {
            match action {
                ScriptAction::Command(node, cmd) => k.command_at(node, cmd, at),
                ScriptAction::Fault(ev) => k.schedule_fault(at, ev),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_records_all_action_kinds() {
        let ch = Channel::primary(NodeId(9));
        let s = Script::new()
            .start_source(Time(0), ch)
            .join(Time(10), NodeId(3), ch)
            .send(Time(20), ch, 7)
            .fail_node(Time(30), NodeId(5))
            .fail_link(Time(30), NodeId(1), NodeId(2))
            .restore_node(Time(40), NodeId(5))
            .leave(Time(50), NodeId(3), ch);
        assert_eq!(s.entries().len(), 7);
        assert_eq!(s.duration(), Time(50));
        assert_eq!(
            s.entries()[0],
            (
                Time(0),
                ScriptAction::Command(NodeId(9), Cmd::StartSource(ch))
            )
        );
        assert_eq!(
            s.entries()[3],
            (
                Time(30),
                ScriptAction::Fault(FaultEvent::NodeDown(NodeId(5)))
            )
        );
        assert!(Script::new().is_empty());
        assert_eq!(Script::new().duration(), Time::ZERO);
    }

    #[test]
    fn sorted_entries_is_stable_on_ties() {
        let ch = Channel::primary(NodeId(0));
        let s = Script::new()
            .join(Time(20), NodeId(2), ch)
            .join(Time(10), NodeId(1), ch)
            .leave(Time(20), NodeId(3), ch);
        let sorted = s.sorted_entries();
        assert_eq!(sorted[0].0, Time(10));
        assert_eq!(
            sorted[1],
            (Time(20), ScriptAction::Command(NodeId(2), Cmd::Join(ch)))
        );
        assert_eq!(
            sorted[2],
            (Time(20), ScriptAction::Command(NodeId(3), Cmd::Leave(ch)))
        );
    }
}
