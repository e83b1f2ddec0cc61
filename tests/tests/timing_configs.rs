//! Every timing configuration the repository runs, pinned: the two numbers
//! `Timing` stores and the `t1 = t2/2` derived from them.

use hbh_experiments::figures::timers::scaled_timing;
use hbh_live::LIVE_TIMING;
use hbh_proto_base::Timing;

#[test]
fn derived_timers_of_every_configuration() {
    for (t, pinned) in [
        (Timing::default(), (100, 260, 520)),
        (scaled_timing(2.0), (100, 520, 1040)),
        (LIVE_TIMING, (40, 110, 220)),
    ] {
        t.validate();
        assert_eq!((t.tree_period, t.t1(), t.t2), pinned);
    }
}
