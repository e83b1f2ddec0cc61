//! Heap budget of soft HBH converging on the `big_group` scenario: 116
//! routers, 6,000 hosts, a flash crowd of 250 receivers.
//!
//! A counting global allocator reads the high-water mark one converge
//! reaches above what the scenario already holds: kernel, node states,
//! pending events and the route rows the run computes. Two layers keep it
//! in proportion to what is pending. The event queue's calendar slots are
//! lists threaded through its slab, so a burst of in-flight packets
//! leaves no slot capacity behind once it drains. And a branching node
//! with `N` MFT entries answers each of `N` transiting trees with a
//! fusion of `N` nodes; every fusion of one calm stretch of its table
//! shares one list, which the receiving row keeps, instead of `N`
//! copies.
//!
//! Its own test binary, with one test, so nothing else allocates while it
//! counts.

use hbh_experiments::membership::{
    build_membership_graph, build_membership_scenario, MembershipConfig,
};
use hbh_experiments::runner::{build_kernel, converge};
use hbh_proto::Hbh;
use hbh_proto_base::{Timing, Workload};
use hbh_sim_core::Time;
use hbh_topo::hier::TierSpec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Live heap bytes, and the most seen since [`reset_peak`].
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, counting. `realloc` is the trait's default (allocate, copy,
/// free), so a growing `Vec` counts both blocks at its peak.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MIB: f64 = 1024.0 * 1024.0;

fn reset_peak() -> usize {
    let live = LIVE.load(Relaxed);
    PEAK.store(live, Relaxed);
    live
}

#[test]
fn soft_hbh_converges_on_big_group_within_budget() {
    let cfg = MembershipConfig {
        spec: TierSpec {
            ases: 4,
            pops_per_as: 4,
            access_per_pop: 6,
        },
        hosts: 6_000,
        base_seed: 1,
        cache_rows: 4_096,
        ..MembershipConfig::smoke()
    };
    let template = build_membership_graph(&cfg);
    let workload = Workload::flash_crowd(250, Time(0));
    let scenario = build_membership_scenario(&cfg, &template, &workload, 0);
    let timing = Timing::default();

    let before = reset_peak();
    let (mut k, _) = build_kernel(Hbh::new(timing), &scenario);
    let schedule_end = scenario.join_window.max(scenario.script.duration().0);
    assert!(converge(&mut k, &timing, schedule_end), "soft HBH settles");
    let peak = (PEAK.load(Relaxed) - before) as f64 / MIB;
    drop(k);
    println!("soft HBH on big_group: heap high-water {peak:.2} MiB");
    assert!(
        peak <= 4.0,
        "one converge peaks at {peak:.2} MiB, over its 4 MiB budget"
    );
}
