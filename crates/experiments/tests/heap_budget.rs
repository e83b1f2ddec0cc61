//! Heap budget of the frozen `scale_spf` topology (2,704 routers, 50,000
//! hosts, 106,420 directed edges) and of one per-draw cost draw over it.
//!
//! A counting global allocator reads the bytes each step leaves live and
//! the high-water mark it reaches. The template holds node kinds, edge
//! chains, costs and capability flags in flat arrays, so it fits in
//! 3 MiB. A draw clones the template, which shares its structure, and
//! re-costs every link by edge id: it keeps only the clone's attributes
//! and peaks below 1 MiB.
//!
//! Its own test binary, with one test, so nothing else allocates while it
//! counts.

use hbh_experiments::scale::{build_scale_graph, ScaleConfig};
use hbh_topo::costs;
use hbh_topo::graph::Cost;
use hbh_topo::hier::TierSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

fn mib(bytes: usize) -> f64 {
    bytes as f64 / MIB
}

#[test]
fn scale_spf_template_and_cost_draw_stay_in_budget() {
    let cfg = ScaleConfig {
        spec: TierSpec {
            ases: 16,
            pops_per_as: 8,
            access_per_pop: 20,
        },
        hosts: 50_000,
        base_seed: 1,
        ..ScaleConfig::smoke()
    };

    let before = reset_peak();
    let template = build_scale_graph(&cfg);
    let held = LIVE.load(Relaxed) - before;
    assert_eq!(template.directed_edge_count(), 106_420);
    assert!(
        mib(held) <= 3.0,
        "the template holds {:.2} MiB, over its 3 MiB budget",
        mib(held)
    );

    let before = reset_peak();
    let mut draw = template.clone();
    costs::assign_paper_costs(&mut draw, &mut StdRng::seed_from_u64(1));
    let (kept, peak) = (LIVE.load(Relaxed) - before, PEAK.load(Relaxed) - before);
    // The attributes alone: one cost per directed edge, one capability
    // flag per node. The structure stays shared with the template.
    let attributes = template.directed_edge_count() * size_of::<Cost>() + template.node_count();
    assert_eq!(
        kept, attributes,
        "a draw keeps {kept} B, not only its attributes"
    );
    assert!(
        mib(peak) <= 1.0,
        "clone + cost draw peaks at {:.2} MiB, over its 1 MiB budget",
        mib(peak)
    );
    println!(
        "template {:.2} MiB; draw keeps {:.2} MiB, peaks at {:.2} MiB",
        mib(held),
        mib(kept),
        mib(peak)
    );
}
