//! Heap allocations of a warm `Cpi2Harness::step`, counted rather than
//! timed.
//!
//! A counting global allocator makes this file its own test binary. The
//! counts are of `alloc` and `realloc` calls made by the measuring thread,
//! and of the bytes they asked for, over a fixed stretch of a seeded
//! lossy-fault run with telemetry off. With telemetry off the tick's seam
//! clock reads no clock and allocates nothing, so the count is the
//! detection chain's own: readings, batches, incidents, trace spans,
//! shipments and spec refreshes.

use cpi2::core::Cpi2Config;
use cpi2::harness::Cpi2Harness;
use cpi2::sim::{
    Cluster, ClusterConfig, FaultPlan, FaultProfile, JobSpec, Platform, ResourceProfile,
    SimDuration,
};
use cpi2::workloads::{CacheThrasher, LsService};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread asked for, frees not subtracted.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes asked for while `f` runs on this thread.
fn counted(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// Six machines with one latency-sensitive task each, under the lossy
/// fault profile; a cache thrasher lands once the spec is learned.
#[test]
fn a_warm_untimed_harness_step_allocates_as_pinned() {
    let mut cluster = Cluster::new(ClusterConfig {
        seed: 7,
        ..ClusterConfig::default()
    });
    cluster.add_machines(&Platform::westmere(), 6);
    cluster
        .submit_job(
            JobSpec::latency_sensitive("frontend", 6, 1.0),
            true,
            Box::new(|i| {
                let profile = ResourceProfile::cache_heavy();
                Box::new(LsService::new(profile, 1.0, 12, 7 ^ u64::from(i)))
            }),
        )
        .expect("placement");
    let config = Cpi2Config {
        min_samples_per_task: 5,
        ..Cpi2Config::default()
    };
    let mut system = Cpi2Harness::new(cluster, config);
    assert!(!system.telemetry().is_enabled());
    system.set_fault_plan(Some(FaultPlan::new(0xFA17, FaultProfile::lossy())));
    system.run_for(SimDuration::from_mins(30));
    system.force_spec_refresh();
    system
        .cluster
        .submit_job(
            JobSpec::best_effort("thrasher", 1, 1.0),
            true,
            Box::new(|_| Box::new(CacheThrasher::new(8.0, 300, 300, 99))),
        )
        .expect("placement");
    system.run_for(SimDuration::from_mins(10));
    let before = (system.caps_applied(), system.shipment_faults());
    let counts = counted(|| system.run_for(SimDuration::from_mins(60)));
    // The hour detects and caps, and faults fire in it.
    assert!(system.caps_applied() > before.0, "no cap in the hour");
    assert!(system.shipment_faults() > before.1, "no fault in the hour");
    // The tick's seams and their clock add none.
    assert_eq!(
        counts,
        (797, 124_704),
        "(allocations, bytes) over an hour of ticks"
    );
}
