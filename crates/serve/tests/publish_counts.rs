//! The publisher's heap work, counted rather than timed: what a publish
//! allocates must follow what changed, not the size of the fleet or of
//! the tails it shares; what serving the published incidents allocates
//! must follow the bytes it sends; and what a scrape allocates must not
//! follow the number of series it renders.
//!
//! A counting global allocator makes this file its own test binary. Each
//! count is of `alloc` and `realloc` calls (blocks) and the bytes they
//! ask for, made by the measuring thread while one publish runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::Arc;

mod common;

use cpi2::core::CpiSample;
use cpi2_serve::chunked::CHUNK;
use cpi2_serve::state::{MachineRow, SAMPLE_TAIL};
use cpi2_serve::{Request, Router, ServeHarness};

struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
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

/// `(blocks, bytes)` this thread allocated while `f` ran.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let before = (BLOCKS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        BLOCKS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// A served, detecting fleet past its warm-up: the sample tail full, the
/// snapshot published, and nothing new since.
fn warm(machines: u32) -> ServeHarness {
    let mut sh = ServeHarness::new(common::fleet(0x1ED6, machines));
    for tick in 0..600 {
        if tick == 300 {
            common::plant(sh.inner_mut(), machines);
        }
        sh.tick();
    }
    sh.publish();
    assert_eq!(sh.state().live.snapshot().samples.len(), SAMPLE_TAIL);
    sh
}

/// What a publish allocates with `k` new samples and nothing else new.
fn publish_with_samples(sh: &mut ServeHarness, k: usize) -> (usize, usize) {
    let newest = sh.state().live.snapshot().samples.last().cloned();
    let newest: CpiSample = newest.expect("a full tail");
    sh.inner_mut().samples = vec![newest; k];
    counted(|| sh.publish())
}

#[test]
fn a_warm_publish_costs_the_same_blocks_at_any_fleet_size() {
    let (small, large) = (12, 96);
    let (blocks_small, bytes_small) = publish_with_samples(&mut warm(small), 0);
    let (blocks_large, bytes_large) = publish_with_samples(&mut warm(large), 0);
    // The rows array and the snapshot's own `Arc`: every task list is
    // still current, every tail and the spec set are shared as they are.
    assert_eq!((blocks_small, blocks_large), (2, 2));
    let rows = (large - small) as usize * size_of::<MachineRow>();
    assert!(
        bytes_large <= bytes_small + rows,
        "{bytes_small} B at {small} machines, {bytes_large} B at {large}: \
         more than the {rows} B of their rows apart"
    );
}

#[test]
fn appending_samples_costs_what_is_appended_not_the_tail() {
    let mut sh = warm(12);
    let (base_blocks, base_bytes) = publish_with_samples(&mut sh, 0);
    // Samples sit inline in their chunks. The published snapshot holds
    // the tail, so an append copies the chunk index and the open chunk,
    // and starts a chunk per `CHUNK` samples: two blocks each, an
    // `Arc`'s and its vector's. None of it grows with the tail.
    let arc_vec = size_of::<Vec<usize>>() + 2 * size_of::<usize>();
    let index = arc_vec + (SAMPLE_TAIL / CHUNK + 2) * size_of::<usize>();
    let chunk = arc_vec + CHUNK * size_of::<CpiSample>();
    for k in [1, 9, 40] {
        let (blocks, bytes) = publish_with_samples(&mut sh, k);
        let (blocks, bytes) = (blocks - base_blocks, bytes - base_bytes);
        let started = k.div_ceil(CHUNK);
        assert!(
            (2..=4 + 2 * started).contains(&blocks),
            "{k} samples: {blocks} blocks"
        );
        let copies = index + (1 + started) * chunk;
        assert!(
            bytes <= copies,
            "{k} samples: {bytes} B, more than the {copies} B of an index and {} chunks",
            1 + started
        );
    }
}

#[test]
fn an_incidents_response_allocates_a_chunk_per_incident() {
    let mut sh = warm(12);
    // An hour more of the thrasher: a log of incidents to serve.
    for _ in 0..3_600 {
        sh.tick();
    }
    sh.publish();
    let snap = sh.state().live.snapshot();
    let n = snap.incidents.len();
    assert!(n >= 20, "{n} incidents");
    // The array's bytes: each incident's JSON and the comma before it,
    // less the first comma, and the brackets.
    let json: usize = snap.incidents.iter().map(|inc| inc.json.len() + 1).sum();
    let router = Router::new(sh.state());
    let request = Request {
        method: "GET".into(),
        path: "/incidents".into(),
        ..Request::default()
    };
    let mut sent = 0;
    let (blocks, bytes) = counted(|| {
        let response = router.handle(&request);
        assert_eq!(response.status, 200);
        let cpi2_serve::http::Body::Chunks(chunks) = response.body else {
            panic!("/incidents streams its array");
        };
        for chunk in chunks {
            sent += chunk.len();
        }
    });
    assert_eq!(sent, json + 1);
    // A chunk per incident, one per bracket and the boxed producer: the
    // published JSON is copied once, into the chunk that sends it.
    assert_eq!(blocks, n + 3);
    let producer = bytes - json - 2;
    assert!(producer <= 256, "{bytes} B for {sent} B sent");
}

/// One GET through the router, after a first one: each export sizes its
/// buffer from the last. Returns the blocks allocated and the body's
/// length.
fn scrape(router: &Router, path: &str) -> (usize, usize) {
    let request = Request {
        method: "GET".into(),
        path: path.into(),
        ..Request::default()
    };
    router.handle(&request);
    let mut response = None;
    let (blocks, _) = counted(|| response = Some(router.handle(&request)));
    let response = response.expect("handled");
    assert_eq!(response.status, 200, "{path}");
    (blocks, response.into_body_bytes().len())
}

/// `export.rs` renders every series into one buffer and allocates nothing
/// per series: a scrape of the registry a served fleet builds, and one
/// of the same registry with 16 more histogram series, allocate that
/// buffer alone. What the series add to the body is printed.
#[test]
fn a_scrape_allocates_the_same_blocks_at_any_registry_size() {
    const PATHS: [&str; 2] = ["/metrics", "/metrics.json"];
    const EXTRA: usize = 16;
    let state = warm(12).state();
    let router = Router::new(Arc::clone(&state));
    let built = PATHS.map(|path| scrape(&router, path));
    for i in 0..EXTRA {
        let seam = format!("ledger.{i:02}");
        let series = state
            .telemetry
            .histogram("cpi_tick_seam_duration_us", &[("seam", &seam)]);
        series.record(40.0 + i as f64);
    }
    let grown = PATHS.map(|path| scrape(&router, path));
    for ((path, (blocks, body)), (grown_blocks, grown_body)) in PATHS.iter().zip(built).zip(grown) {
        assert_eq!(
            (blocks, grown_blocks),
            (1, 1),
            "{path}: as built, then {EXTRA} series more"
        );
        let per_series = (grown_body - body) / EXTRA;
        println!("{path}: {body} B as built, {grown_body} B with {EXTRA} series more: {per_series} B a series");
    }
}
