//! The warm path's ledger: what a resubmission the daemon answers from
//! its memo and store costs, counted rather than timed.
//!
//! One daemon runs in this process beside its client, and a counting
//! `#[global_allocator]` sees both. After one cold submission of an
//! eight-point grid, a warm resubmission of the same body must read the
//! store once or twice, not once per point: the eight entries were
//! written one after another, so one positioned read brings in most or
//! all of them. 100 more must read it at most twice each and stay within
//! an allocation budget per round trip, client and daemon together.
//! This file holds one test, so no other test's allocations are
//! counted. `unsafe` is confined to the allocator shim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hirata_serve::client::{fetch_stats, shutdown, submit, Mode, SubmitRequest};
use hirata_serve::json::Json;
use hirata_serve::server::{ServeConfig, Server};

/// Counts every allocation and reallocation, process-wide.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic increment, a statistic that publishes nothing else.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s requirements
        // for `layout`, passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`
        // is valid for `layout`'s alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Warm resubmissions counted.
const ROUNDS: u64 = 100;

/// Most allocations one warm round trip may make, client and daemon
/// together, as recorded: 97 (the daemon that parsed each body into a
/// tree and unescaped the program made 128). A build with debug
/// assertions runs the memo's oracle, which assembles and hashes the
/// program on every hit: 211 (against 241).
const ALLOCATIONS_PER_ROUND_TRIP: u64 = if cfg!(debug_assertions) { 211 } else { 97 };

/// A multithreaded program with memory traffic, one line per
/// instruction, so its JSON has an escape on every line.
const PROGRAM: &str = "
    fastfork
    lpid r1
    mul  r2, r1, r1
    add  r3, r1, r2
    sw   r2, 100(r1)
    sw   r3, 200(r1)
    lw   r4, 100(r1)
    add  r5, r4, r3
    sw   r5, 300(r1)
    halt
";

/// A `/stats` counter of the `cache` object.
fn cache_count(stats: &Json, field: &str) -> u64 {
    stats.get("cache").and_then(|c| c.get(field)).and_then(Json::as_u64).expect(field)
}

#[test]
fn warm_resubmissions_read_the_store_at_most_twice_and_allocate_within_budget() {
    let store = std::env::temp_dir().join(format!("hirata-warm-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let config = ServeConfig {
        http_workers: 1,
        sim_workers: Some(1),
        cache_dir: Some(store.clone()),
        trace_dir: store.join("traces"),
        quiet: true,
        ..ServeConfig::default()
    };
    let (addr, daemon) = Server::spawn(config).expect("daemon boots");
    let addr = addr.to_string();
    let request = SubmitRequest {
        name: "ledger.s".into(),
        program: PROGRAM.into(),
        slots: vec![1, 2, 4, 8],
        ls: vec![1, 2],
        mode: Mode::Pool,
        timeout_secs: None,
        trace: false,
    };
    let cold = submit(&addr, &request, &mut |_, _| {}).expect("cold submission");
    assert_eq!(cold.executed, 8);
    // The first warm round trip reads the eight entries in one or two
    // reads, and builds every lazily built buffer on both sides before
    // the count starts.
    let first = fetch_stats(&addr).expect("stats");
    submit(&addr, &request, &mut |_, _| {}).expect("warm submission");
    let before = fetch_stats(&addr).expect("stats");
    let reads = cache_count(&before, "reads") - cache_count(&first, "reads");
    assert!((1..=2).contains(&reads), "{reads} store reads for one warm submission");

    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        let warm = submit(&addr, &request, &mut |_, _| {}).expect("warm submission");
        assert_eq!((warm.cache_hits, warm.executed), (8, 0));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
    let after = fetch_stats(&addr).expect("stats");

    let hits = cache_count(&after, "hits") - cache_count(&before, "hits");
    let reads = cache_count(&after, "reads") - cache_count(&before, "reads");
    assert_eq!(hits, 8 * ROUNDS, "every warm point is a store hit");
    assert!(reads <= 2 * ROUNDS, "{reads} store reads for {ROUNDS} warm submissions");
    let per_round_trip = allocations as f64 / ROUNDS as f64;
    eprintln!("{reads} store reads and {per_round_trip:.1} allocations per warm round trip");
    assert!(
        allocations <= ALLOCATIONS_PER_ROUND_TRIP * ROUNDS,
        "{per_round_trip:.1} allocations per warm round trip, over the budget of \
         {ALLOCATIONS_PER_ROUND_TRIP}"
    );

    shutdown(&addr).expect("shutdown accepted");
    daemon.join().expect("daemon thread").expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&store);
}
