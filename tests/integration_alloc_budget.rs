//! Heap allocations per steady-state engine tick: a work counter that
//! does not depend on the host.
//!
//! A counting global allocator tallies every allocation (fresh, zeroed
//! or grown) made on the calling thread. Each test builds a §8.6 engine,
//! warms it up so queues, edge buffers and scratch space reach their
//! working size, and then counts the allocations of the next ticks with
//! no controller running. The bounds are the measured per-tick counts
//! plus a small margin: a change that puts an allocation back on the
//! per-tick path fails here by name. Never raise a bound to make a
//! change pass; make the tick allocate less instead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wasp_netsim::dynamics::DynamicsScript;
use wasp_netsim::testbed::{Testbed, TestbedConfig};
use wasp_streamsim::engine::{Engine, EngineConfig};
use wasp_workloads::prelude::*;

/// Forwards to the system allocator and counts, per thread, every
/// request that obtains memory.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread's locals are being torn
    // down; allocations made then are not part of any measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a `const`
// initialised thread-local `Cell` that never allocates or panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's guarantees on `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // obtained them from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Ticks run before counting (100 simulated seconds at dt = 0.25).
const WARMUP_TICKS: u32 = 400;
/// Ticks counted.
const COUNTED_TICKS: u32 = 160;

/// A Top-K engine under the §8.6 dynamics on `edges` edge sites plus
/// the testbed's data centers, at the default tick.
fn section_8_6_engine(edges: usize, seed: u64) -> Engine {
    let tb = Testbed::with_config(TestbedConfig {
        edges,
        seed,
        ..TestbedConfig::default()
    });
    let script = DynamicsScript::section_8_6(tb.edges(), 1800.0, seed);
    build_engine(QueryKind::TopK, &tb, script, EngineConfig::default()).0
}

/// Mean heap allocations per tick over [`COUNTED_TICKS`] ticks after a
/// [`WARMUP_TICKS`]-tick warm-up.
fn allocations_per_tick(mut engine: Engine) -> f64 {
    for _ in 0..WARMUP_TICKS {
        engine.step();
    }
    let before = allocations();
    for _ in 0..COUNTED_TICKS {
        engine.step();
    }
    (allocations() - before) as f64 / f64::from(COUNTED_TICKS)
}

#[test]
fn wide_engine_tick_stays_within_its_allocation_budget() {
    let per_tick = allocations_per_tick(section_8_6_engine(64, 1));
    eprintln!("64-edge §8.6 engine: {per_tick:.2} allocations per tick");
    assert!(
        per_tick <= WIDE_BUDGET,
        "{per_tick:.2} allocations per tick exceed the budget of {WIDE_BUDGET}"
    );
}

#[test]
fn xray_engine_tick_stays_within_its_allocation_budget() {
    let mut engine = section_8_6_engine(8, 1);
    engine.enable_xray(XRAY_DEFAULT_WINDOW_S);
    let per_tick = allocations_per_tick(engine);
    eprintln!("16-site §8.6 engine, xray on: {per_tick:.2} allocations per tick");
    assert!(
        per_tick <= XRAY_BUDGET,
        "{per_tick:.2} allocations per tick exceed the budget of {XRAY_BUDGET}"
    );
}

#[test]
fn paper_engine_tick_stays_within_its_allocation_budget() {
    let per_tick = allocations_per_tick(section_8_6_engine(8, 1));
    eprintln!("16-site §8.6 engine: {per_tick:.2} allocations per tick");
    assert!(
        per_tick <= PAPER_BUDGET,
        "{per_tick:.2} allocations per tick exceed the budget of {PAPER_BUDGET}"
    );
}

/// Per-tick allocation budget of the 64-edge engine: 2.36 measured
/// (25.14 while `Network::allocate` built its working vectors afresh
/// on every call, 341.12 before the tick reused its buffers and dense
/// tables).
const WIDE_BUDGET: f64 = 3.0;
/// Per-tick allocation budget of the 16-site engine: 0.81 measured
/// (24.47 with a fresh `Network::allocate` workspace, 111.64 before).
const PAPER_BUDGET: f64 = 1.5;
/// Per-tick allocation budget of the 16-site engine with xray on:
/// 14.17 measured (37.83 with a fresh `Network::allocate` workspace).
/// 13.31 of them are queues of stamped cohorts that return to lean
/// storage when emptied and are rebuilt at their next push; cohort
/// moves through the reused batch allocate nothing.
const XRAY_BUDGET: f64 = 15.0;
