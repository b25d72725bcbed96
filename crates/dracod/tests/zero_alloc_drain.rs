//! Machine-checked cost contract for the `dracod` request loop: on a
//! warmed fleet, submitting an all-hit round and draining it performs
//! **zero heap allocations** — no per-drain list of tenants, no
//! per-drain metrics re-merge buffer, nothing that grows with the fleet.
//!
//! The library forbids `unsafe`, so the counting allocator lives here in
//! the test binary (the same one `crates/core/tests/zero_alloc_shared.rs`
//! uses). The counter only runs while the measuring thread arms it, so
//! harness threads can never be mistaken for drain-path allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use draco_dracod::{DracoService, ServiceConfig, TenantId};
use draco_profiles::{ProfileGenerator, ProfileKind};
use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_enabled() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_enabled() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations `f` performs on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

fn req(nr: u16, args: &[u64]) -> SyscallRequest {
    SyscallRequest::new(0x1000, SyscallId::new(nr), ArgSet::from_slice(args))
}

#[test]
fn warm_all_hit_drain_does_not_allocate() {
    // VAT-checked reads and writes plus an SPT-only getpid, each tenant
    // submitting more than one `check_batch` worth per round.
    let stream: Vec<SyscallRequest> = (0..200u64)
        .map(|i| match i % 4 {
            0 => req(0, &[3, i, 64]),
            1 => req(0, &[4, i, 128]),
            2 => req(1, &[3, i, 64]),
            _ => req(39, &[]),
        })
        .collect();
    let mut gen = ProfileGenerator::new("zero-alloc-drain");
    for r in &stream {
        gen.observe(r);
    }
    let profile = gen.emit(ProfileKind::SyscallComplete);

    let mut svc = DracoService::new(ServiceConfig::default());
    let fleet: Vec<TenantId> = (0..16).map(|_| svc.register(&profile).unwrap()).collect();
    // Idle tenants the drain must not walk.
    for _ in 0..16 {
        svc.register(&profile).unwrap();
    }
    // A worker-bearing tenant: every drain refreshes it.
    let _worker = svc.spawn_worker(fleet[0]).unwrap();

    // Warm-up rounds validate every pair and grow the queues, the ready
    // list, the drain scratch and each handle's batch scratch to size.
    for _ in 0..2 {
        for &id in &fleet {
            svc.submit_all(id, &stream).unwrap();
        }
        svc.drain();
    }

    let ((), submit_allocs) = allocations_in(|| {
        for &id in &fleet {
            svc.submit_all(id, &stream).unwrap();
        }
    });
    let mut decided = 0u64;
    let (summary, drain_allocs) = allocations_in(|| svc.drain_with(|_, _, _| decided += 1));

    assert_eq!(summary.tenants_served, fleet.len() as u64);
    assert_eq!(summary.checks, (fleet.len() * stream.len()) as u64);
    assert_eq!(decided, summary.checks);
    assert_eq!(
        summary.cache_hits, summary.checks,
        "every check hits: {summary:?}"
    );
    assert_eq!(
        submit_allocs, 0,
        "warm submits allocated {submit_allocs} times"
    );
    assert_eq!(
        drain_allocs, 0,
        "a warm all-hit drain allocated {drain_allocs} times"
    );
}
