//! The tenant-lifecycle test battery: registry proptests.
//!
//! Two statements, machine-checked over arbitrary interleavings:
//!
//! 1. **Registry soundness** — any register/fork/retire/traffic
//!    sequence leaves the registry exactly in sync with a trivial
//!    model: no leaked shards, no resurrection of retired tenants, and
//!    tenant/process ids are strictly monotone and never reused.
//! 2. **Cross-tenant isolation** — a tenant's decision stream, checker
//!    stats, and SPT occupancy are byte-identical whether it is served
//!    alone or multiplexed with arbitrary co-tenant traffic; co-tenants
//!    can neither warm nor evict its tables.
//!
//! Plus one regression test: `exec` and `retire` kill the replaced
//! process, so its worker handles stop admitting under the old filter.

use std::collections::BTreeSet;

use draco_bpf::SeccompAction;
use draco_core::CheckResult;
use draco_dracod::{DracoService, ServiceConfig, TenantId};
use draco_profiles::{ProfileGenerator, ProfileKind, ProfileSpec};
use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};
use proptest::prelude::*;

fn arb_request() -> impl Strategy<Value = SyscallRequest> {
    (0u16..436, proptest::array::uniform6(0u64..12), 0u64..8).prop_map(|(nr, args, pc)| {
        SyscallRequest::new(0x1000 + pc * 8, SyscallId::new(nr), ArgSet::new(args))
    })
}

fn profile_from(observations: &[SyscallRequest], name: &str) -> ProfileSpec {
    let mut gen = ProfileGenerator::new(name);
    for req in observations {
        gen.observe(req);
    }
    gen.emit(ProfileKind::SyscallComplete)
}

/// One lifecycle step. Tenant-picking indices are reduced modulo the
/// live set so every generated sequence is applicable.
#[derive(Clone, Debug)]
enum Op {
    Register,
    Fork(usize),
    Retire(usize),
    Traffic(usize, Vec<SyscallRequest>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Register),
        (0usize..64).prop_map(Op::Fork),
        (0usize..64).prop_map(Op::Retire),
        ((0usize..64), proptest::collection::vec(arb_request(), 1..8))
            .prop_map(|(i, reqs)| Op::Traffic(i, reqs)),
    ]
}

fn pick(ids: &[TenantId], raw: usize) -> Option<TenantId> {
    if ids.is_empty() {
        None
    } else {
        Some(ids[raw % ids.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite 3: register/fork/retire interleavings never leak
    /// shards, never reuse a retired tenant's ProcessId, and keep the
    /// registry in lockstep with a set-model.
    #[test]
    fn registry_tracks_the_model_and_never_reuses_ids(
        seed_observed in proptest::collection::vec(arb_request(), 1..8),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let profile = profile_from(&seed_observed, "prop");
        let mut svc = DracoService::new(ServiceConfig::default());
        let mut model: BTreeSet<TenantId> = BTreeSet::new();
        let mut ever_allocated: Vec<TenantId> = Vec::new();
        let mut retired: BTreeSet<TenantId> = BTreeSet::new();

        for op in ops {
            let live: Vec<TenantId> = model.iter().copied().collect();
            match op {
                Op::Register => {
                    let id = svc.register(&profile).unwrap();
                    prop_assert!(model.insert(id), "id already live: {id}");
                    ever_allocated.push(id);
                }
                Op::Fork(raw) => {
                    if let Some(parent) = pick(&live, raw) {
                        let child = svc.fork(parent).unwrap();
                        prop_assert!(model.insert(child), "id already live: {child}");
                        ever_allocated.push(child);
                    } else {
                        prop_assert!(svc.fork(TenantId(7)).is_err());
                    }
                }
                Op::Retire(raw) => {
                    if let Some(victim) = pick(&live, raw) {
                        svc.retire(victim).unwrap();
                        model.remove(&victim);
                        retired.insert(victim);
                        // Resurrection attempts fail on every entry point.
                        prop_assert!(svc.submit(victim, SyscallRequest::new(
                            0, SyscallId::new(0), ArgSet::empty())).is_err());
                        prop_assert!(svc.retire(victim).is_err());
                    } else {
                        prop_assert!(svc.retire(TenantId(7)).is_err());
                    }
                }
                Op::Traffic(raw, reqs) => {
                    if let Some(id) = pick(&live, raw) {
                        svc.submit_all(id, &reqs).unwrap();
                        svc.drain();
                    }
                }
            }
            // Registry == model after every step: no leaked shards.
            prop_assert_eq!(svc.tenant_ids(), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(svc.len(), model.len());
        }

        // Ids are strictly monotone — allocation order is id order —
        // hence never reused, retired or not.
        for pair in ever_allocated.windows(2) {
            prop_assert!(pair[1] > pair[0], "allocation went backwards: {pair:?}");
        }
        let distinct: BTreeSet<TenantId> = ever_allocated.iter().copied().collect();
        prop_assert_eq!(distinct.len(), ever_allocated.len(), "an id was handed out twice");
        // Pids mirror tenant ids 1:1, so pid uniqueness follows; check
        // the live ones anyway against the snapshots.
        for snap in svc.snapshots() {
            prop_assert_eq!(snap.pid.0, snap.id.0);
            prop_assert!(!retired.contains(&snap.id), "retired tenant still live");
        }
        // The allocator never rewinds below what was handed out.
        if let Some(last) = ever_allocated.last() {
            prop_assert!(svc.next_allocation() > last.0);
        }
        let counters = svc.counters();
        prop_assert_eq!(counters.registered + counters.forked, ever_allocated.len() as u64);
        prop_assert_eq!(counters.retired, retired.len() as u64);
    }

    /// Tentpole battery: tenant A's decisions, stats, and SPT occupancy
    /// are byte-unaffected by arbitrary co-tenant traffic.
    #[test]
    fn co_tenant_traffic_never_changes_a_tenants_behavior(
        a_observed in proptest::collection::vec(arb_request(), 1..10),
        a_stream in proptest::collection::vec(arb_request(), 1..30),
        b_observed in proptest::collection::vec(arb_request(), 1..10),
        b_stream in proptest::collection::vec(arb_request(), 1..30),
        b_tenants in 1usize..4,
    ) {
        let a_profile = profile_from(&a_observed, "tenant-a");
        let b_profile = profile_from(&b_observed, "tenant-b");

        // Solo run: A alone, its stream split over two drain rounds.
        let mut solo = DracoService::new(ServiceConfig::default());
        let a_solo = solo.register(&a_profile).unwrap();
        let mut solo_decisions: Vec<CheckResult> = Vec::new();
        let split = a_stream.len() / 2;
        for half in [&a_stream[..split], &a_stream[split..]] {
            solo.submit_all(a_solo, half).unwrap();
            solo.drain_with(|_, _, d| solo_decisions.push(d));
        }

        // Duo run: same A, plus co-tenants hammering their own tables
        // in the same drain rounds (and churning: the last co-tenant
        // retires between rounds).
        let mut duo = DracoService::new(ServiceConfig::default());
        let a_duo = duo.register(&a_profile).unwrap();
        let bs: Vec<TenantId> = (0..b_tenants)
            .map(|_| duo.register(&b_profile).unwrap())
            .collect();
        let mut duo_decisions: Vec<CheckResult> = Vec::new();
        for (round, half) in [&a_stream[..split], &a_stream[split..]].into_iter().enumerate() {
            duo.submit_all(a_duo, half).unwrap();
            for &b in &bs {
                if duo.contains(b) {
                    duo.submit_all(b, &b_stream).unwrap();
                }
            }
            duo.drain_with(|tenant, _, d| {
                if tenant == a_duo {
                    duo_decisions.push(d);
                }
            });
            if round == 0 {
                duo.retire(*bs.last().unwrap()).unwrap();
            }
        }

        // Decision streams are identical, including the cache path
        // taken — co-tenants could only diverge A by touching A's
        // tables, and they cannot.
        prop_assert_eq!(&solo_decisions, &duo_decisions);
        prop_assert_eq!(
            solo.tenant_stats(a_solo).unwrap(),
            duo.tenant_stats(a_duo).unwrap(),
            "A's checker counters moved under co-tenant traffic"
        );
        prop_assert_eq!(
            solo.spt_valid_count(a_solo).unwrap(),
            duo.spt_valid_count(a_duo).unwrap(),
            "A's SPT occupancy moved under co-tenant traffic"
        );
        let solo_snap = solo.snapshot(a_solo).unwrap();
        let duo_snap = duo.snapshot(a_duo).unwrap();
        prop_assert_eq!(solo_snap.checks, duo_snap.checks);
        prop_assert_eq!(solo_snap.allowed, duo_snap.allowed);
        prop_assert_eq!(solo_snap.denials, duo_snap.denials);
        prop_assert_eq!(solo_snap.cache_hits, duo_snap.cache_hits);
    }
}

/// Exec and retire end the replaced process's thread group, as `execve`
/// kills sibling threads: a worker handle on the old process answers
/// `KillProcess` instead of admitting under the old filter, and every
/// check a worker made while its process was live reaches the service
/// totals.
#[test]
fn exec_and_retire_kill_the_replaced_processes_workers() {
    let read = SyscallRequest::new(
        0x1000,
        SyscallId::new(0),
        ArgSet::from_slice(&[3, 0xaaaa, 64]),
    );
    let getpid = SyscallRequest::new(0x1000, SyscallId::new(39), ArgSet::from_slice(&[]));
    let reads = profile_from(&[read, getpid], "reads");
    let no_reads = profile_from(&[getpid], "no-reads");
    assert_eq!(no_reads.evaluate(&read), SeccompAction::KillProcess);

    let mut svc = DracoService::new(ServiceConfig::default());
    let id = svc.register(&reads).unwrap();
    let mut old = svc.spawn_worker(id).unwrap();
    assert_eq!(old.syscall(&read).action, SeccompAction::Allow);
    assert_eq!(old.syscall(&read).action, SeccompAction::Allow);
    old.sync_stats();

    svc.exec(id, &no_reads).unwrap();
    assert_eq!(
        old.syscall(&read).action,
        SeccompAction::KillProcess,
        "the old filter would allow read: exec killed the old group"
    );
    let mut out = [CheckResult::KILLED; 2];
    old.syscall_batch(&[read, getpid], &mut out);
    assert_eq!(out, [CheckResult::KILLED; 2]);
    assert_eq!(old.stats().total(), 0, "a dead group checks nothing");

    let mut new = svc.spawn_worker(id).unwrap();
    assert_eq!(new.syscall(&getpid).action, SeccompAction::Allow);
    new.sync_stats();
    svc.retire(id).unwrap();
    assert_eq!(
        new.syscall(&getpid).action,
        SeccompAction::KillProcess,
        "the filter would allow getpid: retire killed the group"
    );
    assert_eq!(new.stats().total(), 0, "a dead group checks nothing");

    drop((old, new));
    assert_eq!(svc.stats().total(), 3, "every live worker check is counted");
    assert_eq!(svc.metrics().checker.total(), 3);
}
