//! `service-deny` and `service-churn`: the `dracod` request loop.
//!
//! Both build the same fleet per epoch: a `DracoService` on its defaults
//! (audit ring sized to one deny round) with one tenant per fleet slot,
//! archetypes round-robin, each warmed on its whole trace.
//!
//! * `service-deny` is a closed loop. Each round every tenant submits a
//!   window of its trace with every second request perturbed, one
//!   `drain_with` decides them all, and the benchmark empties the audit
//!   ring. A decision's latency runs from its tenant's submission to the
//!   sink call that delivers it.
//! * `service-churn` is an open loop: seeded Poisson arrivals at a fixed
//!   rate, Zipf-skewed over the slots, every 17th request of a tenant
//!   perturbed, and a fixed cadence of lifecycle operations (register,
//!   admitted reload, fork, refused reload, exec, with a retire ahead of
//!   each register and fork). A decision's latency runs from its
//!   scheduled arrival to the sink call that delivers it, so a stall
//!   counts against every request it delays. Operations and arrivals
//!   are ordered by schedule time, not by when the loop gets to them, so
//!   the decision stream is a pure function of the seed. The open loop
//!   decides exactly the offered rate, so its throughput is measured
//!   after it, in closed-loop bursts on the churned fleet.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use draco_core::{DracoError, ReloadDecision};
use draco_dracod::{DracoService, ServiceConfig, ServiceError, TenantId};

use crate::inputs::{ARCHETYPES, STREAM_LEN};
use crate::spans::Name;
use crate::util::{DecisionDigest, Stream};
use crate::{pick_of_archetype, probe, stats_delta, Run, FLEET};

/// Requests each tenant submits per `service-deny` round.
const WINDOW: usize = 128;
/// Denials per `service-deny` round: the audit ring holds one round.
const AUDIT_CAPACITY: usize = FLEET * WINDOW / 2;
/// Aggregate `service-churn` arrival rate, requests per second. The loop
/// saturates near 4M/s on the 2-vCPU VM this was tuned on. At 300k/s
/// checking the requests takes under a tenth of each drain cycle; the
/// rest is the fixed per-drain metrics merge, so the median latency
/// tracks that cycle. Run beside each other on the same host, 300k/s
/// kept the median's spread well below 1.2M/s's, where queueing
/// amplified every host slowdown of the drain cycle.
pub const CHURN_RATE: f64 = 300_000.0;
/// Zipf exponent of tenant popularity in `service-churn`.
pub const CHURN_ZIPF: f64 = 1.0;
/// Every n-th request of a `service-churn` tenant is perturbed.
const CHURN_DENY_EVERY: u64 = 17;
/// `service-churn` capacity bursts per epoch, and requests per burst.
const BURSTS: usize = 4;
const BURST: usize = FLEET * WINDOW;
/// Lifecycle cadence per epoch: five cycles of the five kinds, each
/// cycle's reloads on its own archetype, so every epoch runs one
/// admitted and one refused reload per archetype.
const CHURN_KINDS: usize = 5;
const CHURN_OPS: usize = CHURN_KINDS * ARCHETYPES.len();
/// Round id of the `service-deny` round that re-checks every tenant
/// after the policy updates, outside the measured phase.
const VERIFY_ROUND: u64 = u64::MAX;
/// Decisions between clock reads in a drain sink (also read whenever the
/// tenant changes).
const CLOCK_EVERY: u64 = 16;

fn service_config() -> ServiceConfig {
    ServiceConfig {
        audit_capacity: AUDIT_CAPACITY,
        ..ServiceConfig::default()
    }
}

struct Pending {
    seq: u64,
    at_ns: u64,
    idx: u32,
    perturbed: bool,
}

struct Slot {
    id: TenantId,
    arch: usize,
    cursor: usize,
    /// `service-deny`: where this round's window starts, and how many of
    /// its decisions have arrived.
    window: usize,
    delivered: usize,
    submitted_ns: u64,
    /// `service-churn`: requests submitted since (re)registration, and
    /// those awaiting a decision, in submission order.
    submitted: u64,
    pending: VecDeque<Pending>,
}

impl Slot {
    fn new(id: TenantId, arch: usize, cursor: usize) -> Self {
        Slot {
            id,
            arch,
            cursor,
            window: 0,
            delivered: 0,
            submitted_ns: 0,
            submitted: 0,
            pending: VecDeque::with_capacity(64),
        }
    }
}

/// The tenant-id -> slot map; ids are monotone and never reused.
struct Slots {
    slots: Vec<Slot>,
    of_id: Vec<u32>,
}

impl Slots {
    fn bind(&mut self, id: TenantId, slot: usize) {
        let i = id.0 as usize;
        if self.of_id.len() <= i {
            self.of_id.resize(i + 1, u32::MAX);
        }
        self.of_id[i] = slot as u32;
    }
}

/// Registers the fleet and replays each tenant's whole trace once.
fn setup(run: &mut Run, epoch: usize, digest: &mut DecisionDigest) -> (DracoService, Slots) {
    run.tr.begin(Name::Setup, epoch as u64);
    let start = Instant::now();
    let mut svc = DracoService::new(service_config());
    let mut offsets = Stream::new(run.seed, "service.offsets");
    let mut fleet = Slots {
        slots: Vec::with_capacity(FLEET),
        of_id: Vec::with_capacity(FLEET * 2),
    };
    for i in 0..FLEET {
        let arch = i % ARCHETYPES.len();
        run.tr.begin(Name::Register, i as u64);
        let id = svc
            .register(&run.arch[arch].profile)
            .expect("catalog profiles compile");
        run.tr.end(1);
        fleet.bind(id, i);
        fleet
            .slots
            .push(Slot::new(id, arch, offsets.below(STREAM_LEN)));
    }
    for (i, s) in fleet.slots.iter().enumerate() {
        let stream = run.arch[s.arch].stream();
        run.tr.begin(Name::Submit, i as u64);
        svc.submit_all(s.id, &stream[s.cursor..])
            .expect("tenant is live");
        svc.submit_all(s.id, &stream[..s.cursor])
            .expect("tenant is live");
        run.tr.end(STREAM_LEN as u64);
    }
    let (mut n, mut wrong) = (0u64, 0u64);
    run.tr.begin(Name::Drain, 0);
    let summary = svc.drain_with(|tid, _, d| {
        let s = &mut fleet.slots[fleet.of_id[tid.0 as usize] as usize];
        let (_, expect) = run.arch[s.arch].request((s.cursor + s.delivered) % STREAM_LEN, false);
        wrong += u64::from(d.action != expect);
        digest.add((u64::from(tid.0) << 32) | s.delivered as u64, d.action);
        s.delivered += 1;
        n += 1;
    });
    run.tr.end(summary.checks);
    run.e2e.setup_s.push(start.elapsed().as_secs_f64());
    run.tr.end(0);
    for s in &mut fleet.slots {
        s.delivered = 0;
    }
    run.ledger.tally(n, wrong, "service warm-up decisions");
    run.ledger.check(n == (FLEET * STREAM_LEN) as u64, || {
        format!("warm-up delivered {n} decisions")
    });
    (svc, fleet)
}

/// Shadow work after a drain (traced run only) and the audit drain.
fn after_drain(run: &mut Run, svc: &DracoService, round: u64, served: u64) -> u64 {
    if run.tr.on() {
        run.tr.begin(Name::MetricsMerge, round);
        black_box(svc.metrics());
        run.tr.end(1);
    }
    run.layer.tenants_served += served;
    run.layer.tenants_walked += svc.len() as u64;
    run.tr.begin(Name::AuditDrain, round);
    let events = svc.audit_ring().drain_with(|e| {
        black_box(e);
    }) as u64;
    run.tr.end(events);
    events
}

/// Checks the audit accounting, records the epoch's counters, and
/// returns the service's denials.
fn reconcile(run: &mut Run, svc: &DracoService, drained: u64, expected_denials: u64) {
    let ring = svc.audit_ring();
    let stats = svc.stats();
    let (published, dropped) = (ring.events_published(), ring.events_dropped());
    run.ledger.check(published + dropped == stats.denials, || {
        format!(
            "audit: {published} published + {dropped} dropped != {} denials",
            stats.denials
        )
    });
    run.ledger.check(drained == published, || {
        format!("audit: drained {drained} of {published} published events")
    });
    run.ledger.check(stats.denials == expected_denials, || {
        format!(
            "service counted {} denials, profiles give {expected_denials}",
            stats.denials
        )
    });
    run.layer.audit_rings += 1;
    run.layer.audit_published += published;
    run.layer.audit_dropped += dropped;
}

/// Times one `DracoService::reload` and asserts its verdict: the
/// archetype's own profile is admitted, its relaxation refused. In the
/// traced run the proof is repeated on the same pair outside the
/// service, so the service's counters stay exact.
fn reload(run: &mut Run, svc: &mut DracoService, id: TenantId, arch: usize, admit: bool) {
    let a = &run.arch[arch];
    let candidate = if admit { &a.profile } else { &a.relaxed };
    if run.tr.on() {
        run.layer.reload_pairs.push((arch, admit));
    }
    run.tr.begin(Name::Reload, u64::from(id.0));
    let start = Instant::now();
    let result = svc.reload(id, candidate);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    run.tr.end(1);
    let ok = if admit {
        run.e2e.reload_admit_ms.push(ms);
        matches!(result, Ok(ReloadDecision::ProvenSafe(_)))
    } else {
        run.e2e.reload_refuse_ms.push(ms);
        matches!(
            result,
            Err(ServiceError::Draco(DracoError::ReloadRejected { .. }))
        )
    };
    run.ledger.check(ok, || {
        format!("{}: reload (admit={admit}) gave {result:?}", a.name)
    });
}

/// Repeats the proof of each reload made since the last call, on the
/// same profile pair but outside the service and after the timed phase,
/// so it neither moves the service's counters nor stalls its loop
/// (traced run).
fn shadow_proofs(run: &mut Run) {
    for (arch, admit) in std::mem::take(&mut run.layer.reload_pairs) {
        let a = &run.arch[arch];
        let (candidate, name) = if admit {
            (&a.profile, Name::SemdiffAdmit)
        } else {
            (&a.relaxed, Name::SemdiffRefuse)
        };
        run.tr.begin(name, arch as u64);
        black_box(draco_profiles::diff_profiles(&a.profile, candidate).is_ok());
        run.tr.end(1);
    }
}

pub fn run_deny(run: &mut Run) {
    for epoch in 0..run.epochs {
        let mut digest = DecisionDigest::default();
        let (mut svc, mut fleet) = setup(run, epoch, &mut digest);
        let before = svc.stats();
        let cuckoo_before = cuckoo_counts(run, &svc);
        let mut t = DenyTally::default();
        run.tr.begin(Name::Measure, epoch as u64);
        let start = Instant::now();
        let mut round = 0u64;
        loop {
            deny_round(
                run,
                &mut svc,
                &mut fleet,
                round,
                &mut digest,
                &mut t,
                &start,
            );
            round += 1;
            if start.elapsed() >= run.budget {
                break;
            }
        }
        let wall = start.elapsed();
        run.tr.end(0);
        run.ledger
            .tally(t.decisions, t.wrong, "service-deny decisions");
        run.e2e
            .checks_per_s
            .push(t.decisions as f64 / wall.as_secs_f64());
        run.e2e.end_measure(wall, run.budget);
        let after = svc.stats();
        run.layer.measured.accumulate(&stats_delta(&after, &before));
        run.layer.whole.accumulate(&after);
        service_footprint(run, &svc, cuckoo_before);
        reconcile(run, &svc, t.drained, t.denials);

        // Policy updates and lifecycle calls, after the measured phase.
        run.tr.begin(Name::Policy, epoch as u64);
        let mut admits = Stream::new(run.seed, "policy.admit");
        let mut refusals = Stream::new(run.seed, "policy.refuse");
        for a in 0..ARCHETYPES.len() {
            let i = pick_of_archetype(&mut admits, a);
            reload(run, &mut svc, fleet.slots[i].id, a, true);
            let j = pick_of_archetype(&mut refusals, a);
            reload(run, &mut svc, fleet.slots[j].id, a, false);
        }
        shadow_proofs(run);
        // Every tenant decides one more round under the policy in force.
        let mut t = DenyTally::default();
        deny_round(
            run,
            &mut svc,
            &mut fleet,
            VERIFY_ROUND,
            &mut digest,
            &mut t,
            &start,
        );
        run.ledger
            .tally(t.decisions, t.wrong, "service-deny decisions after reloads");
        let mut forks = Stream::new(run.seed, "policy.fork");
        let mut execs = Stream::new(run.seed, "policy.exec");
        for a in 0..ARCHETYPES.len() {
            let parent = fleet.slots[pick_of_archetype(&mut forks, a)].id;
            run.tr.begin(Name::Fork, u64::from(parent.0));
            let child = svc.fork(parent);
            run.tr.end(1);
            run.ledger
                .check(child.is_ok(), || format!("fork of {parent} failed"));
            let target = fleet.slots[pick_of_archetype(&mut execs, a)].id;
            let next = &run.arch[(a + 1) % ARCHETYPES.len()].profile;
            run.tr.begin(Name::Exec, u64::from(target.0));
            let exec = svc.exec(target, next);
            run.tr.end(1);
            run.ledger
                .check(exec.is_ok(), || format!("exec of {target} failed"));
        }
        for id in svc.tenant_ids() {
            run.tr.begin(Name::Retire, u64::from(id.0));
            let gone = svc.retire(id);
            run.tr.end(1);
            run.ledger
                .check(gone.is_ok(), || format!("retire of {id} failed"));
        }
        let c = svc.counters();
        let per_kind = ARCHETYPES.len() as u64;
        run.ledger.check(
            [c.reloads_permitted, c.reloads_refused, c.forked, c.execs] == [per_kind; 4]
                && c.retired == c.registered + c.forked,
            || format!("service-deny lifecycle counters {c:?}"),
        );
        run.tr.end(0);
        probe::run(run, epoch);
        probe::twin_process(run, epoch);
        run.e2e.epoch_digests.push(digest.0);
    }
}

#[derive(Default)]
struct DenyTally {
    decisions: u64,
    wrong: u64,
    denials: u64,
    drained: u64,
}

/// One closed-loop round: every tenant submits a window, one drain
/// decides it, the benchmark empties the audit ring. Latencies are recorded
/// for rounds of the measured phase only (`round != VERIFY_ROUND`).
fn deny_round(
    run: &mut Run,
    svc: &mut DracoService,
    fleet: &mut Slots,
    round: u64,
    digest: &mut DecisionDigest,
    t: &mut DenyTally,
    base: &Instant,
) {
    for (i, s) in fleet.slots.iter_mut().enumerate() {
        let a = &run.arch[s.arch];
        s.window = s.cursor;
        s.delivered = 0;
        s.submitted_ns = base.elapsed().as_nanos() as u64;
        run.tr.begin(Name::Submit, i as u64);
        for k in 0..WINDOW {
            let (req, _) = a.request((s.cursor + k) % STREAM_LEN, k % 2 == 1);
            svc.submit(s.id, *req).expect("tenant is live");
        }
        run.tr.end(WINDOW as u64);
        s.cursor = (s.cursor + WINDOW) % STREAM_LEN;
    }
    let (mut n, mut wrong, mut denials) = (0u64, 0u64, 0u64);
    let (mut last, mut now) = (TenantId(0), 0u64);
    let hist = &mut run.e2e.decide_ns;
    let arch = &run.arch;
    let first = round == 0;
    let measured = round != VERIFY_ROUND;
    run.tr.begin(Name::Drain, round);
    let summary = svc.drain_with(|tid, _, d| {
        let s = &mut fleet.slots[fleet.of_id[tid.0 as usize] as usize];
        if tid != last || n % CLOCK_EVERY == 0 {
            now = base.elapsed().as_nanos() as u64;
            last = tid;
        }
        let k = s.delivered;
        let (_, expect) = arch[s.arch].request((s.window + k) % STREAM_LEN, k % 2 == 1);
        wrong += u64::from(d.action != expect);
        denials += u64::from(!expect.permits());
        if measured {
            hist.record(now - s.submitted_ns);
        }
        if first {
            digest.add((u64::from(tid.0) << 32) | k as u64, d.action);
        }
        s.delivered += 1;
        n += 1;
    });
    run.tr.end(summary.checks);
    wrong += ((FLEET * WINDOW) as u64).abs_diff(n);
    t.drained += after_drain(run, svc, round, summary.tenants_served);
    t.decisions += n;
    t.wrong += wrong;
    t.denials += denials;
}

/// The service's cuckoo counters (traced run).
fn cuckoo_counts(run: &Run, svc: &DracoService) -> (u64, u64) {
    if !run.tr.on() {
        return (0, 0);
    }
    let c = svc.metrics().cuckoo;
    (c.insertions, c.evictions)
}

/// Records the VAT footprint and the cuckoo work of a measured phase
/// (traced run).
fn service_footprint(run: &mut Run, svc: &DracoService, cuckoo_before: (u64, u64)) {
    if run.tr.on() {
        let m = svc.metrics();
        run.layer
            .vat_bytes_per_tenant
            .push(m.vat.footprint_bytes as f64 / svc.len() as f64);
        run.layer.cuckoo_insertions += m.cuckoo.insertions - cuckoo_before.0;
        run.layer.cuckoo_evictions += m.cuckoo.evictions - cuckoo_before.1;
    }
}

/// Precomputed Zipf CDF over the fleet slots.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (0..FLEET)
        .map(|r| 1.0 / ((r + 1) as f64).powf(CHURN_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The seeded streams of one churn epoch, one per decision.
struct ChurnStreams {
    gaps: Stream,
    tenants: Stream,
    cursors: Stream,
    register: Stream,
    admit: Stream,
    fork_victim: Stream,
    fork_parent: Stream,
    refuse: Stream,
    exec: Stream,
    burst: Stream,
}

pub const CHURN_STREAMS: [&str; 10] = [
    "churn.gaps",
    "churn.tenants",
    "churn.cursors",
    "churn.register",
    "churn.admit",
    "churn.fork.victim",
    "churn.fork.parent",
    "churn.refuse",
    "churn.exec",
    "churn.burst",
];

impl ChurnStreams {
    fn new(seed: u64) -> Self {
        let s = |p: &str| Stream::new(seed, p);
        ChurnStreams {
            gaps: s(CHURN_STREAMS[0]),
            tenants: s(CHURN_STREAMS[1]),
            cursors: s(CHURN_STREAMS[2]),
            register: s(CHURN_STREAMS[3]),
            admit: s(CHURN_STREAMS[4]),
            fork_victim: s(CHURN_STREAMS[5]),
            fork_parent: s(CHURN_STREAMS[6]),
            refuse: s(CHURN_STREAMS[7]),
            exec: s(CHURN_STREAMS[8]),
            burst: s(CHURN_STREAMS[9]),
        }
    }

    /// Nanoseconds to the next arrival (exponential, mean 1/rate).
    fn gap_ns(&mut self) -> f64 {
        -(1.0 - self.gaps.unit()).ln() * 1e9 / CHURN_RATE
    }
}

/// A Zipf-chosen fleet slot.
fn zipf_slot(cdf: &[f64], stream: &mut Stream) -> usize {
    cdf.partition_point(|&c| c < stream.unit()).min(FLEET - 1)
}

/// A uniformly chosen slot currently running archetype `arch`.
fn slot_running(stream: &mut Stream, fleet: &Slots, arch: usize) -> usize {
    loop {
        let s = stream.below(FLEET);
        if fleet.slots[s].arch == arch {
            return s;
        }
    }
}

struct ChurnTally {
    decisions: u64,
    wrong: u64,
    denials: u64,
    drained: u64,
    drains: u64,
    digest: DecisionDigest,
}

pub fn run_churn(run: &mut Run) {
    let cdf = zipf_cdf();
    for epoch in 0..run.epochs {
        let mut t = ChurnTally {
            decisions: 0,
            wrong: 0,
            denials: 0,
            drained: 0,
            drains: 0,
            digest: DecisionDigest::default(),
        };
        let (mut svc, mut fleet) = setup(run, epoch, &mut t.digest);
        let before = svc.stats();
        let cuckoo_before = cuckoo_counts(run, &svc);
        let mut st = ChurnStreams::new(run.seed);
        let horizon = run.budget.as_nanos() as u64;
        let op_at = |op: usize| (2 * op as u64 + 1) * horizon / (2 * CHURN_OPS as u64);
        let mut next_at = st.gap_ns();
        let (mut seq, mut pending, mut op) = (0u64, 0u64, 0usize);
        run.tr.begin(Name::Measure, epoch as u64);
        let base = Instant::now();
        loop {
            let now = base.elapsed().as_nanos() as u64;
            let next_op = if op < CHURN_OPS { op_at(op) } else { u64::MAX };
            while (next_at as u64) <= now
                && (next_at as u64) < next_op
                && (next_at as u64) < horizon
            {
                let at = next_at as u64;
                let slot = zipf_slot(&cdf, &mut st.tenants);
                churn_submit(run, &mut svc, &mut fleet, slot, seq, at);
                run.layer.late_ns += now - at;
                run.layer.late_n += 1;
                seq += 1;
                pending += 1;
                next_at += st.gap_ns();
            }
            if next_op <= now {
                if pending > 0 {
                    pending -= churn_drain(run, &mut svc, &mut fleet, &base, &mut t, true);
                }
                churn_op(run, &mut svc, &mut fleet, &mut st, op);
                op += 1;
            } else if pending > 0 {
                pending -= churn_drain(run, &mut svc, &mut fleet, &base, &mut t, true);
            } else if next_at as u64 >= horizon && op >= CHURN_OPS {
                break;
            } else {
                std::hint::spin_loop();
            }
        }
        let wall = base.elapsed();
        run.tr.end(0);
        run.e2e.end_measure(wall, run.budget);
        let rate = churn_bursts(run, &mut svc, &mut fleet, &mut st, &base, &mut t, &mut seq);
        run.e2e.checks_per_s.push(rate);
        run.ledger
            .tally(t.decisions, t.wrong, "service-churn decisions");
        run.ledger.check(t.decisions == seq, || {
            format!("service-churn decided {} of {seq} requests", t.decisions)
        });
        let after = svc.stats();
        run.layer.measured.accumulate(&stats_delta(&after, &before));
        run.layer.whole.accumulate(&after);
        service_footprint(run, &svc, cuckoo_before);
        reconcile(run, &svc, t.drained, t.denials);
        shadow_proofs(run);
        let c = svc.counters();
        let per_kind = ARCHETYPES.len() as u64;
        run.ledger.check(
            c.registered == FLEET as u64 + per_kind
                && c.forked == per_kind
                && c.execs == per_kind
                && c.retired == 2 * per_kind
                && c.reloads_permitted == per_kind
                && c.reloads_refused == per_kind,
            || format!("service-churn lifecycle counters {c:?}"),
        );
        probe::run(run, epoch);
        probe::twin_process(run, epoch);
        run.e2e.epoch_digests.push(t.digest.0);
    }
}

/// Submits the next request of fleet slot `slot` as request `seq`,
/// scheduled at `at_ns`. Every 17th request of a tenant is perturbed.
fn churn_submit(
    run: &mut Run,
    svc: &mut DracoService,
    fleet: &mut Slots,
    slot: usize,
    seq: u64,
    at_ns: u64,
) {
    let s = &mut fleet.slots[slot];
    s.submitted += 1;
    let perturbed = s.submitted.is_multiple_of(CHURN_DENY_EVERY);
    let idx = s.cursor;
    s.cursor = (s.cursor + 1) % STREAM_LEN;
    let (req, _) = run.arch[s.arch].request(idx, perturbed);
    run.tr.begin(Name::Submit, seq);
    svc.submit(s.id, *req).expect("tenant is live");
    run.tr.end(1);
    s.pending.push_back(Pending {
        seq,
        at_ns,
        idx: idx as u32,
        perturbed,
    });
}

/// The churned fleet's capacity, measured after the open-loop phase:
/// [`BURSTS`] times, [`BURST`] Zipf-chosen requests are submitted at
/// once and one `drain_with` decides them. Returns decisions per second
/// of those submits and drains. (The open loop itself decides exactly
/// the offered rate, whatever the program's speed.)
fn churn_bursts(
    run: &mut Run,
    svc: &mut DracoService,
    fleet: &mut Slots,
    st: &mut ChurnStreams,
    base: &Instant,
    t: &mut ChurnTally,
    seq: &mut u64,
) -> f64 {
    let cdf = zipf_cdf();
    run.tr.begin(Name::Burst, 0);
    let start = Instant::now();
    let mut n = 0;
    for _ in 0..BURSTS {
        for _ in 0..BURST {
            let slot = zipf_slot(&cdf, &mut st.burst);
            churn_submit(run, svc, fleet, slot, *seq, 0);
            *seq += 1;
        }
        n += churn_drain(run, svc, fleet, base, t, false);
    }
    let rate = n as f64 / start.elapsed().as_secs_f64();
    run.tr.end(0);
    rate
}

/// Drains every queue and checks each decision against the profile in
/// force for its tenant; with `record`, logs each decision's latency
/// from its scheduled arrival. Returns the number of decisions.
fn churn_drain(
    run: &mut Run,
    svc: &mut DracoService,
    fleet: &mut Slots,
    base: &Instant,
    t: &mut ChurnTally,
    record: bool,
) -> u64 {
    let (mut n, mut wrong, mut denials) = (0u64, 0u64, 0u64);
    let (mut last, mut now) = (TenantId(0), 0u64);
    let hist = &mut run.e2e.decide_ns;
    let arch = &run.arch;
    let digest = &mut t.digest;
    run.tr.begin(Name::Drain, t.drains);
    let summary = svc.drain_with(|tid, req, d| {
        let s = &mut fleet.slots[fleet.of_id[tid.0 as usize] as usize];
        if tid != last || n % CLOCK_EVERY == 0 {
            now = base.elapsed().as_nanos() as u64;
            last = tid;
        }
        n += 1;
        let Some(p) = s.pending.pop_front() else {
            wrong += 1;
            return;
        };
        let (want, expect) = arch[s.arch].request(p.idx as usize, p.perturbed);
        wrong += u64::from(d.action != expect || req.id != want.id);
        denials += u64::from(!expect.permits());
        if record {
            hist.record(now.saturating_sub(p.at_ns));
        }
        digest.add(p.seq, d.action);
    });
    run.tr.end(summary.checks);
    t.drained += after_drain(run, svc, t.drains, summary.tenants_served);
    t.drains += 1;
    t.decisions += n;
    t.wrong += wrong;
    t.denials += denials;
    n
}

/// Runs lifecycle operation `op` of the epoch's cadence. Every queue is
/// empty here: the loop drains before each operation.
fn churn_op(
    run: &mut Run,
    svc: &mut DracoService,
    fleet: &mut Slots,
    st: &mut ChurnStreams,
    op: usize,
) {
    let arch = op / CHURN_KINDS;
    match op % CHURN_KINDS {
        0 => {
            let s = st.register.below(FLEET);
            retire(run, svc, fleet, s);
            let a = fleet.slots[s].arch;
            run.tr.begin(Name::Register, s as u64);
            let id = svc
                .register(&run.arch[a].profile)
                .expect("catalog profiles compile");
            run.tr.end(1);
            fleet.bind(id, s);
            fleet.slots[s] = Slot::new(id, a, st.cursors.below(STREAM_LEN));
        }
        1 => {
            let s = slot_running(&mut st.admit, fleet, arch);
            reload(run, svc, fleet.slots[s].id, arch, true);
        }
        2 => {
            let w = st.fork_victim.below(FLEET);
            let p = loop {
                let p = st.fork_parent.below(FLEET);
                if p != w {
                    break p;
                }
            };
            retire(run, svc, fleet, w);
            let parent = fleet.slots[p].id;
            run.tr.begin(Name::Fork, u64::from(parent.0));
            let child = svc.fork(parent).expect("parent is live");
            run.tr.end(1);
            fleet.bind(child, w);
            fleet.slots[w] = Slot::new(child, fleet.slots[p].arch, st.cursors.below(STREAM_LEN));
        }
        3 => {
            let s = slot_running(&mut st.refuse, fleet, arch);
            reload(run, svc, fleet.slots[s].id, arch, false);
        }
        _ => {
            let s = st.exec.below(FLEET);
            let next = (fleet.slots[s].arch + 1) % ARCHETYPES.len();
            let id = fleet.slots[s].id;
            run.tr.begin(Name::Exec, u64::from(id.0));
            let exec = svc.exec(id, &run.arch[next].profile);
            run.tr.end(1);
            run.ledger
                .check(exec.is_ok(), || format!("exec of {id} failed"));
            fleet.slots[s] = Slot::new(id, next, st.cursors.below(STREAM_LEN));
        }
    }
}

fn retire(run: &mut Run, svc: &mut DracoService, fleet: &Slots, s: usize) {
    let slot = &fleet.slots[s];
    run.tr.begin(Name::Retire, u64::from(slot.id.0));
    let gone = svc.retire(slot.id);
    run.tr.end(1);
    let clean = matches!(&gone, Ok(snap) if snap.queued == 0) && slot.pending.is_empty();
    run.ledger.check(clean, || {
        format!("retire of {} with work queued: {gone:?}", slot.id)
    });
}
