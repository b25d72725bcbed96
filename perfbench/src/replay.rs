//! `process-replay`: the paper's software Draco, one process at a time.
//!
//! Each epoch spawns a fleet of `DracoProcess`es (archetypes round-robin)
//! and warms each on its own trace. The measured phase then schedules
//! the fleet round-robin in quanta of 128..=384 calls, each call a
//! scalar `DracoProcess::syscall`. Every request is one its profile
//! allows, so after warm-up the SPT -> CRC-64 -> VAT hit path does all
//! the work. Deny traffic would kill the process: its profile defaults
//! to `KillProcess`, and a dead process answers without checking.
//!
//! A request's decision latency runs from its quantum's dispatch to the
//! return of its call; the clock is read once per 32 calls.

use std::time::Instant;

use draco_core::{CheckerStats, DracoProcess, ProcessId};

use crate::inputs::{ARCHETYPES, STREAM_LEN};
use crate::spans::Name;
use crate::util::{DecisionDigest, Stream};
use crate::{pick_of_archetype, probe, stats_delta, Run, FLEET};

const QUANTUM_MIN: usize = 128;
/// Quanta are `QUANTUM_MIN..QUANTUM_MIN + QUANTUM_SPREAD` calls long.
const QUANTUM_SPREAD: usize = 257;
/// Calls per clock read inside a quantum.
const GROUP: usize = 32;

struct Member {
    process: DracoProcess,
    arch: usize,
    cursor: usize,
}

fn fleet_stats(fleet: &[Member]) -> CheckerStats {
    let mut total = CheckerStats::default();
    for m in fleet {
        total.accumulate(&m.process.stats());
    }
    total
}

pub fn run(run: &mut Run) {
    for epoch in 0..run.epochs {
        let mut digest = DecisionDigest::default();
        let mut fleet = setup(run, epoch, &mut digest);
        measure(run, epoch, &mut fleet);
        policy(run, epoch, &mut fleet, &mut digest);
        probe::run(run, epoch);
        probe::twin_service(run, epoch);
        run.e2e.epoch_digests.push(digest.0);
    }
}

/// Spawns the fleet and replays each member's whole trace once.
fn setup(run: &mut Run, epoch: usize, digest: &mut DecisionDigest) -> Vec<Member> {
    run.tr.begin(Name::Setup, epoch as u64);
    let start = Instant::now();
    let mut offsets = Stream::new(run.seed, "replay.offsets");
    let mut fleet = Vec::with_capacity(FLEET);
    for i in 0..FLEET {
        let arch = i % ARCHETYPES.len();
        run.tr.begin(Name::ProcessSpawn, i as u64);
        let process = DracoProcess::spawn(ProcessId(i as u32 + 1), &run.arch[arch].profile)
            .expect("catalog profiles compile");
        run.tr.end(1);
        fleet.push(Member {
            process,
            arch,
            cursor: offsets.below(STREAM_LEN),
        });
    }
    let mut wrong = 0u64;
    for (i, m) in fleet.iter_mut().enumerate() {
        let a = &run.arch[m.arch];
        for k in 0..STREAM_LEN {
            let (req, expect) = a.request((m.cursor + k) % STREAM_LEN, false);
            let d = m.process.syscall(req);
            wrong += u64::from(d.action != expect);
            digest.add(((i as u64) << 32) | k as u64, d.action);
        }
    }
    run.e2e.setup_s.push(start.elapsed().as_secs_f64());
    run.tr.end(0);
    run.ledger.tally(
        (FLEET * STREAM_LEN) as u64,
        wrong,
        "process-replay warm-up decisions",
    );
    fleet
}

/// Cuckoo insertions and evictions over the fleet's VATs (traced run).
fn cuckoo_counts(run: &Run, fleet: &[Member]) -> (u64, u64) {
    if !run.tr.on() {
        return (0, 0);
    }
    fleet.iter().fold((0, 0), |(ins, ev), m| {
        let c = m.process.checker().metrics().cuckoo;
        (ins + c.insertions, ev + c.evictions)
    })
}

fn measure(run: &mut Run, epoch: usize, fleet: &mut [Member]) {
    let before = fleet_stats(fleet);
    let cuckoo_before = cuckoo_counts(run, fleet);
    let mut quanta = Stream::new(run.seed, "replay.quanta");
    let (mut checks, mut wrong) = (0u64, 0u64);
    run.tr.begin(Name::Measure, epoch as u64);
    let start = Instant::now();
    let mut round = 0u64;
    loop {
        for (i, m) in fleet.iter_mut().enumerate() {
            let q = QUANTUM_MIN + quanta.below(QUANTUM_SPREAD);
            let a = &run.arch[m.arch];
            run.tr.begin(Name::Syscall, (round << 16) | i as u64);
            let dispatch = Instant::now();
            let mut done = 0;
            while done < q {
                let group = GROUP.min(q - done);
                for _ in 0..group {
                    let (req, expect) = a.request(m.cursor, false);
                    let d = m.process.syscall(req);
                    wrong += u64::from(d.action != expect);
                    m.cursor = if m.cursor + 1 == STREAM_LEN {
                        0
                    } else {
                        m.cursor + 1
                    };
                }
                done += group;
                let latency = dispatch.elapsed().as_nanos() as u64;
                run.e2e.decide_ns.record_n(latency, group as u64);
            }
            run.tr.end(q as u64);
            checks += q as u64;
        }
        round += 1;
        if start.elapsed() >= run.budget {
            break;
        }
    }
    let wall = start.elapsed();
    run.tr.end(0);
    run.ledger.tally(checks, wrong, "process-replay decisions");
    run.e2e
        .checks_per_s
        .push(checks as f64 / wall.as_secs_f64());
    run.e2e.end_measure(wall, run.budget);
    let after = fleet_stats(fleet);
    run.layer.measured.accumulate(&stats_delta(&after, &before));
    run.layer.whole.accumulate(&after);
    if run.tr.on() {
        let (ins, ev) = cuckoo_counts(run, fleet);
        run.layer.cuckoo_insertions += ins - cuckoo_before.0;
        run.layer.cuckoo_evictions += ev - cuckoo_before.1;
        let bytes: u64 = fleet
            .iter()
            .map(|m| m.process.checker().metrics().vat.footprint_bytes)
            .sum();
        run.layer
            .vat_bytes_per_tenant
            .push(bytes as f64 / fleet.len() as f64);
    }
}

/// One admitted and one refused policy update per archetype. A process
/// applies the same refinement gate as `dracod`: `diff_profiles` must
/// prove the candidate equivalent or tighter before
/// `DracoChecker::install_additional` runs.
fn policy(run: &mut Run, epoch: usize, fleet: &mut [Member], digest: &mut DecisionDigest) {
    run.tr.begin(Name::Policy, epoch as u64);
    let mut admits = Stream::new(run.seed, "policy.admit");
    let mut refusals = Stream::new(run.seed, "policy.refuse");
    for a in 0..ARCHETYPES.len() {
        let arch = &run.arch[a];
        let i = pick_of_archetype(&mut admits, a);
        let start = Instant::now();
        run.tr.begin(Name::SemdiffAdmit, i as u64);
        let proof = draco_profiles::diff_profiles(fleet[i].process.profile(), &arch.profile);
        run.tr.end(1);
        let safe = matches!(&proof, Ok(d) if d.report.relation.is_safe_swap());
        let installed = safe && {
            run.tr.begin(Name::Install, i as u64);
            let ok = fleet[i]
                .process
                .checker_mut()
                .install_additional(&arch.profile)
                .is_ok();
            run.tr.end(1);
            ok
        };
        run.e2e
            .reload_admit_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        run.ledger.check(installed, || {
            format!("{}: equivalent update not admitted", arch.name)
        });

        let j = pick_of_archetype(&mut refusals, a);
        let start = Instant::now();
        run.tr.begin(Name::SemdiffRefuse, j as u64);
        let proof = draco_profiles::diff_profiles(fleet[j].process.profile(), &arch.relaxed);
        run.tr.end(1);
        run.e2e
            .reload_refuse_ms
            .push(start.elapsed().as_secs_f64() * 1e3);
        let refused = matches!(&proof, Ok(d) if !d.report.relation.is_safe_swap());
        run.ledger.check(refused, || {
            format!("{}: relaxed update not refused", arch.name)
        });

        // The updated process decides as before, from flushed tables.
        let m = &mut fleet[i];
        let mut wrong = 0u64;
        for k in 0..STREAM_LEN {
            let (req, expect) = arch.request(k, false);
            let d = m.process.syscall(req);
            wrong += u64::from(d.action != expect);
            digest.add((1 << 48) | ((a as u64) << 32) | k as u64, d.action);
        }
        run.ledger.tally(
            STREAM_LEN as u64,
            wrong,
            "decisions after an admitted update",
        );
    }
    run.tr.end(0);
}
