//! Shadow calls of the traced run, made on twins so the workload's own
//! tenants, processes and counters stay exact.
//!
//! Once per epoch, for each archetype, the probe times the public
//! functions a workload may not call on its own path: profile compile
//! and intersect, the compiled filter over the archetype's denied
//! requests, CRC-64 over each request's argument bytes, and a twin
//! `SharedDracoProcess` (spawn, `check_batch` over a window it was
//! warmed with, flush).
//!
//! [`twin_service`] and [`twin_process`] time the layer a workload never
//! calls. The result line needs a measured value for every per-layer
//! time, and a time that reads 0 on every run is not one. These spans
//! give the bypassed layer's unit costs, not load the workload puts on
//! it, and they feed none of the workload's counters.

use std::hint::black_box;

use draco_bpf::{SeccompAction, SeccompData};
use draco_core::{CheckResult, DracoProcess, EngineKind, ProcessId, SharedDracoProcess};
use draco_cuckoo::Crc64;
use draco_dracod::{DracoService, ServiceConfig};
use draco_profiles::FilterLayout;
use draco_syscalls::SyscallRequest;

use crate::inputs::{Archetype, ARCHETYPES, STREAM_LEN};
use crate::spans::Name;
use crate::util::Stream;
use crate::Run;

/// Requests per probe window.
const WINDOW: usize = 128;
/// Twin process ids, far above any fleet id.
const TWIN_PID: u32 = 1 << 30;

/// Requests `start..start + WINDOW` of `arch`'s trace (wrapping), every
/// second one perturbed if `perturb`, with their expected verdicts.
fn window(arch: &Archetype, start: usize, perturb: bool) -> Vec<(SyscallRequest, SeccompAction)> {
    (0..WINDOW)
        .map(|k| {
            let (req, expect) = arch.request((start + k) % STREAM_LEN, perturb && k % 2 == 1);
            (*req, expect)
        })
        .collect()
}

fn arg_bytes(req: &SyscallRequest) -> [u8; 48] {
    let mut bytes = [0u8; 48];
    for (chunk, word) in bytes.chunks_exact_mut(8).zip(req.args.as_array()) {
        chunk.copy_from_slice(&word.to_le_bytes());
    }
    bytes
}

pub fn run(run: &mut Run, epoch: usize) {
    if !run.tr.on() {
        return;
    }
    run.tr.begin(Name::Probe, epoch as u64);
    let mut offsets = Stream::new(run.seed, "probe.offsets");
    for a in 0..ARCHETYPES.len() {
        let arch = &run.arch[a];
        let window = window(arch, offsets.below(STREAM_LEN), true);
        let reqs: Vec<SyscallRequest> = window.iter().map(|w| w.0).collect();

        run.tr.begin(Name::Compile, a as u64);
        let compiled = draco_profiles::compile(&arch.profile, FilterLayout::Linear);
        run.tr.end(1);
        run.ledger.check(compiled.is_ok(), || {
            format!("{}: profile does not compile", arch.name)
        });
        run.tr.begin(Name::Intersect, a as u64);
        black_box(arch.profile.intersect(&arch.profile));
        run.tr.end(1);

        let stack = draco_profiles::compile_stacked(&arch.profile, FilterLayout::Linear)
            .expect("catalog profiles compile")
            .compiled();
        let denied: Vec<(&SyscallRequest, SeccompAction)> = (0..STREAM_LEN)
            .map(|i| arch.request(i, true))
            .filter(|(_, expect)| !expect.permits())
            .collect();
        let mut wrong = 0u64;
        run.tr.begin(Name::FilterRun, a as u64);
        for (req, expect) in &denied {
            let out = stack.run(&SeccompData::from_request(req));
            wrong += u64::from(!matches!(out, Ok(o) if o.action == *expect));
        }
        run.tr.end(denied.len() as u64);
        run.ledger
            .tally(denied.len() as u64, wrong, "probe filter runs");

        let crc = Crc64::ecma_shared();
        let mut acc = 0u64;
        run.tr.begin(Name::Crc, a as u64);
        for i in 0..STREAM_LEN {
            acc ^= crc.checksum(&arg_bytes(arch.request(i, false).0));
        }
        run.tr.end(STREAM_LEN as u64);
        black_box(acc);

        let pid = ProcessId(TWIN_PID + a as u32);
        run.tr.begin(Name::Spawn, a as u64);
        let twin = SharedDracoProcess::spawn_with_engine(pid, &arch.profile, EngineKind::Compiled)
            .expect("catalog profiles compile");
        run.tr.end(1);
        let mut handle = twin.spawn_thread();
        let mut out = vec![CheckResult::KILLED; WINDOW];
        handle.check_batch(&reqs, &mut out);
        run.tr.begin(Name::CheckBatch, a as u64);
        handle.check_batch(&reqs, &mut out);
        run.tr.end(WINDOW as u64);
        let wrong = window
            .iter()
            .zip(&out)
            .filter(|((_, expect), d)| d.action != *expect)
            .count();
        run.ledger
            .tally(WINDOW as u64, wrong as u64, "twin check_batch decisions");
        run.tr.begin(Name::Flush, a as u64);
        twin.flush();
        run.tr.end(1);
    }
    run.tr.end(0);
}

/// `dracod` on a twin service of one tenant per archetype, for
/// `process-replay`: register, submit a window, one drain, the metrics
/// merge, the audit drain, fork, exec and retire.
pub fn twin_service(run: &mut Run, epoch: usize) {
    if !run.tr.on() {
        return;
    }
    run.tr.begin(Name::Probe, epoch as u64);
    let mut svc = DracoService::new(ServiceConfig::default());
    let mut offsets = Stream::new(run.seed, "probe.twin");
    let mut tenants = Vec::with_capacity(ARCHETYPES.len());
    for a in 0..ARCHETYPES.len() {
        let arch = &run.arch[a];
        run.tr.begin(Name::Register, a as u64);
        let id = svc
            .register(&arch.profile)
            .expect("catalog profiles compile");
        run.tr.end(1);
        let window = window(arch, offsets.below(STREAM_LEN), true);
        run.tr.begin(Name::Submit, a as u64);
        for (req, _) in &window {
            svc.submit(id, *req).expect("tenant is live");
        }
        run.tr.end(WINDOW as u64);
        tenants.push((id, window, 0usize));
    }
    let mut wrong = 0u64;
    run.tr.begin(Name::Drain, epoch as u64);
    let summary =
        svc.drain_with(
            |tid, _, d| match tenants.iter_mut().find(|(id, ..)| *id == tid) {
                Some((_, window, next)) => {
                    wrong += u64::from(window.get(*next).map(|w| w.1) != Some(d.action));
                    *next += 1;
                }
                None => wrong += 1,
            },
        );
    run.tr.end(summary.checks);
    let sent = (ARCHETYPES.len() * WINDOW) as u64;
    run.ledger.tally(
        sent,
        wrong + sent.abs_diff(summary.checks),
        "twin service decisions",
    );
    run.tr.begin(Name::MetricsMerge, epoch as u64);
    black_box(svc.metrics());
    run.tr.end(1);
    run.tr.begin(Name::AuditDrain, epoch as u64);
    let events = svc.audit_ring().drain_with(|e| {
        black_box(e);
    });
    run.tr.end(events as u64);

    let parent = tenants[0].0;
    run.tr.begin(Name::Fork, u64::from(parent.0));
    let child = svc.fork(parent);
    run.tr.end(1);
    run.ledger
        .check(child.is_ok(), || format!("twin fork of {parent} failed"));
    run.tr.begin(Name::Exec, u64::from(parent.0));
    let exec = svc.exec(parent, &run.arch[1].profile);
    run.tr.end(1);
    run.ledger
        .check(exec.is_ok(), || format!("twin exec of {parent} failed"));
    for id in svc.tenant_ids() {
        run.tr.begin(Name::Retire, u64::from(id.0));
        let gone = svc.retire(id);
        run.tr.end(1);
        run.ledger
            .check(gone.is_ok(), || format!("twin retire of {id} failed"));
    }
    run.tr.end(0);
}

/// Scalar `DracoProcess::syscall` on a warmed twin process per
/// archetype, for the service workloads.
pub fn twin_process(run: &mut Run, epoch: usize) {
    if !run.tr.on() {
        return;
    }
    run.tr.begin(Name::Probe, epoch as u64);
    let mut offsets = Stream::new(run.seed, "probe.twin");
    for a in 0..ARCHETYPES.len() {
        let arch = &run.arch[a];
        // Allowed requests only: a denial would kill the process.
        let window = window(arch, offsets.below(STREAM_LEN), false);
        let mut process = DracoProcess::spawn(ProcessId(TWIN_PID + a as u32), &arch.profile)
            .expect("catalog profiles compile");
        for (req, _) in &window {
            process.syscall(req);
        }
        let mut wrong = 0u64;
        run.tr.begin(Name::Syscall, a as u64);
        for (req, expect) in &window {
            wrong += u64::from(process.syscall(req).action != *expect);
        }
        run.tr.end(WINDOW as u64);
        run.ledger
            .tally(WINDOW as u64, wrong, "twin process decisions");
    }
    run.tr.end(0);
}
