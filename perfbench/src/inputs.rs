//! Seeded inputs shared by every workload, all built before any clock
//! starts.
//!
//! Each of the five archetypes gets a trace from the workload catalog
//! and a `syscall-complete` profile generated from that trace, so every
//! request of the trace is allowed. Its perturbed twin XORs every
//! argument (as the churn scenario in `draco-dracod` does) and so misses
//! the argument whitelists. The expected verdict of every request, plain
//! and perturbed, comes from `ProfileSpec::evaluate` up front.

use draco_bpf::SeccompAction;
use draco_profiles::{ArgPolicy, ProfileKind, ProfileSpec, RuleSource, SyscallRule};
use draco_syscalls::{ArgSet, SyscallId, SyscallRequest};
use draco_workloads::timing::profile_for_trace;
use draco_workloads::{catalog, TraceGenerator};

use crate::util::{action_code, Fnv, Stream};

pub const ARCHETYPES: [&str; 5] = ["pipe", "nginx", "redis", "httpd", "fifo"];

/// Requests per archetype trace. Every tenant replays its archetype's
/// trace cyclically from its own seeded offset.
pub const STREAM_LEN: usize = 1024;

const DENY_PERTURBATION: u64 = 0xdead_0000_0000;

/// A syscall number no catalog trace makes; allowing it relaxes a
/// profile, so the refinement gate refuses the candidate.
const RELAXING_SYSCALL: u16 = 999;

pub struct Archetype {
    pub name: &'static str,
    pub profile: ProfileSpec,
    /// `profile` plus one extra allowed syscall: refused on reload.
    pub relaxed: ProfileSpec,
    stream: Vec<SyscallRequest>,
    perturbed: Vec<SyscallRequest>,
    expect: Vec<SeccompAction>,
    expect_perturbed: Vec<SeccompAction>,
}

impl Archetype {
    /// Request `idx` of the trace (or its perturbed twin) and the verdict
    /// the profile gives it.
    #[inline]
    pub fn request(&self, idx: usize, perturbed: bool) -> (&SyscallRequest, SeccompAction) {
        if perturbed {
            (&self.perturbed[idx], self.expect_perturbed[idx])
        } else {
            (&self.stream[idx], self.expect[idx])
        }
    }

    pub fn stream(&self) -> &[SyscallRequest] {
        &self.stream
    }
}

fn perturb(req: &SyscallRequest) -> SyscallRequest {
    let mut args = req.args.as_array();
    for a in &mut args {
        *a ^= DENY_PERTURBATION;
    }
    SyscallRequest::new(req.pc, req.id, ArgSet::new(args))
}

/// Builds the five archetypes for `seed`.
///
/// # Errors
///
/// Fails if the catalog lacks an archetype or a generated profile does
/// not allow its own trace.
pub fn build(seed: u64) -> Result<Vec<Archetype>, String> {
    ARCHETYPES
        .iter()
        .map(|&name| {
            let spec = catalog::by_name(name).ok_or_else(|| format!("{name} not in catalog"))?;
            let trace_seed = Stream::new(seed, &format!("trace.{name}")).next_u64();
            let trace = TraceGenerator::new(&spec, trace_seed).generate(STREAM_LEN);
            let profile = profile_for_trace(&trace, ProfileKind::SyscallComplete);
            let mut relaxed = profile.clone();
            relaxed.allow(
                SyscallId::new(RELAXING_SYSCALL),
                SyscallRule {
                    args: ArgPolicy::AnyArgs,
                    source: RuleSource::Application,
                },
            );
            let stream: Vec<SyscallRequest> = trace.requests().collect();
            let perturbed: Vec<SyscallRequest> = stream.iter().map(perturb).collect();
            let expect: Vec<SeccompAction> = stream.iter().map(|r| profile.evaluate(r)).collect();
            let expect_perturbed = perturbed.iter().map(|r| profile.evaluate(r)).collect();
            if expect.iter().any(|a| *a != SeccompAction::Allow) {
                return Err(format!("{name}: profile denies part of its own trace"));
            }
            Ok(Archetype {
                name,
                profile,
                relaxed,
                stream,
                perturbed,
                expect,
                expect_perturbed,
            })
        })
        .collect()
}

/// Digest of everything a run is fed: the archetype traces, their
/// profiles and expected verdicts, the workload's constants, and the
/// first draws of each of its schedule streams.
pub fn digest(arch: &[Archetype], seed: u64, constants: &[u64], streams: &[&str]) -> u64 {
    let mut h = Fnv::new();
    for a in arch {
        h.bytes(a.name.as_bytes());
        h.bytes(draco_profiles::profile_to_json(&a.profile).as_bytes());
        for idx in 0..a.stream.len() {
            for perturbed in [false, true] {
                let (req, expect) = a.request(idx, perturbed);
                h.word(req.pc);
                h.word(u64::from(req.id.as_u16()));
                for w in req.args.as_array() {
                    h.word(w);
                }
                h.word(action_code(expect));
            }
        }
    }
    for &c in constants {
        h.word(c);
    }
    for purpose in streams {
        let mut s = Stream::new(seed, purpose);
        for _ in 0..64 {
            h.word(s.next_u64());
        }
    }
    h.finish()
}
