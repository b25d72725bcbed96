//! In-memory span tracer for the traced run.
//!
//! Spans wrap the benchmark's calls into each layer's public functions.
//! Each span records its name, start, end, parent span, and a round or
//! request id. Per-name totals (count, items, wall and self time, and a
//! duration histogram) are kept for every span. The first
//! [`LOG_CAPACITY`] spans are also kept verbatim and written out at exit.
//! A span's self time is its duration minus the time its child spans
//! cover. With tracing off, `begin` and `end` return at once and read no
//! clock.

use std::io::Write;
use std::time::Instant;

use crate::util::LogHist;

/// Spans kept verbatim for the span file; the totals cover every span.
const LOG_CAPACITY: usize = 1 << 17;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    Setup,
    Measure,
    Burst,
    Policy,
    Probe,
    Register,
    Fork,
    Exec,
    Reload,
    Retire,
    Submit,
    Drain,
    MetricsMerge,
    ProcessSpawn,
    Syscall,
    Spawn,
    CheckBatch,
    Flush,
    Install,
    FilterRun,
    SemdiffAdmit,
    SemdiffRefuse,
    Compile,
    Intersect,
    Crc,
    AuditDrain,
}

impl Name {
    pub const ALL: [Name; 26] = [
        Name::Setup,
        Name::Measure,
        Name::Burst,
        Name::Policy,
        Name::Probe,
        Name::Register,
        Name::Fork,
        Name::Exec,
        Name::Reload,
        Name::Retire,
        Name::Submit,
        Name::Drain,
        Name::MetricsMerge,
        Name::ProcessSpawn,
        Name::Syscall,
        Name::Spawn,
        Name::CheckBatch,
        Name::Flush,
        Name::Install,
        Name::FilterRun,
        Name::SemdiffAdmit,
        Name::SemdiffRefuse,
        Name::Compile,
        Name::Intersect,
        Name::Crc,
        Name::AuditDrain,
    ];

    /// `layer.call`, naming the public function the span wraps.
    pub fn label(self) -> &'static str {
        match self {
            Name::Setup => "bench.setup",
            Name::Measure => "bench.measure",
            Name::Burst => "bench.burst",
            Name::Policy => "bench.policy",
            Name::Probe => "bench.probe",
            Name::Register => "dracod.register",
            Name::Fork => "dracod.fork",
            Name::Exec => "dracod.exec",
            Name::Reload => "dracod.reload",
            Name::Retire => "dracod.retire",
            Name::Submit => "dracod.submit",
            Name::Drain => "dracod.drain_with",
            Name::MetricsMerge => "dracod.metrics",
            Name::ProcessSpawn => "core.DracoProcess::spawn",
            Name::Syscall => "core.DracoProcess::syscall",
            Name::Spawn => "core.SharedDracoProcess::spawn_with_engine",
            Name::CheckBatch => "core.SharedThreadHandle::check_batch",
            Name::Flush => "core.SharedDracoProcess::flush",
            Name::Install => "core.DracoChecker::install_additional",
            Name::FilterRun => "bpf.CompiledStack::run",
            Name::SemdiffAdmit => "bpf.diff_profiles.admit",
            Name::SemdiffRefuse => "bpf.diff_profiles.refuse",
            Name::Compile => "profiles.compile",
            Name::Intersect => "profiles.ProfileSpec::intersect",
            Name::Crc => "cuckoo.Crc64::checksum",
            Name::AuditDrain => "obs.AuditRing::drain_with",
        }
    }
}

/// Totals over every span of one name.
pub struct NameStats {
    pub count: u64,
    /// Work items the spans covered (requests, calls), for per-item costs.
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Wall time of the spans opened inside a `bench.measure` span.
    pub measured_ns: u64,
    pub durations: LogHist,
}

impl NameStats {
    /// Median span duration, ns.
    pub fn median_ns(&self) -> f64 {
        self.durations.quantile(0.5).unwrap_or(0.0)
    }

    /// Wall time per covered item, ns.
    pub fn per_item_ns(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.items as f64
        }
    }
}

struct Open {
    name: Name,
    id: u64,
    seq: u32,
    start: u64,
    child_ns: u64,
    measured: bool,
}

struct Record {
    seq: u32,
    parent: Option<u32>,
    name: Name,
    id: u64,
    start: u64,
    end: u64,
}

pub struct Tracer {
    on: bool,
    base: Instant,
    open: Vec<Open>,
    stats: Vec<NameStats>,
    log: Vec<Record>,
    next_seq: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        let stats = if on {
            Name::ALL
                .iter()
                .map(|_| NameStats {
                    count: 0,
                    items: 0,
                    total_ns: 0,
                    self_ns: 0,
                    measured_ns: 0,
                    durations: LogHist::new(),
                })
                .collect()
        } else {
            Vec::new()
        };
        Tracer {
            on,
            base: Instant::now(),
            open: Vec::with_capacity(16),
            stats,
            log: Vec::with_capacity(if on { LOG_CAPACITY } else { 0 }),
            next_seq: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    #[inline]
    pub fn begin(&mut self, name: Name, id: u64) {
        if self.on {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            let measured = name == Name::Measure || self.open.last().is_some_and(|p| p.measured);
            let start = self.now();
            self.open.push(Open {
                name,
                id,
                seq,
                start,
                child_ns: 0,
                measured,
            });
        }
    }

    /// Closes the innermost open span, which covered `items` work items.
    #[inline]
    pub fn end(&mut self, items: u64) {
        if self.on {
            self.close(items);
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn close(&mut self, items: u64) {
        let end = self.now();
        let span = self.open.pop().expect("span ends match begins");
        let dur = end - span.start;
        let parent = self.open.last_mut().map(|p| {
            p.child_ns += dur;
            p.seq
        });
        let stats = &mut self.stats[span.name as usize];
        stats.count += 1;
        stats.items += items;
        stats.total_ns += dur;
        stats.self_ns += dur.saturating_sub(span.child_ns);
        if span.measured {
            stats.measured_ns += dur;
        }
        stats.durations.record(dur);
        if self.log.len() < LOG_CAPACITY {
            self.log.push(Record {
                seq: span.seq,
                parent,
                name: span.name,
                id: span.id,
                start: span.start,
                end,
            });
        }
    }

    /// Totals for one span name (tracing on only).
    pub fn stats(&self, name: Name) -> Option<&NameStats> {
        self.stats.get(name as usize).filter(|s| s.count > 0)
    }

    /// Total spans closed, and how many of them the span file holds.
    pub fn recorded(&self) -> (u64, usize) {
        (self.stats.iter().map(|s| s.count).sum(), self.log.len())
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in &self.log {
            let parent = r
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"seq\":{},\"parent\":{},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.seq,
                parent,
                r.name.label(),
                r.id,
                r.start,
                r.end
            )?;
        }
        out.flush()
    }
}
