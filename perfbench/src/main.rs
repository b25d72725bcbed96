//! The repository benchmark: one seeded workload per run, end-to-end
//! metrics untraced, per-layer metrics from a separate traced run.
//!
//! ```text
//! draco-perfbench --workload <process-replay|service-deny|service-churn>
//!                 --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! A run repeats its workload in identical epochs, one per
//! [`EPOCH_SECONDS`] of `--seconds`. Each epoch builds a fresh fleet of
//! [`FLEET`] processes or tenants (timed as set-up), measures for its
//! share of `--seconds`, then runs policy updates outside the measured
//! phase. Set-up time, throughput, and each epoch's median and p99
//! decision latency are medians over epochs; reload times are pooled.
//! Every decision is checked against the verdict its profile gives, and
//! the last line of standard output is one JSON object with the metrics
//! and the failed/attempted counts.
//! The process exits non-zero if any check failed. See `NOTES.md` for
//! why the workloads look the way they do.

mod inputs;
mod probe;
mod replay;
mod service;
mod spans;
mod util;

use std::process::ExitCode;
use std::time::Duration;

use draco_core::CheckerStats;

use crate::inputs::{Archetype, ARCHETYPES};
use crate::spans::{Name, Tracer};
use crate::util::{median, peak_rss_mb, Ledger, LogHist, Stream};

/// Processes or tenants per fleet.
pub const FLEET: usize = 256;
/// Measured seconds per epoch. A run of `--seconds s` has `s / 2`
/// epochs (at least one), so an epoch's schedule does not depend on the
/// run length.
pub const EPOCH_SECONDS: f64 = 2.0;

pub struct E2e {
    pub setup_s: Vec<f64>,
    pub checks_per_s: Vec<f64>,
    /// Decision latencies of the current epoch's measured phase, ns.
    pub decide_ns: LogHist,
    /// Per-epoch median and p99 of `decide_ns`, us.
    pub decide_p50_us: Vec<f64>,
    pub decide_p99_us: Vec<f64>,
    /// Every epoch's decision latencies, ns.
    pub decide_pooled: LogHist,
    pub reload_admit_ms: Vec<f64>,
    pub reload_refuse_ms: Vec<f64>,
    pub overrun_ms: Vec<f64>,
    pub epoch_digests: Vec<u64>,
}

impl E2e {
    /// Closes an epoch's measured phase of `wall` (budget `budget`):
    /// records its overrun, and the median and p99 of its decision
    /// latencies. The caller records the epoch's throughput.
    pub fn end_measure(&mut self, wall: Duration, budget: Duration) {
        self.overrun_ms
            .push((wall.as_secs_f64() - budget.as_secs_f64()) * 1e3);
        if let (Some(p50), Some(p99)) =
            (self.decide_ns.quantile(0.5), self.decide_ns.quantile(0.99))
        {
            self.decide_p50_us.push(p50 / 1e3);
            self.decide_p99_us.push(p99 / 1e3);
        }
        self.decide_pooled.merge(&self.decide_ns);
        self.decide_ns.clear();
    }
}

/// Layer counters gathered outside the timed sections.
#[derive(Default)]
pub struct Layer {
    /// Checker stats of the measured phases.
    pub measured: CheckerStats,
    /// Checker stats of whole epochs, warm-up included.
    pub whole: CheckerStats,
    pub cuckoo_insertions: u64,
    pub cuckoo_evictions: u64,
    pub vat_bytes_per_tenant: Vec<f64>,
    /// Audit rings reconciled, one per service epoch.
    pub audit_rings: u64,
    pub audit_published: u64,
    pub audit_dropped: u64,
    pub tenants_served: u64,
    pub tenants_walked: u64,
    pub late_ns: u64,
    pub late_n: u64,
    /// Reloads (archetype, admitted) awaiting their shadow proof.
    pub reload_pairs: Vec<(usize, bool)>,
}

pub struct Run {
    pub seed: u64,
    pub epochs: usize,
    /// Measured time per epoch.
    pub budget: Duration,
    pub arch: Vec<Archetype>,
    pub tr: Tracer,
    pub ledger: Ledger,
    pub e2e: E2e,
    pub layer: Layer,
}

/// A uniformly chosen fleet slot of archetype `arch` (slot `i` runs
/// archetype `i % 5`).
pub fn pick_of_archetype(stream: &mut Stream, arch: usize) -> usize {
    let n = ARCHETYPES.len();
    arch + n * stream.below((FLEET - arch).div_ceil(n))
}

/// The counters `a` gained over `b`.
pub fn stats_delta(a: &CheckerStats, b: &CheckerStats) -> CheckerStats {
    CheckerStats {
        spt_hits: a.spt_hits - b.spt_hits,
        always_allow_hits: a.always_allow_hits - b.always_allow_hits,
        vat_hits: a.vat_hits - b.vat_hits,
        filter_runs: a.filter_runs - b.filter_runs,
        filter_insns: a.filter_insns - b.filter_insns,
        denials: a.denials - b.denials,
        vat_inserts: a.vat_inserts - b.vat_inserts,
        ..CheckerStats::default()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ProcessReplay,
    ServiceDeny,
    ServiceChurn,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("process-replay", Workload::ProcessReplay),
        ("service-deny", Workload::ServiceDeny),
        ("service-churn", Workload::ServiceChurn),
    ];

    /// Whether per-layer `metric` counts work in a layer this workload
    /// never calls (`dracod`'s tenants and audit ring, for
    /// `process-replay`). Such a metric is reported as 0 with no samples.
    /// The times of a bypassed layer come from twins (see `probe`).
    fn bypasses(self, metric: &str) -> bool {
        self == Workload::ProcessReplay
            && matches!(
                metric,
                "dracod.active_tenant_share" | "obs.audit_published" | "obs.audit_dropped"
            )
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--spans" => spans = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, w)| *w)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: value.unwrap_or(f64::NAN),
        unit,
        samples: samples as u64,
    }
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let e = &run.e2e;
    let decisions = e.decide_pooled.count() as usize;
    vec![
        metric("setup_s", median(&e.setup_s), "s", e.setup_s.len()),
        metric("rss_mb", peak_rss_mb(), "MB", 1),
        metric(
            "checks_per_s",
            median(&e.checks_per_s),
            "1/s",
            e.checks_per_s.len(),
        ),
        metric("decide_p50_us", median(&e.decide_p50_us), "us", decisions),
        metric("decide_p99_us", median(&e.decide_p99_us), "us", decisions),
        metric(
            "reload_admit_ms",
            median(&e.reload_admit_ms),
            "ms",
            e.reload_admit_ms.len(),
        ),
        metric(
            "reload_refuse_ms",
            median(&e.reload_refuse_ms),
            "ms",
            e.reload_refuse_ms.len(),
        ),
    ]
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Per-layer metrics timed by spans: `(metric, span, unit)`. An `ns`
/// metric is wall time per item the spans covered (request, call, run);
/// a `us` or `ms` metric is the median span.
const SPAN_METRICS: [(&str, Name, &str); 18] = [
    ("dracod.drain_us", Name::Drain, "us"),
    ("dracod.metrics_merge_us", Name::MetricsMerge, "us"),
    ("dracod.submit_ns", Name::Submit, "ns"),
    ("dracod.register_ms", Name::Register, "ms"),
    ("dracod.fork_ms", Name::Fork, "ms"),
    ("dracod.exec_ms", Name::Exec, "ms"),
    ("dracod.retire_us", Name::Retire, "us"),
    ("core.syscall_ns", Name::Syscall, "ns"),
    ("core.check_batch_ns", Name::CheckBatch, "ns"),
    ("core.spawn_ms", Name::Spawn, "ms"),
    ("core.flush_us", Name::Flush, "us"),
    ("bpf.filter_run_ns", Name::FilterRun, "ns"),
    ("bpf.semdiff_admit_ms", Name::SemdiffAdmit, "ms"),
    ("bpf.semdiff_refuse_ms", Name::SemdiffRefuse, "ms"),
    ("profiles.compile_us", Name::Compile, "us"),
    ("profiles.intersect_us", Name::Intersect, "us"),
    ("cuckoo.crc_ns", Name::Crc, "ns"),
    ("obs.audit_drain_us", Name::AuditDrain, "us"),
];

fn per_layer(run: &Run) -> Vec<Metric> {
    let l = &run.layer;
    let m = &l.measured;
    let checks = m.spt_hits + m.always_allow_hits + m.vat_hits + m.filter_runs;
    let epochs = run.e2e.checks_per_s.len();
    let (late, late_n) = late_ms(run);
    let mut out: Vec<Metric> = SPAN_METRICS
        .iter()
        .map(|&(name, span, unit)| {
            let stats = run.tr.stats(span);
            let (value, samples) = match unit {
                "ns" => (stats.map(|s| s.per_item_ns()), stats.map_or(0, |s| s.items)),
                "us" => (
                    stats.map(|s| s.median_ns() / 1e3),
                    stats.map_or(0, |s| s.count),
                ),
                _ => (
                    stats.map(|s| s.median_ns() / 1e6),
                    stats.map_or(0, |s| s.count),
                ),
            };
            metric(name, value, unit, samples as usize)
        })
        .collect();
    let counted = [
        (
            "dracod.active_tenant_share",
            ratio(l.tenants_served, l.tenants_walked),
            "ratio",
            l.tenants_walked,
        ),
        (
            "core.hit_share",
            ratio(checks - m.filter_runs, checks),
            "ratio",
            checks,
        ),
        (
            "core.filter_runs",
            Some(m.filter_runs as f64),
            "count",
            epochs as u64,
        ),
        (
            "core.vat_inserts",
            Some(m.vat_inserts as f64),
            "count",
            epochs as u64,
        ),
        (
            "core.vat_bytes_per_tenant",
            median(&l.vat_bytes_per_tenant),
            "bytes",
            l.vat_bytes_per_tenant.len() as u64,
        ),
        (
            "bpf.insns_per_run",
            ratio(l.whole.filter_insns, l.whole.filter_runs),
            "insns",
            l.whole.filter_runs,
        ),
        (
            "cuckoo.insertions",
            Some(l.cuckoo_insertions as f64),
            "count",
            epochs as u64,
        ),
        (
            "cuckoo.evictions",
            Some(l.cuckoo_evictions as f64),
            "count",
            epochs as u64,
        ),
        (
            "obs.audit_published",
            Some(l.audit_published as f64),
            "count",
            l.audit_rings,
        ),
        (
            "obs.audit_dropped",
            Some(l.audit_dropped as f64),
            "count",
            l.audit_rings,
        ),
        ("gen.late_ms", late, "ms", late_n),
    ];
    out.extend(
        counted
            .into_iter()
            .map(|(name, value, unit, n)| metric(name, value, unit, n as usize)),
    );
    out
}

/// How far the benchmark ran behind its schedule, with its sample count:
/// the mean lateness of an open-loop arrival's submission, or for a
/// closed loop the mean overrun of an epoch's measured phase past its
/// budget.
fn late_ms(run: &Run) -> (Option<f64>, u64) {
    let l = &run.layer;
    if l.late_n > 0 {
        (ratio(l.late_ns, l.late_n).map(|ns| ns / 1e6), l.late_n)
    } else {
        let o = &run.e2e.overrun_ms;
        let mean = (!o.is_empty()).then(|| o.iter().sum::<f64>() / o.len() as f64);
        (mean, o.len() as u64)
    }
}

/// Shares that show which layer each workload loads (traced run), from
/// the spans opened inside the measured phases.
fn attribution(run: &Run, workload: Workload) {
    let tr = &run.tr;
    let measured = |n: Name| tr.stats(n).map_or(0.0, |s| s.measured_ns as f64);
    let m = &run.layer.measured;
    let wall = measured(Name::Measure).max(1.0);
    match workload {
        Workload::ProcessReplay => {
            println!(
                "attribution: core.DracoProcess::syscall spans cover {:.1}% of bench.measure",
                100.0 * measured(Name::Syscall) / wall
            );
        }
        Workload::ServiceDeny => {
            let checks =
                (m.spt_hits + m.always_allow_hits + m.vat_hits + m.filter_runs).max(1) as f64;
            let filter = tr.stats(Name::FilterRun).map_or(0.0, |s| s.per_item_ns());
            let drain = measured(Name::Drain);
            let runs = m.filter_runs as f64 * filter;
            let merges = measured(Name::MetricsMerge);
            let submit = measured(Name::Submit);
            let audit = measured(Name::AuditDrain);
            println!(
                "attribution per request ({checks:.0} requests): drain_with {:.0} ns, of which \
                 filter runs {:.0} ns ({} runs x {filter:.0} ns) and the metrics merge {:.0} ns; \
                 submit {:.0} ns; audit drain {:.0} ns; the rest of the loop {:.0} ns",
                drain / checks,
                runs / checks,
                m.filter_runs,
                merges / checks,
                submit / checks,
                audit / checks,
                (wall - drain - merges - submit - audit) / checks,
            );
        }
        Workload::ServiceChurn => {
            let control: f64 = [
                Name::Register,
                Name::Fork,
                Name::Exec,
                Name::Reload,
                Name::Retire,
            ]
            .iter()
            .map(|&n| measured(n))
            .sum();
            let drain = tr.stats(Name::Drain).map_or(0.0, |s| s.median_ns() / 1e3);
            let merge = tr
                .stats(Name::MetricsMerge)
                .map_or(0.0, |s| s.median_ns() / 1e3);
            // Reload samples are pushed in archetype order, five per epoch.
            let refused: Vec<String> = ARCHETYPES
                .iter()
                .enumerate()
                .map(|(a, name)| {
                    let mine: Vec<f64> = run
                        .e2e
                        .reload_refuse_ms
                        .iter()
                        .skip(a)
                        .step_by(ARCHETYPES.len())
                        .copied()
                        .collect();
                    format!("{name} {:.1} ms", median(&mine).unwrap_or(0.0))
                })
                .collect();
            println!(
                "attribution: control-plane calls {:.1}% of bench.measure, drains {:.1}%, \
                 shadow metrics merges {:.1}%. A request waits out the rest of the drain \
                 cycle it arrived in, so decide_p50_us is about half a cycle: median drain \
                 {drain:.0} us, of which one metrics merge {merge:.0} us. decide_p99_us sits \
                 in the stalls of the longest refused reloads: {}",
                100.0 * control / wall,
                100.0 * measured(Name::Drain) / wall,
                100.0 * measured(Name::MetricsMerge) / wall,
                refused.join(", "),
            );
        }
    }
}

fn print_spans(run: &Run) {
    println!("spans: name count total_ms self_ms median_us per_item_ns");
    for name in Name::ALL {
        if let Some(s) = run.tr.stats(name) {
            println!(
                "  {:48} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>10.1}",
                name.label(),
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
                s.median_ns() / 1e3,
                s.per_item_ns()
            );
        }
    }
}

fn json_line(ledger: &Ledger, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed == 0,
        ledger.attempted,
        ledger.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("draco-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let arch = match inputs::build(args.seed) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("draco-perfbench: inputs: {e}");
            return ExitCode::FAILURE;
        }
    };
    let constants = [
        FLEET as u64,
        inputs::STREAM_LEN as u64,
        service::CHURN_RATE.to_bits(),
        service::CHURN_ZIPF.to_bits(),
    ];
    let mut streams = vec![
        "replay.offsets",
        "replay.quanta",
        "service.offsets",
        "policy.admit",
        "policy.refuse",
        "policy.fork",
        "policy.exec",
        "probe.offsets",
        "probe.twin",
    ];
    streams.extend(service::CHURN_STREAMS);
    let input_digest = inputs::digest(&arch, args.seed, &constants, &streams);
    let epochs = ((args.seconds / EPOCH_SECONDS).round() as usize).max(1);
    let mut run = Run {
        seed: args.seed,
        epochs,
        budget: Duration::from_secs_f64(args.seconds / epochs as f64),
        arch,
        tr: Tracer::new(args.trace),
        ledger: Ledger::default(),
        e2e: E2e {
            setup_s: Vec::with_capacity(epochs),
            checks_per_s: Vec::with_capacity(epochs),
            decide_ns: LogHist::new(),
            decide_p50_us: Vec::with_capacity(epochs),
            decide_p99_us: Vec::with_capacity(epochs),
            decide_pooled: LogHist::new(),
            reload_admit_ms: Vec::with_capacity(ARCHETYPES.len() * epochs),
            reload_refuse_ms: Vec::with_capacity(ARCHETYPES.len() * epochs),
            overrun_ms: Vec::with_capacity(epochs),
            epoch_digests: Vec::with_capacity(epochs),
        },
        layer: Layer::default(),
    };
    match args.workload {
        Workload::ProcessReplay => replay::run(&mut run),
        Workload::ServiceDeny => service::run_deny(&mut run),
        Workload::ServiceChurn => service::run_churn(&mut run),
    }
    let digests = run.e2e.epoch_digests.clone();
    run.ledger
        .check(digests.windows(2).all(|w| w[0] == w[1]), || {
            format!("epochs decided differently: {digests:x?}")
        });

    println!(
        "workload {} seed {} seconds {} trace {} epochs {} fleet {FLEET}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.epochs
    );
    println!("input digest {input_digest:016x}");
    println!(
        "decision digest {:016x}",
        digests.first().copied().unwrap_or(0)
    );
    for (i, (setup, rate)) in run
        .e2e
        .setup_s
        .iter()
        .zip(&run.e2e.checks_per_s)
        .enumerate()
    {
        println!("epoch {i}: setup {setup:.4} s, {rate:.0} checks/s");
    }
    let pooled = |q: f64| run.e2e.decide_pooled.quantile(q).unwrap_or(0.0) / 1e3;
    println!(
        "decide latency pooled over epochs: p50 {:.4} us, p99 {:.4} us",
        pooled(0.5),
        pooled(0.99)
    );
    let e2e = end_to_end(&run);
    for m in &e2e {
        println!(
            "{:24} {:>16.4} {:5} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &e2e {
        run.ledger.check(m.value.is_finite(), || {
            format!("{} was not measured", m.name)
        });
    }
    let metrics = if args.trace {
        print_spans(&run);
        attribution(&run, args.workload);
        let (closed, kept) = run.tr.recorded();
        if let Some(path) = &args.spans {
            match run.tr.write_jsonl(path) {
                Ok(()) => println!("spans: {kept} of {closed} written to {}", path.display()),
                Err(e) => eprintln!("draco-perfbench: writing {}: {e}", path.display()),
            }
        }
        let layer = per_layer(&run);
        for m in &layer {
            println!(
                "{:28} {:>16.4} {:5} (n={})",
                m.name, m.value, m.unit, m.samples
            );
            if args.workload.bypasses(m.name) {
                run.ledger.check(m.samples == 0, || {
                    format!("{} has samples on a workload that bypasses it", m.name)
                });
            } else {
                run.ledger.check(m.value.is_finite() && m.samples > 0, || {
                    format!("{} was not measured", m.name)
                });
            }
        }
        layer
    } else {
        e2e
    };
    for note in run.ledger.notes() {
        eprintln!("draco-perfbench: FAILED {note}");
    }
    println!(
        "verified {} operations, {} failed",
        run.ledger.attempted, run.ledger.failed
    );
    // A metric without samples (a bypassed layer's count) reads 0.
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.samples > 0 && m.value.is_finite() {
                m.value
            } else {
                0.0
            },
            ..m
        })
        .collect();
    println!("{}", json_line(&run.ledger, &metrics));
    if run.ledger.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
