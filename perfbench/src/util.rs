//! Seeded streams, digests, the fixed-size latency histogram, and the
//! failure ledger.

use draco_bpf::SeccompAction;

/// A SplitMix64 stream. Every schedule the benchmark draws comes from
/// its own stream, keyed by the run seed and a purpose label, so no
/// schedule depends on how far another one was consumed, or on timing.
#[derive(Clone, Debug)]
pub struct Stream(u64);

impl Stream {
    pub fn new(seed: u64, purpose: &str) -> Self {
        let mut h = Fnv::new();
        h.word(seed);
        h.bytes(purpose.as_bytes());
        Stream(h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a, for digests of generated inputs.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A stable code for a verdict, errno and trace data included.
pub fn action_code(action: SeccompAction) -> u64 {
    match action {
        SeccompAction::Allow => 1,
        SeccompAction::Log => 2,
        SeccompAction::Trap => 3,
        SeccompAction::KillThread => 4,
        SeccompAction::KillProcess => 5,
        SeccompAction::Trace(v) => 0x1_0000 | u64::from(v),
        SeccompAction::Errno(v) => 0x2_0000 | u64::from(v),
    }
}

/// Order-independent digest of a decision stream: a wrapping sum of one
/// hash per decision, keyed by the request's position in its schedule,
/// so drains that interleave tenants differently still agree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecisionDigest(pub u64);

impl DecisionDigest {
    pub fn add(&mut self, key: u64, action: SeccompAction) {
        let h = mix64(key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ action_code(action));
        self.0 = self.0.wrapping_add(h);
    }
}

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-linear histogram of `u64` values: exact below 128, then 128
/// sub-buckets per power of two, so a bucket is at most 1/128 (< 1%) of
/// its lower bound wide. Its size is fixed (about 58 KiB), so recording
/// millions of latencies does not grow the benchmark's memory.
pub struct LogHist {
    counts: Box<[u64]>,
    total: u64,
}

impl LogHist {
    pub fn new() -> Self {
        LogHist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        let sub = (v >> shift) as usize & (SUB - 1);
        SUB + shift as usize * SUB + sub
    }

    /// The lower bound and width of bucket `idx`.
    fn bounds(idx: usize) -> (f64, f64) {
        if idx < SUB {
            return (idx as f64, 1.0);
        }
        let shift = (idx - SUB) / SUB;
        let sub = (idx - SUB) % SUB;
        (
            (((SUB + sub) as u64) << shift) as f64,
            (1u64 << shift) as f64,
        )
    }

    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[Self::index(v)] += n;
        self.total += n;
    }

    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHist) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile, or `None` when empty. Within its bucket the
    /// value is interpolated by rank, as if the bucket's samples were
    /// spread evenly across it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lower, width) = Self::bounds(idx);
                return Some(lower + width * ((rank - seen) as f64 - 0.5) / c as f64);
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// The median of a sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Counts verified operations and the ones whose output was wrong.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Ledger {
    /// Records one verified operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// Records `attempted` operations verified in a hot loop, `failed`
    /// of them wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.note(format!("{failed} wrong: {what}"));
        }
    }

    fn note(&mut self, note: String) {
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_under_one_percent() {
        let mut last = 0;
        for v in (0..20_000u64).chain([1 << 40, (1 << 62) + 12_345]) {
            let idx = LogHist::index(v);
            assert!(idx >= last && idx < BUCKETS);
            last = idx;
            let (lower, width) = LogHist::bounds(idx);
            assert!(
                lower <= v as f64 && (v as f64) < lower + width,
                "{v} -> {lower}+{width}"
            );
            assert!(
                width <= (lower / 128.0).max(1.0),
                "{v}: bucket wider than 1%"
            );
        }
    }

    #[test]
    fn quantiles_follow_the_samples() {
        let mut h = LogHist::new();
        for v in 1..=1000u64 {
            h.record(v * 1000);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "{p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "{p99}");
    }

    #[test]
    fn streams_are_seeded_and_independent() {
        let a: Vec<u64> = (0..4).map(|_| Stream::new(7, "a").next_u64()).collect();
        assert!(a.iter().all(|&x| x == a[0]));
        assert_ne!(
            Stream::new(7, "a").next_u64(),
            Stream::new(7, "b").next_u64()
        );
        assert_ne!(
            Stream::new(7, "a").next_u64(),
            Stream::new(8, "a").next_u64()
        );
    }
}
