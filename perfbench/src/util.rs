//! Small helpers: seeded inputs, order statistics, the FNV-1a digest and
//! the process's peak resident set.

use std::collections::BTreeMap;

use m2m_core::faults::DestCoverage;
use m2m_core::metrics::RoundCost;
use m2m_core::spec::AggregationSpec;
use m2m_graph::NodeId;

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone and on no crate outside the repository.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A sensor reading, uniform in `[-50, 50)`.
    pub fn reading(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
    }
}

/// Keys a dense reading row (one value per interned source) by node id.
pub fn row_map(sources: &[NodeId], row: &[f64]) -> BTreeMap<NodeId, f64> {
    sources.iter().copied().zip(row.iter().copied()).collect()
}

/// Every destination's reference aggregate over `readings`, in
/// `destinations` order.
pub fn expected(
    spec: &AggregationSpec,
    destinations: &[NodeId],
    readings: &BTreeMap<NodeId, f64>,
) -> Vec<f64> {
    destinations
        .iter()
        .map(|&d| {
            spec.function(d)
                .expect("destination has a function")
                .reference_result(readings)
        })
        .collect()
}

/// True when `got` is within 1e-9 of `want`.
pub fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9
}

/// Median of `v` (`NaN` when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile by linear interpolation between order statistics.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// FNV-1a over everything a workload's deterministic window produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn results(&mut self, results: &[Option<f64>]) {
        for r in results {
            self.f64(r.unwrap_or(f64::NAN));
        }
    }

    pub fn cost(&mut self, c: &RoundCost) {
        self.f64(c.tx_uj);
        self.f64(c.rx_uj);
        self.u64(c.messages as u64);
        self.u64(c.units as u64);
        self.u64(c.payload_bytes);
    }

    pub fn coverage(&mut self, coverage: &[DestCoverage]) {
        for c in coverage {
            self.u64(u64::from(c.destination.0));
            self.u64(c.covered as u64);
            self.u64(c.demanded as u64);
        }
    }
}

/// Peak resident set (`VmHWM`) in MB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
