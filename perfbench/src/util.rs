//! Small shared helpers: a seeded generator, sample summaries, process
//! memory, directory sizes and the order-independent answer checksum.

use serde_json::Value;
use std::path::Path;
use std::time::Duration;

/// SplitMix64: tiny, seedable, and identical on every platform, so one
/// seed always yields one input sequence.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for a named part of the workload, so adding
    /// draws to one part never shifts another's inputs.
    pub fn fork(&self, salt: u64) -> Self {
        Rng::new(self.0 ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A set of measured values (any unit).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn push_duration_ms(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_duration_us(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile, `q` in `[0, 100]`; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1]
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The median per window of consecutive samples, and the median across
    /// `windows` windows (the plain median when there are fewer samples
    /// than windows).
    pub fn windowed_median(&self, windows: usize) -> f64 {
        let per = self.0.len() / windows.max(1);
        if per == 0 {
            return self.median();
        }
        Samples(
            self.0
                .chunks(per)
                .filter(|c| c.len() == per)
                .map(|c| Samples(c.to_vec()).median())
                .collect(),
        )
        .median()
    }

    /// A tail percentile per window of consecutive samples, and the median
    /// across `windows` windows: p99 when every window has at least ten
    /// samples beyond it, else the highest of p95/p90 that does, else the
    /// median. Returns `(percentile, value)`.
    pub fn windowed_tail(&self, windows: usize) -> (f64, f64) {
        let per = self.0.len() / windows.max(1);
        let q = [99.0, 95.0, 90.0]
            .into_iter()
            .find(|q| per as f64 * (1.0 - q / 100.0) >= 10.0)
            .unwrap_or(50.0);
        if per == 0 {
            return (q, self.percentile(q));
        }
        let tails = Samples(
            self.0
                .chunks(per)
                .filter(|c| c.len() == per)
                .map(|c| Samples(c.to_vec()).percentile(q))
                .collect(),
        );
        (q, tails.median())
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0100_0000_01B3);
    }
    hash
}

/// A cell's canonical text: numbers compare by their `f64` value, so an
/// integer-valued float and the integer read the same.
fn canonical_cell(cell: &Value) -> String {
    match cell {
        Value::Number(n) => match n.as_f64() {
            Some(f) => format!("n:{f}"),
            None => format!("n:{n}"),
        },
        Value::String(s) => format!("s:{s}"),
        other => other.to_string(),
    }
}

/// What an answer is checked by: its row count and an order-independent
/// checksum of its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerSum {
    pub rows: usize,
    pub checksum: u64,
}

/// Checksum of a `{"rows": [[cell, …], …]}` answer document.
pub fn answer_sum(doc: &Value) -> Option<AnswerSum> {
    let rows = doc.get("rows")?.as_array()?;
    let mut checksum = 0u64;
    for row in rows {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for cell in row.as_array()? {
            h = fnv1a(canonical_cell(cell).as_bytes(), h);
            h = fnv1a(&[0x1F], h);
        }
        // Mixing before the commutative sum keeps equal-sum collisions of
        // different row sets unlikely.
        checksum = checksum.wrapping_add(h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17));
    }
    Some(AnswerSum {
        rows: rows.len(),
        checksum,
    })
}

/// Removes a directory tree if it exists.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
