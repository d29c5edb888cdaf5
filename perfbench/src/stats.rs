//! Summaries and host probes: quartiles across repetitions, percentiles
//! with their sample counts, the process's peak RSS, the host's CPU
//! steal share and its memory speed.

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), so the figures printed here match the ones an external
/// steadiness check derives from the same values.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (v[0], v[0], v[0]),
        len => {
            let m = len + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m - j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// The arithmetic mean of `values` (NaN when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The median of `values` (NaN when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values` (NaN when empty).
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A numeric field of `/proc/self/status` (its unit suffix dropped).
fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?;
    rest.trim().trim_end_matches("kB").trim().parse().ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Threads this process is running now.
#[must_use]
pub fn threads() -> f64 {
    proc_status("Threads").unwrap_or(f64::NAN)
}

/// Counters that any call into a socket, a log file or another thread
/// moves: read and write system calls (`syscr` + `syscw` of
/// `/proc/self/io`, which count file I/O) and voluntary context switches
/// (the process blocked, as it does waiting for a socket reply, a ring or
/// a thread join). Reading them makes a fixed number of read calls itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Blocking {
    pub io_calls: u64,
    pub waits: u64,
}

impl Blocking {
    /// Reads the counters now (`None` where `/proc` is unreadable).
    #[must_use]
    pub fn now() -> Option<Self> {
        let io = std::fs::read_to_string("/proc/self/io").ok()?;
        let field = |name: &str| -> Option<u64> {
            io.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))?.trim().parse().ok()
        };
        let waits = proc_status("voluntary_ctxt_switches")?;
        Some(Self { io_calls: field("syscr")? + field("syscw")?, waits: waits as u64 })
    }

    /// The counts since `earlier`, less `probe` (what reading them costs).
    #[must_use]
    pub fn since(self, earlier: Self, probe: Self) -> Option<Self> {
        Some(Self {
            io_calls: self.io_calls.checked_sub(earlier.io_calls)?.checked_sub(probe.io_calls)?,
            waits: self.waits.checked_sub(earlier.waits)?.checked_sub(probe.waits)?,
        })
    }
}

/// Host-wide CPU time counters from the aggregate `cpu` line of
/// `/proc/stat`: `(steal, total)` in clock ticks. Read at repetition
/// boundaries only, so measuring steal needs no sampler thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters now (zeros when `/proc/stat` is unreadable).
    #[must_use]
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return Self::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is left out.
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
        Self { steal: fields.get(7).copied().unwrap_or(0), total: fields.iter().sum() }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    #[must_use]
    pub fn steal_share_since(&self, earlier: &Self) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// A fixed dependent-load chase over 32 MiB, far beyond the L2 cache:
/// every step waits for one load from the shared L3 or memory, so its
/// speed follows how hard the host's other tenants press on them. The
/// chase is drawn from a fixed seed, so every run times the same loads;
/// it calls nothing in the program.
pub struct MemProbe {
    next: Vec<u32>,
}

impl MemProbe {
    /// Resident size of the probe, in MiB.
    pub const MIB: f64 = 32.0;
    /// Steps per measurement: about 20 ms on a host at the reference speed.
    const STEPS: usize = 100_000;

    /// Builds the chase: one cycle through every slot (Sattolo's
    /// shuffle), so it never settles into a short loop that caches hold.
    #[must_use]
    pub fn new() -> Self {
        let n = (Self::MIB as usize) << 18;
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut rng = otc_util::SplitMix64::new(0x0003_E391_20BE);
        for i in (1..n).rev() {
            next.swap(i, rng.next_below(i as u64) as usize);
        }
        Self { next }
    }

    /// Times one chase; returns millions of steps per second.
    #[must_use]
    pub fn speed(&self) -> f64 {
        let t = std::time::Instant::now();
        let mut i = 0u32;
        for _ in 0..Self::STEPS {
            i = self.next[i as usize];
        }
        std::hint::black_box(i);
        Self::STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
