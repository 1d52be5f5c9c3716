//! Process probes: CPU time from `/proc/self/stat`, resident memory from
//! `/proc/self/status`. Both cover every thread of the process, so shard
//! workers count too.

use std::fs;

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, fixed at
/// 100 by the Linux ABI whatever the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after it start
    // behind the last ')'. utime and stime are fields 14 and 15 overall,
    // i.e. the 12th and 13th after the name.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {i}"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Current resident set size in bytes.
pub fn rss_bytes() -> Result<u64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

/// Tracks peak RSS over a phase relative to a baseline taken before set-up.
/// RSS is sampled, so the caller decides the cadence (`sample`).
#[derive(Debug, Clone, Copy)]
pub struct RssWatch {
    baseline: u64,
    peak: u64,
}

impl RssWatch {
    /// Start watching; the current RSS is the baseline.
    pub fn start() -> Result<Self, String> {
        let baseline = rss_bytes()?;
        Ok(RssWatch {
            baseline,
            peak: baseline,
        })
    }

    /// Take one sample.
    pub fn sample(&mut self) -> Result<(), String> {
        self.peak = self.peak.max(rss_bytes()?);
        Ok(())
    }

    /// Peak minus baseline, in MiB.
    pub fn peak_delta_mb(&self) -> f64 {
        self.peak.saturating_sub(self.baseline) as f64 / (1024.0 * 1024.0)
    }
}

/// An empty vector with room for `len` items whose pages are already
/// resident, so that filling it later does not count as growth against an
/// RSS baseline taken after this call.
pub fn touched<T: Clone>(len: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(len);
    v.resize(len, fill);
    v.clear();
    v
}
