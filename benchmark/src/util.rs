//! Statistics and process accounting the harness owns (nothing here calls
//! into the system under test).

use std::time::Instant;

/// Nearest-rank percentile, `p` in `[0, 1]`: the smallest sample with at
/// least `p` of the samples at or below it. Empty input reads as 0 so a
/// not-applicable metric prints a number.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Process user+sys CPU seconds over all threads, live and joined, from
/// `/proc/self/stat` fields 14 and 15. Ticks are `USER_HZ`, which the Linux
/// ABI fixes at 100 on x86-64 and aarch64.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / 100.0
}

/// CPU seconds the hypervisor took from this VM's vCPUs since boot: the
/// `steal` column of `/proc/stat`'s first line, same `USER_HZ` ticks. Reads 0
/// where the kernel does not account it, and then no rep counts as disturbed.
pub fn stolen_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let first = stat.lines().next().unwrap_or("");
    first.split_whitespace().nth(8).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) / 100.0
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Wall, process-CPU and stolen-CPU clocks read together at the edges of a
/// timed rep.
pub struct Clock {
    wall: Instant,
    cpu: f64,
    stolen: f64,
}

impl Clock {
    pub fn start() -> Self {
        Clock { wall: Instant::now(), cpu: cpu_seconds(), stolen: stolen_seconds() }
    }

    /// `(wall seconds, process cpu seconds, stolen cpu seconds)` since `start`.
    pub fn stop(&self) -> (f64, f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, cpu_seconds() - self.cpu, stolen_seconds() - self.stolen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(median(&[1.0, 2.0]), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
