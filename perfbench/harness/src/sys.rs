//! Process-level measurements from `/proc`: CPU time and resident memory of
//! this process and its worker children.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ, fixed at 100 by the
/// kernel ABI whatever the kernel's internal tick rate.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU time of this process plus every child it has reaped
/// (`utime + stime + cutime + cstime`), in milliseconds.
pub fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may hold spaces: fields are
    // counted after the last ')'. Field 3 (state) comes first there, so
    // utime (field 14) is at offset 11.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = fields
        .get(11..15)?
        .iter()
        .map(|f| f.parse::<f64>().ok())
        .sum::<Option<f64>>()?;
    Some(ticks * 1000.0 / TICKS_PER_S)
}

/// A `kB` line of `/proc/<pid>/status`, e.g. `VmRSS` or `VmHWM`.
fn status_kb(pid: &str, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix(key)?
            .strip_prefix(':')?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// This process's peak resident set (`VmHWM`) in kB.
pub fn self_peak_kb() -> u64 {
    status_kb("self", "VmHWM").unwrap_or(0)
}

/// Live children of every thread of this process.
fn children() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for task in tasks.flatten() {
        if let Ok(list) = std::fs::read_to_string(task.path().join("children")) {
            out.extend(list.split_whitespace().map(str::to_string));
        }
    }
    out
}

/// Resident set of this process plus its live children, in kB.
fn tree_rss_kb() -> u64 {
    let own = status_kb("self", "VmRSS").unwrap_or(0);
    own + children()
        .iter()
        .filter_map(|pid| status_kb(pid, "VmRSS"))
        .sum::<u64>()
}

/// Samples the resident set of this process plus its worker children in
/// the background and keeps the highest value seen since the last
/// [`RssSampler::take_peak`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl RssSampler {
    /// How often the process tree is sampled.
    const PERIOD: Duration = Duration::from_millis(5);

    /// Start sampling.
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let (flag, peak) = (stop.clone(), peak_kb.clone());
        // Relaxed throughout: the flag and the peak publish no other data.
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                peak.fetch_max(tree_rss_kb(), Ordering::Relaxed);
                std::thread::sleep(Self::PERIOD);
            }
        });
        RssSampler {
            stop,
            peak_kb,
            handle: Some(handle),
        }
    }

    /// The peak resident set of the tree (kB) since the previous call,
    /// counting the tree as it is now; restarts the peak.
    pub fn take_peak(&self) -> u64 {
        self.peak_kb.swap(0, Ordering::Relaxed).max(tree_rss_kb())
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            // A sampler panic only loses samples; nothing to propagate.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_available_and_sane() {
        let cpu0 = cpu_ms().expect("cpu time readable");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ms().expect("cpu") >= cpu0);
        assert!(self_peak_kb() > 0);
        let s = RssSampler::start();
        std::thread::sleep(Duration::from_millis(30));
        assert!(s.take_peak() > 0);
    }
}
