//! Host probes read from procfs, with no dependency beyond `std`.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 by the Linux ABI on every
/// mainstream architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process (every thread, live or
/// joined) so far, in seconds.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick(11) + tick(12)) / USER_HZ
}

/// Times one operation: host wall time, process CPU time, and the CPU time
/// the hypervisor stole from the machine meanwhile.
pub struct Timer {
    t0: std::time::Instant,
    cpu0: f64,
    stolen0: f64,
}

impl Timer {
    pub fn start() -> Timer {
        Timer { cpu0: cpu_s(), stolen0: host_cpu_s().0, t0: std::time::Instant::now() }
    }

    /// `(wall_s, raw_wall_s, cpu_s)`: the wall net of steal (see
    /// [`net_of_steal`]), the wall as measured, and the process CPU time.
    pub fn stop(&self) -> (f64, f64, f64) {
        let raw = self.t0.elapsed().as_secs_f64();
        let stolen = host_cpu_s().0 - self.stolen0;
        (net_of_steal(raw, stolen), raw, cpu_s() - self.cpu0)
    }
}

/// A wall time of `raw_s` less the share of `stolen_s` (CPU seconds the
/// hypervisor gave to other machines, summed over the host's CPUs) that
/// fell on each CPU. A virtual CPU accrues steal only while it has work to
/// run, so this is the time a neighbour's load took from an operation
/// that keeps every CPU busy; on a shared host it is most of the
/// run-to-run spread of the raw wall.
pub fn net_of_steal(raw_s: f64, stolen_s: f64) -> f64 {
    raw_s - stolen_s / nproc() as f64
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// CPU seconds the host's CPUs spent stolen by the hypervisor, and all
/// CPU seconds, summed over every CPU, from the aggregate `cpu` line of
/// `/proc/stat` (user, nice, system, idle, iowait, irq, softirq, steal).
pub fn host_cpu_s() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0) / USER_HZ, ticks.iter().sum::<f64>() / USER_HZ)
}
