//! What the host tells us from outside the program: per-thread CPU and
//! context switches from `/proc/self/task`, peak RSS, load average.
//!
//! CPU time comes from `schedstat` (nanoseconds on-CPU, first field),
//! not `stat` (10 ms ticks), so a one-second repetition resolves to
//! better than a part in a million. Only live threads are visible, so
//! callers sample before they join the threads they care about.

use std::fs;

/// One thread's counters at the moment of sampling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSample {
    pub name: String,
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Samples every live thread of this process. A thread that exits
/// between the directory listing and the reads is skipped.
#[must_use]
pub fn threads() -> Vec<ThreadSample> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let path = entry.ok()?.path();
        let name = fs::read_to_string(path.join("comm")).ok()?;
        let sched = fs::read_to_string(path.join("schedstat")).ok()?;
        let status = fs::read_to_string(path.join("status")).ok()?;
        Some(ThreadSample {
            name: name.trim().to_string(),
            cpu_ns: sched.split_whitespace().next()?.parse().ok()?,
            ctx_switches: status_field(&status, "voluntary_ctxt_switches")
                + status_field(&status, "nonvoluntary_ctxt_switches"),
        })
    })
    .collect()
}

/// `(cpu_ns, ctx_switches)` summed over the live threads whose name
/// starts with `prefix`.
#[must_use]
pub fn sum_named(samples: &[ThreadSample], prefix: &str) -> (u64, u64) {
    samples
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .fold((0, 0), |(c, s), t| (c + t.cpu_ns, s + t.ctx_switches))
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM") as f64 / 1024.0
}

/// One-minute load average.
#[must_use]
pub fn loadavg1() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// A warning (not a failure) when the machine was already busy at start.
#[must_use]
pub fn load_warning(loadavg1: f64) -> Option<String> {
    (loadavg1 > 1.5).then(|| {
        format!("WARNING: load average {loadavg1:.2} > 1.5 at start; timings share the machine")
    })
}

/// Processors the kernel lists (`nproc --all`).
#[must_use]
pub fn nproc() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// Processors this process may run on.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// Parses a `Cpus_allowed_list` value ("0-1", "0,2-3") into its CPUs,
/// ascending.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let mut ends = part.splitn(2, '-').map(|v| v.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(lo)), None) => cpus.push(lo),
            (Some(Ok(lo)), Some(Ok(hi))) if lo <= hi && hi - lo < 4096 => cpus.extend(lo..=hi),
            _ => {}
        }
    }
    cpus
}

// `std` does not expose the call and the benchmark takes no crates, so
// it is declared against the C library `std` already links.
#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and so every thread it spawns afterwards,
/// to `cpu`. Other threads of the process keep their affinity.
#[cfg(target_os = "linux")]
fn pin_this_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: sched_setaffinity(0, len, mask) reads `len` bytes at `mask`
    // and writes nothing; `mask` is a live, initialised array of exactly
    // `size_of_val(&mask)` bytes for the whole call. Pid 0 is the calling
    // thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_this_thread(_cpu: usize) -> bool {
    false
}

/// Where a run's threads are held.
///
/// Left to the kernel, the generator and the reactor migrate between the
/// two cores of this box and a run lands in one of several regimes (the
/// same commit read 0.30, 0.46 and 1.29 M flow-mods/s in three
/// consecutive `wire_bulk` runs). Held on a core each, in ten runs
/// alternated with ten on a shared core, the slowest run was 1.9x to 2.5x
/// below the fastest (1.3x shared) and the repetitions of one run two to
/// three times further apart: two vCPUs that spin waiting on each other
/// stall together whenever the hypervisor takes either away. So every
/// thread of a run shares **one** CPU — a single-core time-slice regime,
/// which the output states — and the two-core regime is measured once per
/// traced wire run as an ungated per-layer number. One CPU is also what
/// makes the `steal` column of `/proc/stat` usable: whatever it counts
/// was taken from this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// The CPU every thread of the run is held on.
    pub cpu: usize,
    /// A second CPU, when the process is allowed one.
    pub other_cpu: Option<usize>,
}

static PLACEMENT: std::sync::OnceLock<Option<Placement>> = std::sync::OnceLock::new();
/// Whether [`Placement::enter`] held this run's threads on one CPU.
static ENTERED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// The `steal` column of `cpu`'s line in `/proc/stat` text, seconds
/// (the column counts `USER_HZ` ticks, 100 to the second on Linux).
fn stolen_from_stat(stat: &str, cpu: usize) -> Option<f64> {
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(&format!("cpu{cpu}")))?;
    // cpuN user nice system idle iowait irq softirq steal ...
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / 100.0)
}

impl Placement {
    fn from_allowed(cpus: &[usize]) -> Option<Placement> {
        let &cpu = cpus.last()?;
        Some(Placement {
            cpu,
            other_cpu: cpus.iter().rev().nth(1).copied(),
        })
    }

    /// The placement of this process, fixed by the first call (which must
    /// come before any pinning: a pinned thread reads a narrowed list).
    pub fn get() -> Option<Placement> {
        *PLACEMENT.get_or_init(|| {
            let status = fs::read_to_string("/proc/thread-self/status").ok()?;
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
            Placement::from_allowed(&parse_cpu_list(list))
        })
    }

    /// Pins the calling thread, and so every thread spawned from now on,
    /// to the run's CPU.
    pub fn enter() -> bool {
        let entered = Placement::get().is_some_and(|p| pin_this_thread(p.cpu));
        ENTERED.store(entered, std::sync::atomic::Ordering::Relaxed);
        entered
    }

    /// Seconds since boot that the hypervisor ran another guest on the
    /// run's CPU while this one wanted it (10 ms resolution). 0 when the
    /// run's threads are not held on one CPU, or the kernel does not say:
    /// then nothing is known about who had the CPU.
    #[must_use]
    pub fn stolen_s() -> f64 {
        if !ENTERED.load(std::sync::atomic::Ordering::Relaxed) {
            return 0.0;
        }
        Placement::get()
            .and_then(|p| stolen_from_stat(&fs::read_to_string("/proc/stat").ok()?, p.cpu))
            .unwrap_or(0.0)
    }

    /// Runs `spawn` with the calling thread on the second CPU, so the
    /// threads it starts live there, then moves the caller back. `None`
    /// when there is no second CPU.
    pub fn spawn_on_other_cpu<T>(spawn: impl FnOnce() -> T) -> Option<T> {
        let p = Placement::get()?;
        if !pin_this_thread(p.other_cpu?) {
            return None;
        }
        let out = spawn();
        pin_this_thread(p.cpu);
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_thread_cpu_is_visible_and_grows() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("bench-probe".into())
            .spawn(move || {
                let mut x = 0u64;
                for i in 0..20_000_000u64 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                }
                ready_tx.send(()).unwrap();
                rx.recv().unwrap();
                x
            })
            .unwrap();
        ready_rx.recv().unwrap();
        let samples = threads();
        let (cpu, _) = sum_named(&samples, "bench-probe");
        assert!(cpu > 0, "{samples:?}");
        assert!(sum_named(&samples, "").0 >= cpu);
        tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(peak_rss_mib() > 0.0);
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn placement_picks_the_last_cpus_and_spawned_threads_inherit_the_pin() {
        assert_eq!(parse_cpu_list("0-1\n"), vec![0, 1]);
        assert_eq!(parse_cpu_list("\t0,2-3"), vec![0, 2, 3]);
        assert_eq!(parse_cpu_list("5"), vec![5]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
        assert_eq!(
            Placement::from_allowed(&[0, 2, 3]),
            Some(Placement {
                cpu: 3,
                other_cpu: Some(2)
            })
        );
        assert_eq!(
            Placement::from_allowed(&[4]),
            Some(Placement {
                cpu: 4,
                other_cpu: None
            })
        );
        assert_eq!(Placement::from_allowed(&[]), None);
        // On its own thread: affinity is per thread, and the other tests
        // of this binary should keep theirs.
        std::thread::spawn(|| {
            let allowed = |path: &str| {
                let status = fs::read_to_string(path).unwrap();
                let list = status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .unwrap();
                parse_cpu_list(list)
            };
            let Some(&cpu) = allowed("/proc/thread-self/status").last() else {
                return;
            };
            if pin_this_thread(cpu) {
                assert_eq!(allowed("/proc/thread-self/status"), vec![cpu]);
                let child = std::thread::spawn(available_parallelism).join().unwrap();
                assert_eq!(child, 1, "spawned threads inherit the pin");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn stolen_time_is_the_eighth_column_of_the_cpu_line() {
        let stat = "cpu  11 0 3 23 1 0 7 37 0 0\ncpu0 1 0 4 18 7 0 5 198 0 0\ncpu1 10 0 3 5 5 0 7 17987 0 0\ncpu10 1 1 1 1 1 1 1 1 0 0\n";
        assert_eq!(stolen_from_stat(stat, 1), Some(179.87));
        assert_eq!(stolen_from_stat(stat, 0), Some(1.98));
        assert_eq!(stolen_from_stat(stat, 2), None);
        assert_eq!(stolen_from_stat("cpu0 1 2 3\n", 0), None);
    }

    #[test]
    fn status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t    1576 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(s, "VmHWM"), 1576);
        assert_eq!(status_field(s, "voluntary_ctxt_switches"), 12);
        assert_eq!(status_field(s, "missing"), 0);
    }
}
