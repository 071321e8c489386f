//! Per-thread CPU accounting from `/proc/self/task/<tid>/schedstat`, sorted
//! into the classes the metrics are defined over, plus the machine
//! fingerprint every result carries.

use std::collections::HashMap;
use std::sync::Mutex;

/// Who a thread's time belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Executor workers, recognised by thread name.
    Executor,
    /// Load generators and the sampler: threads the harness owns.
    Harness,
    /// Everything else: the server tier (accept, poll and connection
    /// threads).
    Server,
}

/// Thread ids the harness registered as its own (generators, sampler).
static HARNESS_TIDS: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Kernel thread id of the calling thread, from the `/proc/thread-self`
/// link (`<pid>/task/<tid>`).
pub fn current_tid() -> Option<u32> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// Marks the calling thread as harness-owned: its CPU is not the system's.
pub fn register_harness_thread() {
    if let Some(tid) = current_tid() {
        let mut tids = HARNESS_TIDS.lock().expect("harness tid list");
        if !tids.contains(&tid) {
            tids.push(tid);
        }
    }
}

/// Asks the kernel to wake the calling thread's sleeps on time instead of up
/// to 50 us late (the default timer slack), through the thread's own
/// `/proc/<tid>/timerslack_ns` — the file form of `PR_SET_TIMERSLACK`. Best
/// effort: where the write is refused the generator simply runs later, and
/// its lateness metrics say so.
pub fn tighten_timer_slack() {
    if let Some(tid) = current_tid() {
        let _ = std::fs::write(format!("/proc/{tid}/timerslack_ns"), "1");
    }
}

/// CPU sets as the kernel takes them: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

// The C library `std` already links; there is no file form of these two.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While this lives, the thread that made it, and every thread started in
/// the meantime, runs on one CPU only (threads inherit their starter's CPU
/// set). Dropping it gives the calling thread its CPUs back.
pub struct OneCpu {
    previous: Option<CpuMask>,
}

impl OneCpu {
    /// Confines the calling thread to the first CPU it may run on. Best
    /// effort: where the kernel refuses, nothing changes.
    pub fn confine() -> Self {
        let mut allowed: CpuMask = [0; 16];
        // SAFETY: `allowed` is a live, writable buffer of the size passed.
        let read = unsafe {
            sched_getaffinity(0, std::mem::size_of::<CpuMask>(), allowed.as_mut_ptr()) == 0
        };
        let first = allowed.iter().position(|&word| word != 0);
        let previous = match (read, first) {
            (true, Some(word)) => {
                let mut one: CpuMask = [0; 16];
                one[word] = 1 << allowed[word].trailing_zeros();
                // SAFETY: `one` is a live buffer of the size passed.
                let set = unsafe {
                    sched_setaffinity(0, std::mem::size_of::<CpuMask>(), one.as_ptr()) == 0
                };
                set.then_some(allowed)
            }
            _ => None,
        };
        Self { previous }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(previous) = self.previous {
            // SAFETY: `previous` is a live buffer of the size passed.
            unsafe {
                sched_setaffinity(0, std::mem::size_of::<CpuMask>(), previous.as_ptr());
            }
        }
    }
}

/// Parses a `schedstat` line: on-CPU ns, run-queue-wait ns, timeslices.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    let on_cpu = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    fields.next()?.parse::<u64>().ok()?;
    Some((on_cpu, wait))
}

/// Thread names (as `comm` truncates them to 15 bytes) of executor workers.
pub fn is_executor_thread(comm: &str) -> bool {
    [
        "pdq-worker",
        "pdq-shard",
        "spinlock-worke",
        "multiqueue-wor",
    ]
    .iter()
    .any(|prefix| comm.starts_with(prefix))
}

#[derive(Debug, Clone)]
struct ThreadCpu {
    class: Class,
    on_cpu_ns: u64,
    wait_ns: u64,
}

/// CPU totals of every live thread at one instant.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    threads: HashMap<u32, ThreadCpu>,
    /// Process user+system time from `/proc/self/stat`, which also counts
    /// threads that have exited.
    pub process_ns: u64,
}

/// Time spent between two snapshots, by class.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub executor_ns: u64,
    pub harness_ns: u64,
    pub server_ns: u64,
    /// Time runnable threads of the system under test waited for a CPU.
    pub system_wait_ns: u64,
    pub process_ns: u64,
}

impl Delta {
    /// On-CPU time of the system under test: everything but the harness.
    pub fn system_ns(&self) -> u64 {
        self.executor_ns + self.server_ns
    }

    pub fn threads_ns(&self) -> u64 {
        self.executor_ns + self.harness_ns + self.server_ns
    }

    /// How far the per-thread classes are from the process total, as a share
    /// of it — the reconciliation the traced run checks.
    pub fn class_gap_share(&self) -> f64 {
        if self.process_ns == 0 {
            return 0.0;
        }
        (self.threads_ns() as f64 - self.process_ns as f64).abs() / self.process_ns as f64
    }
}

/// Reads every thread's counters. Unreadable entries (a thread that exited
/// mid-scan) are skipped.
pub fn snapshot() -> Snapshot {
    let harness = HARNESS_TIDS.lock().expect("harness tid list").clone();
    let mut snap = Snapshot::default();
    if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
        for entry in entries.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let base = entry.path();
            let Some((on_cpu_ns, wait_ns)) = std::fs::read_to_string(base.join("schedstat"))
                .ok()
                .as_deref()
                .and_then(parse_schedstat)
            else {
                continue;
            };
            let class = if harness.contains(&tid) {
                Class::Harness
            } else {
                let comm = std::fs::read_to_string(base.join("comm")).unwrap_or_default();
                if is_executor_thread(comm.trim_end()) {
                    Class::Executor
                } else {
                    Class::Server
                }
            };
            snap.threads.insert(
                tid,
                ThreadCpu {
                    class,
                    on_cpu_ns,
                    wait_ns,
                },
            );
        }
    }
    snap.process_ns = process_cpu_ns().unwrap_or(0);
    snap
}

/// utime+stime of the process in nanoseconds (kernel ticks are 10 ms).
fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

impl Snapshot {
    /// Time spent since `earlier`. A thread absent from `earlier` started in
    /// between and counts from zero; one absent from `self` exited and its
    /// time is lost to the classes (the process total still has it).
    pub fn since(&self, earlier: &Snapshot) -> Delta {
        let mut delta = Delta {
            process_ns: self.process_ns.saturating_sub(earlier.process_ns),
            ..Delta::default()
        };
        for (tid, now) in &self.threads {
            let (before_cpu, before_wait) = earlier
                .threads
                .get(tid)
                .map_or((0, 0), |t| (t.on_cpu_ns, t.wait_ns));
            let cpu = now.on_cpu_ns.saturating_sub(before_cpu);
            let wait = now.wait_ns.saturating_sub(before_wait);
            match now.class {
                Class::Executor => delta.executor_ns += cpu,
                Class::Harness => delta.harness_ns += cpu,
                Class::Server => delta.server_ns += cpu,
            }
            if now.class != Class::Harness {
                delta.system_wait_ns += wait;
            }
        }
        delta
    }
}

/// Peak resident set of the process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Number of CPUs the harness sizes itself to: what the OS reports, capped
/// at 4.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 4)
}

fn first_line(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without spawning git; `unknown` outside a repository.
fn commit() -> String {
    let head = match first_line(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => first_line(&format!(".git/{reference}")).unwrap_or_else(|| {
            std::fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split(' ').next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".into())
        }),
    }
}

/// Where and how a result was measured. Printed with every run and stored in
/// every result file; numbers from different fingerprints do not compare.
pub fn fingerprint(executor: &str, tier: &str, workers: usize, seed: u64) -> crate::json::Json {
    use crate::json::Json;
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    Json::obj(vec![
        ("nproc", nproc().into()),
        ("cpu_model", cpu_model.into()),
        (
            "kernel",
            first_line("/proc/sys/kernel/osrelease")
                .unwrap_or_else(|| "unknown".into())
                .into(),
        ),
        ("rustc", rustc.into()),
        ("commit", commit().into()),
        ("executor", executor.into()),
        ("tier", tier.into()),
        ("workers", workers.into()),
        (
            "ring",
            match std::env::var("PDQ_RING").as_deref() {
                Ok("0") => "off",
                Ok("1") => "on",
                _ => "default",
            }
            .into(),
        ),
        ("seed", seed.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_lines_parse() {
        assert_eq!(
            parse_schedstat("511729279 9620795 64\n"),
            Some((511_729_279, 9_620_795))
        );
        assert_eq!(parse_schedstat("0 0 0"), Some((0, 0)));
        assert_eq!(parse_schedstat("12 34"), None);
        assert_eq!(parse_schedstat("a b c"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn executor_threads_are_recognised_by_truncated_name() {
        for comm in [
            "pdq-worker-0",
            "pdq-shard1-w0",
            "spinlock-worker",
            "multiqueue-work",
        ] {
            assert!(is_executor_thread(comm), "{comm}");
        }
        for comm in ["pdq-benchmark", "main", ""] {
            assert!(!is_executor_thread(comm), "{comm}");
        }
    }

    #[test]
    fn a_busy_registered_thread_lands_in_the_harness_class() {
        let before = snapshot();
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    register_harness_thread();
                    let start = std::time::Instant::now();
                    let mut x = 0u64;
                    while start.elapsed().as_millis() < 60 {
                        x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                    }
                    // Snapshot while the thread is still alive.
                    let delta = snapshot().since(&before);
                    assert!(
                        delta.harness_ns >= 30_000_000,
                        "harness {}",
                        delta.harness_ns
                    );
                })
                .join()
                .unwrap();
        });
        assert!(current_tid().is_some());
        assert!(peak_rss_mb() > 0.0);
    }
}
