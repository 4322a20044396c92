//! What the host spent on a phase: process CPU time, and the share of the
//! machine's CPU time the hypervisor gave to other guests (steal).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A snapshot of the wall clock, this process's CPU time and the machine's
/// CPU time counters.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    wall: Instant,
    process_cpu_ns: u64,
    machine: [u64; 8],
}

impl Snapshot {
    /// Takes a snapshot now.
    #[must_use]
    pub fn now() -> Self {
        Snapshot {
            wall: Instant::now(),
            process_cpu_ns: process_cpu_ns(),
            machine: machine_ticks(),
        }
    }

    /// The span from `self` to `later`.
    #[must_use]
    pub fn until(&self, later: &Snapshot) -> Usage {
        let deltas: Vec<u64> = self
            .machine
            .iter()
            .zip(later.machine)
            .map(|(before, after)| after.saturating_sub(*before))
            .collect();
        let total: u64 = deltas.iter().sum();
        Usage {
            wall_s: (later.wall - self.wall).as_secs_f64(),
            cpu_s: later.process_cpu_ns.saturating_sub(self.process_cpu_ns) as f64 / 1e9,
            steal_share: if total == 0 {
                0.0
            } else {
                deltas[7] as f64 / total as f64
            },
        }
    }
}

/// CPU microseconds per operation in each window between consecutive
/// samples, skipping windows shorter than half a `period` (the tail) and
/// windows without operations.
#[must_use]
pub fn cpu_us_per_op_windows(samples: &[Sample], period: Duration) -> Vec<f64> {
    samples
        .windows(2)
        .filter_map(|pair| {
            let usage = pair[0].at.until(&pair[1].at);
            let ops = pair[1].ops - pair[0].ops;
            (ops > 0 && usage.wall_s >= period.as_secs_f64() / 2.0)
                .then(|| 1e6 * usage.cpu_s / ops as f64)
        })
        .collect()
}

/// The median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Resources one phase used.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// CPU seconds of this process, all threads, user and system.
    pub cpu_s: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub steal_share: f64,
}

#[repr(C)]
struct Timespec {
    seconds: i64,
    nanoseconds: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// CPU time of this process in nanoseconds: every thread, user and system,
/// including threads that have exited. The kernel leaves out time the
/// hypervisor stole.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    let mut time = Timespec {
        seconds: 0,
        nanoseconds: 0,
    };
    // SAFETY: `time` is a valid, writable `timespec` for the duration of
    // the call, and the clock id is a constant the kernel supports.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    if status != 0 {
        return 0;
    }
    time.seconds as u64 * 1_000_000_000 + time.nanoseconds as u64
}

/// The first eight counters of the machine-wide `cpu` line of
/// `/proc/stat`: user, nice, system, idle, iowait, irq, softirq, steal.
fn machine_ticks() -> [u64; 8] {
    let mut ticks = [0; 8];
    if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
        if let Some(line) = stat.lines().next() {
            for (slot, value) in ticks.iter_mut().zip(line.split_whitespace().skip(1)) {
                *slot = value.parse().unwrap_or(0);
            }
        }
    }
    ticks
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One sample of a [`Sampler`]: the host snapshot and the operations
/// completed by then.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host counters at the sample.
    pub at: Snapshot,
    /// Operations completed at the sample.
    pub ops: u64,
}

/// Samples the host and an operation counter every `period` on a
/// background thread while a phase runs.
#[derive(Debug)]
pub struct Sampler {
    ops: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: thread::JoinHandle<Vec<Sample>>,
}

impl Sampler {
    /// Starts sampling; the first sample is taken now.
    #[must_use]
    pub fn start(period: Duration) -> Sampler {
        let ops = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (ops, stop) = (Arc::clone(&ops), Arc::clone(&stop));
            let first = Sample {
                at: Snapshot::now(),
                ops: 0,
            };
            thread::spawn(move || {
                let mut samples = vec![first];
                let mut next = Instant::now() + period;
                while !stop.load(Ordering::Acquire) {
                    thread::park_timeout(next.saturating_duration_since(Instant::now()));
                    if Instant::now() >= next {
                        samples.push(Sample {
                            at: Snapshot::now(),
                            ops: ops.load(Ordering::Relaxed),
                        });
                        next += period;
                    }
                }
                samples
            })
        };
        Sampler { ops, stop, thread }
    }

    /// The counter the phase bumps once per completed operation.
    #[must_use]
    pub fn ops(&self) -> &AtomicU64 {
        &self.ops
    }

    /// Stops sampling and returns every sample, the last one taken now.
    ///
    /// # Panics
    ///
    /// Panics if the sampling thread panicked.
    #[must_use]
    pub fn finish(self) -> Vec<Sample> {
        let last = Sample {
            at: Snapshot::now(),
            ops: self.ops.load(Ordering::Relaxed),
        };
        self.stop.store(true, Ordering::Release);
        self.thread.thread().unpark();
        let mut samples = self.thread.join().expect("sampler thread panicked");
        samples.push(last);
        samples
    }
}
