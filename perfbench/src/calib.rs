//! Host-speed calibration: a fixed kernel, owned by the benchmark and
//! running no repository code, timed all through a measurement, and the
//! factor by which each timing is scaled to the reference host's speed.
//!
//! On a shared host, other tenants slow every CPU-bound phase alike, by
//! up to 1.6x, in phases that last seconds to minutes. A run's median
//! then follows how much of the run fell into slow phases, not the
//! program. The kernel's time tracks the host alone. A timing divided by
//! the median kernel sample around it, and multiplied by [`REF_S`],
//! reads as seconds on a host where one kernel sample takes [`REF_S`].
//!
//! Samples are taken one of two ways ([`Sampling`]), because a slow phase
//! can hold one vCPU and not the other. Kernel times are the sampling
//! thread's own CPU time, which a slow phase stretches but waiting for a
//! CPU the workload holds does not.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::median;

/// The kernel sample time scaled timings are referred to. On the 2-vCPU
/// Intel Xeon (2.0 GHz) VM the benchmark was built on, a sample took
/// about 0.5 ms inline and 0.9 ms in the probe thread, whose table has
/// partly left the caches after each pause; so inline-scaled timings read
/// close to that host's seconds and probe-scaled ones about half of them.
/// Scaled figures compare commits, not workloads.
pub const REF_S: f64 = 500e-6;

/// Words in the kernel's table: 4 MiB, beyond the host's L2, so the
/// kernel also feels a slow phase that comes from memory contention.
const WORDS: usize = 1 << 19;

/// Table updates per kernel sample.
const UPDATES: usize = 50_000;

/// Pause between the probe thread's samples: the probe takes about 4 %
/// of one CPU.
const PERIOD: Duration = Duration::from_millis(20);

/// Samples taken at each inline mark: the two marks around a timing give
/// exactly [`MIN_SAMPLES`].
const INLINE_SAMPLES: usize = 9;

/// Fewest samples a scale rests on: a window holding fewer (a short arm,
/// a set-up, or any window under [`Sampling::Inline`], whose samples lie
/// between the windows) takes the samples nearest its middle instead.
const MIN_SAMPLES: usize = 2 * INLINE_SAMPLES;

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU seconds the calling thread has run.
fn thread_cpu_s() -> f64 {
    let mut t = Timespec::default();
    // SAFETY: `t` is a live, writable `struct timespec` with the 64-bit
    // Linux layout (host.rs refuses other targets); clock_gettime writes
    // only within it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) cannot fail");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Ticks that all CPUs have spent stolen by the hypervisor, and in all,
/// since boot (the `cpu` line of `/proc/stat`); zeros where it cannot be
/// read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    if fields.len() < 8 {
        return (0, 0);
    }
    (fields[7], fields[..8].iter().sum())
}

/// The kernel and its state.
struct Kernel {
    table: Vec<u64>,
    x: u64,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            table: vec![1; WORDS],
            x: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Time one sample of random read-modify-writes over the table —
    /// cache misses and integer work, as the simulator's own data
    /// structures do — in the calling thread's CPU seconds.
    fn sample(&mut self) -> f64 {
        let t = thread_cpu_s();
        let mut x = self.x;
        for _ in 0..UPDATES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x);
        }
        self.x = std::hint::black_box(x);
        thread_cpu_s() - t
    }
}

/// Where the kernel samples are taken.
#[derive(Debug, Clone, Copy)]
pub enum Sampling {
    /// A probe thread samples every [`PERIOD`] all through, so a long
    /// timing is scaled by the samples taken during it. For workloads
    /// that run on every vCPU, where the probe shares their CPUs.
    Probe,
    /// The measuring thread samples at each [`HostSpeed::mark`], between
    /// timings, on the vCPU the timed work runs on. For single-threaded
    /// workloads with short timings: a probe thread would run on the
    /// other, idle vCPU, whose speed can differ.
    Inline,
}

/// Host-speed sampling during one measurement.
pub struct HostSpeed {
    start: Instant,
    inline: Option<(Kernel, Vec<(f64, f64)>)>,
    probe: Option<(Arc<AtomicBool>, JoinHandle<Vec<(f64, f64)>>)>,
}

/// The kernel samples of a finished measurement: (seconds since it
/// started, kernel CPU seconds).
pub struct Samples(Vec<(f64, f64)>);

impl HostSpeed {
    pub fn start(sampling: Sampling) -> HostSpeed {
        let start = Instant::now();
        let mut speed = HostSpeed {
            start,
            inline: None,
            probe: None,
        };
        match sampling {
            Sampling::Inline => speed.inline = Some((Kernel::new(), Vec::new())),
            Sampling::Probe => {
                let stop = Arc::new(AtomicBool::new(false));
                let flag = Arc::clone(&stop);
                let thread = std::thread::spawn(move || {
                    let mut kernel = Kernel::new();
                    let mut samples = Vec::new();
                    while !flag.load(Ordering::Relaxed) {
                        let at = start.elapsed().as_secs_f64();
                        samples.push((at, kernel.sample()));
                        std::thread::sleep(PERIOD);
                    }
                    samples
                });
                speed.probe = Some((stop, thread));
            }
        }
        speed.mark();
        speed
    }

    /// Seconds since the measurement started, on the samples' clock.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Mark a point between timings: under [`Sampling::Inline`], take
    /// [`INLINE_SAMPLES`] samples here.
    pub fn mark(&mut self) {
        let at = self.now();
        if let Some((kernel, samples)) = &mut self.inline {
            for _ in 0..INLINE_SAMPLES {
                samples.push((at, kernel.sample()));
            }
        }
    }

    /// End the measurement; a probe thread is stopped and waited for.
    pub fn finish(mut self) -> Samples {
        self.mark();
        let mut samples = match self.inline {
            Some((_, samples)) => samples,
            None => Vec::new(),
        };
        if let Some((stop, thread)) = self.probe {
            stop.store(true, Ordering::Relaxed);
            samples.extend(thread.join().expect("the probe thread does not panic"));
        }
        Samples(samples)
    }
}

impl Samples {
    /// The factor that scales a timing taken from `t0` to `t1` to the
    /// reference host's speed: [`REF_S`] over the median kernel sample of
    /// that window, or of the [`MIN_SAMPLES`] samples nearest its middle
    /// when it holds fewer.
    pub fn scale(&self, t0: f64, t1: f64) -> f64 {
        let mut inside: Vec<f64> = self
            .0
            .iter()
            .filter(|(at, _)| (t0..=t1).contains(at))
            .map(|&(_, s)| s)
            .collect();
        if inside.len() < MIN_SAMPLES {
            let mid = (t0 + t1) / 2.0;
            let mut by_distance = self.0.clone();
            by_distance.sort_by(|a, b| (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs()));
            inside = by_distance
                .iter()
                .take(MIN_SAMPLES)
                .map(|&(_, s)| s)
                .collect();
        }
        REF_S / median(&inside)
    }

    /// The kernel's CPU seconds from `t0` to `t1` (a probe thread's
    /// share of the process's CPU time in that window).
    pub fn cpu_in(&self, t0: f64, t1: f64) -> f64 {
        self.0
            .iter()
            .filter(|(at, _)| (t0..=t1).contains(at))
            .map(|&(_, s)| s)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}
