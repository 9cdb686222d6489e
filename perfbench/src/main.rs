//! `hic-perfbench` — the repository's host-performance benchmark.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload figure-sweep --seed 0 --seconds 25 --trace 0
//! ```
//!
//! Workloads: `figure-sweep`, `audit-serial`, `fuzz-campaign`,
//! `backend-replay` (see `BENCHMARK.json` and `perfbench/rationale.md`).
//! With `--trace 0` the run repeats whole units of its workload for about
//! `--seconds` and reports the end-to-end metrics as medians over units,
//! scaled to host speed (see [`measure`]); with `--trace 1` it runs one
//! untraced and one traced unit and reports the per-layer metrics, timed
//! around the calls this benchmark makes into each layer's public
//! functions.
//!
//! The result line holds exactly the metrics `BENCHMARK.json` lists for
//! the mode: [`END_TO_END`] untraced, [`PER_LAYER`] traced. Every
//! workload measures both sets. A traced run also prints the metrics of
//! the layers only its own workload reaches (`serve.*`, `machine.*`, ...)
//! on a `# layers {...}` line before the result line.
//!
//! Every run checks its outputs: simulated results must be correct and
//! match the result fingerprints pinned in `perfbench/expected.txt`. The
//! last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; a `# host {...}` line before it
//! describes the host. A failed check exits with code 1, a run that could
//! not measure at all with code 2.

mod calib;
mod expect;
mod fuzz;
mod grid;
mod host;
mod replay;
mod stats;

use std::time::Instant;

use calib::{HostSpeed, Sampling};
use host::Usage;
use stats::{median, Metrics};

/// The end-to-end metrics of `BENCHMARK.json`: an untraced run's result.
const END_TO_END: [&str; 3] = ["wall_s", "cpu_s", "setup_s"];

/// The per-layer metrics of `BENCHMARK.json`: a traced run's result.
/// They are the ones every workload measures; see [`traced_report`].
const PER_LAYER: [&str; 7] = [
    "proc.user_s",
    "proc.sys_s",
    "proc.vcsw",
    "proc.ivcsw",
    "proc.minflt",
    "proc.peak_rss_mb",
    "trace.overhead_frac",
];

/// The input seed of each input set: `2026 + set`, except set 7. Seed
/// 2033's corrupting fault plan strikes a second upset inside a rollback
/// replay window in FFT and LU at `Scale::Small` — a fatal the fault
/// model allows by design (`FaultState::replay_flip`) — so those
/// audit-serial cells would end early with `corrupt_dirty_line` instead
/// of measuring completed runs. Set 7 uses 2042 instead.
const INPUT_SEEDS: [u64; 16] = [
    2026, 2027, 2028, 2029, 2030, 2031, 2032, 2042, 2034, 2035, 2036, 2037, 2038, 2039, 2040, 2041,
];

/// `--seed n` selects input set `n % SEED_SPACE`; every input set has its
/// result fingerprint pinned, so every run's outputs are checked.
pub const SEED_SPACE: u64 = INPUT_SEEDS.len() as u64;

/// Set-up samples taken before the first round; together with one per
/// round they give the `setup_s` median.
const EXTRA_SETUPS: usize = 40;

/// A set-up that reads below this is too short for one timer reading
/// (`Instant` costs tens of nanoseconds) and is timed in a batch instead.
const SETUP_BATCH_BELOW_S: f64 = 1e-6;

/// How long a batch of short set-ups runs; it reports the mean.
const SETUP_BATCH_S: f64 = 1e-3;

/// The input set `--seed` selects, and that set's input seed.
pub fn input_seed(seed: u64) -> (u64, u64) {
    let set = seed % SEED_SPACE;
    (set, INPUT_SEEDS[set as usize])
}

/// Items attempted and failed, summed over everything a run checked.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one item, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
    }
}

/// What one run reports.
pub struct Report {
    pub tally: Tally,
    /// The result line's metrics.
    pub metrics: Metrics,
    /// A traced run's metrics of its workload's own layers.
    pub layers: Metrics,
}

/// Time one set-up and return it with its result. A set-up below
/// [`SETUP_BATCH_BELOW_S`] is repeated for [`SETUP_BATCH_S`], each result
/// dropped inside the loop, and the mean is reported; the mean then
/// includes one timer reading per set-up.
fn timed_setup<S>(setup: &mut impl FnMut() -> S) -> (f64, S) {
    let t = Instant::now();
    let s = setup();
    let once = t.elapsed().as_secs_f64();
    if once >= SETUP_BATCH_BELOW_S {
        return (once, s);
    }
    let mut n = 0u32;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < SETUP_BATCH_S {
        drop(std::hint::black_box(setup()));
        n += 1;
    }
    (t.elapsed().as_secs_f64() / f64::from(n.max(1)), s)
}

/// The untraced measurement loop shared by every workload. It takes
/// [`EXTRA_SETUPS`] set-up samples, each dropped before the next, then
/// runs rounds until another round would overrun `seconds` (always at
/// least one). A round sets up once and runs each of the workload's
/// `arms` once, in an order that rotates from round to round, so every
/// arm samples the same mix of host phases. `unit(&mut s, arm)` runs one
/// arm.
///
/// The host's speed is sampled all through, as `sampling` says, and every
/// timing is scaled to the reference host's speed by the samples around
/// it (see [`calib`]); `cpu_s` leaves out a probe thread's CPU time. A
/// wall time first loses the share of CPU time the hypervisor reports as
/// stolen during it: time in which the VM did not run at all.
/// `wall_s` and `cpu_s` are the sums over arms of each arm's median
/// scaled time (with one arm, the median unit); `setup_s` is the median
/// scaled set-up.
pub fn measure<S>(
    seconds: f64,
    arms: usize,
    sampling: Sampling,
    mut setup: impl FnMut() -> S,
    mut unit: impl FnMut(&mut S, usize) -> Tally,
) -> Report {
    let start = Instant::now();
    let mut speed = HostSpeed::start(sampling);
    // Raw timings, each with the window on the samples' clock it was
    // taken in.
    let mut setups = Vec::new();
    for _ in 0..EXTRA_SETUPS {
        let t0 = speed.now();
        let (secs, s) = timed_setup(&mut setup);
        setups.push((secs, t0, speed.now()));
        drop(s);
    }
    speed.mark();
    let mut arm_runs = vec![Vec::new(); arms];
    let mut tally = Tally::default();
    for round in 0.. {
        let t0 = speed.now();
        let (secs, mut s) = timed_setup(&mut setup);
        setups.push((secs, t0, speed.now()));
        speed.mark();
        let round_start = Instant::now();
        for k in 0..arms {
            let arm = (round + k) % arms;
            let u0 = Usage::now();
            let k0 = calib::cpu_ticks();
            let t0 = speed.now();
            let t = Instant::now();
            tally.add(unit(&mut s, arm));
            let wall = t.elapsed().as_secs_f64();
            let cpu = Usage::now().since(&u0).cpu_s();
            let k1 = calib::cpu_ticks();
            let stolen = (k1.0 - k0.0) as f64 / (k1.1 - k0.1).max(1) as f64;
            arm_runs[arm].push((wall, cpu, stolen, t0, speed.now()));
            speed.mark();
        }
        drop(s);
        let round_s = round_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }
    let samples = speed.finish();
    let setups: Vec<f64> = setups
        .iter()
        .map(|&(secs, t0, t1)| secs * samples.scale(t0, t1))
        .collect();
    let mut walls = vec![Vec::new(); arms];
    let mut cpus = vec![Vec::new(); arms];
    for (arm, runs) in arm_runs.iter().enumerate() {
        for &(wall, cpu, stolen, t0, t1) in runs {
            let f = samples.scale(t0, t1);
            walls[arm].push(wall * (1.0 - stolen) * f);
            cpus[arm].push((cpu - samples.cpu_in(t0, t1)) * f);
        }
    }
    eprintln!(
        "measured {} round(s) of {arms} arm(s), {} kernel samples ({sampling:?}): \
         scaled walls {walls:?} s, scaled cpu {cpus:?} s, scaled setups {setups:?} s, \
         (raw wall s, raw cpu s, share stolen, window) {arm_runs:?}",
        arm_runs[0].len(),
        samples.len()
    );
    let sum_of_medians = |xs: &[Vec<f64>]| xs.iter().map(|x| median(x)).sum::<f64>();
    let mut m = Metrics::default();
    m.put("setup_s", median(&setups), "s");
    m.put("wall_s", sum_of_medians(&walls), "s");
    m.put("cpu_s", sum_of_medians(&cpus), "s");
    Report {
        tally,
        metrics: m,
        layers: Metrics::default(),
    }
}

/// A traced run's report: the [`PER_LAYER`] metrics — process counters
/// over the untraced unit and the traced unit's wall relative to the
/// untraced one — with `layers`, the workload's own layer metrics.
pub fn traced_report(
    tally: Tally,
    layers: Metrics,
    unit: &Usage,
    untraced_s: f64,
    traced_s: f64,
) -> Report {
    let mut m = Metrics::default();
    m.put("proc.user_s", unit.user_s, "s");
    m.put("proc.sys_s", unit.sys_s, "s");
    m.put("proc.vcsw", unit.vcsw, "count");
    m.put("proc.ivcsw", unit.ivcsw, "count");
    m.put("proc.minflt", unit.minflt, "count");
    m.put("proc.peak_rss_mb", Usage::now().peak_rss_mb, "MB");
    m.put("trace.overhead_frac", traced_s / untraced_s - 1.0, "ratio");
    Report {
        tally,
        metrics: m,
        layers,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(a: &Args) -> Result<Report, String> {
    match (a.workload.as_str(), a.trace) {
        ("figure-sweep", false) => Ok(grid::figure_sweep(a.seconds)),
        ("figure-sweep", true) => grid::figure_sweep_traced(),
        ("audit-serial", false) => Ok(grid::audit_serial(a.seed, a.seconds)),
        ("audit-serial", true) => grid::audit_serial_traced(a.seed),
        ("fuzz-campaign", false) => Ok(fuzz::campaign(a.seconds)),
        ("fuzz-campaign", true) => fuzz::campaign_traced(),
        ("backend-replay", false) => replay::backend_replay(a.seed, a.seconds),
        ("backend-replay", true) => replay::backend_replay_traced(a.seed),
        (w, _) => Err(format!("unknown workload {w:?}")),
    }
}

/// `metrics` as a JSON object of `{"value", "unit"}` records.
fn metrics_json(metrics: &Metrics) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in &metrics.0 {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!("{{{}}}", fields.join(", ")))
}

/// The result line; an error unless its metrics are exactly `names`.
fn result_json(r: &Report, names: &[&str]) -> Result<String, String> {
    let mut got: Vec<&str> = r.metrics.0.iter().map(|m| m.name.as_str()).collect();
    let mut want = names.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got != want {
        return Err(format!("result metrics {got:?} are not {want:?}"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.tally.failed == 0,
        r.tally.attempted,
        r.tally.failed,
        metrics_json(&r.metrics)?
    ))
}

/// Bring glibc's allocator into the state a process reaches once it has
/// freed a large block. glibc starts with a 128 KiB mmap threshold and
/// raises it to the size of each larger block freed (up to 32 MiB), and
/// its trim threshold to twice that (mallopt(3)). Until a raise happens,
/// every per-run buffer above 128 KiB is a fresh `mmap`, page-faulted in
/// and unmapped again. Whether that raise happens early was left to chance
/// in this process: without this call about half of the `fuzz-campaign`
/// processes spent 20 s instead of 4 s in the kernel and took 23-32 s
/// instead of 10-12 s per campaign (see rationale.md). Freeing one 30 MiB
/// block here raises both thresholds before anything is measured.
fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; 30 << 20]));
}

fn main() {
    settle_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hic-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = host::fingerprint();
    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let out =
        run(&args).and_then(|r| Ok((result_json(&r, names)?, metrics_json(&r.layers)?, r.tally)));
    match out {
        Ok((json, layers, tally)) => {
            println!("# host {host}");
            if args.trace {
                println!("# layers {layers}");
            }
            println!("{json}");
            if tally.failed > 0 || tally.attempted == 0 {
                eprintln!(
                    "hic-perfbench: {} of {} checked items failed",
                    tally.failed, tally.attempted
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("hic-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
