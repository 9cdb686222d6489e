//! Host-performance benchmark: wall-clock and engine-throughput tracking.
//!
//! The `bench_host` binary runs the full application suite (every cell of
//! the evaluation sweep, like `figures suite`, but sequentially on one
//! thread), times each run on the host clock,
//! and writes a machine-readable `BENCH_host.json` so the wall-clock
//! trajectory of the simulator itself is tracked PR over PR. The JSON
//! records, per run and in aggregate: host wall time, simulated-machine
//! ops executed, sim-ops per host second, and the engine's transport
//! ledger (messages, batches, reply round-trips, wakeups).
//!
//! The serde shim is inert (see `crates/shims/README.md`), so the JSON is
//! emitted by the tiny hand-rolled writer in this module.

use std::time::{Duration, Instant};

use hic_apps::{all_apps, inter_apps, AppRun, Scale};
use hic_machine::{ResilienceStats, TrafficLedger};
use hic_runtime::{CheckMode, Config, FaultSpec, InterConfig, RunRequest, Scheduler};
use hic_serve::{job::family, sweep_requests};
use hic_sim::{EngineStats, Topology, TopologyBuilder};

use crate::cli::sweep_from_env;
use crate::harness::Timing;

/// One timed (app, configuration) execution.
#[derive(Debug, Clone)]
pub struct HostRun {
    pub app: String,
    pub config: String,
    /// `"intra"` or `"inter"`.
    pub family: &'static str,
    pub correct: bool,
    pub cycles: u64,
    pub wall: Duration,
    pub engine: EngineStats,
}

impl HostRun {
    /// Simulated machine ops retired per host-side second.
    pub fn sim_ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.engine.ops_executed as f64 / s
    }
}

/// Sanitizer-overhead measurement (`--check`): the incoherent half of
/// the suite timed with `hic-check` off and in Report mode (explicit
/// `RunRequest`s; nothing is read from or written to the environment). Each mode is
/// swept [`CHECK_REPS`] times, interleaved, and the minimum wall time per
/// mode is reported — a single off-then-report pass charges all the
/// process warm-up (lazy page faults, allocator growth, branch training)
/// to the *off* sweep and used to report a negative overhead.
#[derive(Debug, Clone)]
pub struct CheckOverhead {
    /// Minimum wall time of the sweep with checking off.
    pub wall_off: Duration,
    /// Minimum wall time of the same sweep in Report mode.
    pub wall_report: Duration,
    /// Total loads/stores the sanitizer inspected across the sweep.
    pub checks: u64,
    /// True when the whole suite produced zero findings (it must).
    pub clean: bool,
}

impl CheckOverhead {
    /// Host-time overhead of Report-mode checking, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let off = self.wall_off.as_secs_f64();
        if off == 0.0 {
            return 0.0;
        }
        (self.wall_report.as_secs_f64() / off - 1.0) * 100.0
    }
}

/// Fault-resilience measurement (`--faults`): the incoherent half of the
/// suite timed three ways — clean, under the canned recoverable fault
/// plan (`FaultSpec::Recoverable`), and under the corrupting-but-
/// recoverable plan (`FaultSpec::CorruptingRecover`, which flips dirty
/// lines and survives them via epoch-checkpoint rollback). The arms are
/// interleaved [`CHECK_REPS`] times and the minimum wall per arm is
/// kept, so process warm-up cannot be charged to whichever arm runs
/// first. Both faulted sweeps must still produce correct results.
#[derive(Debug, Clone)]
pub struct FaultOverhead {
    /// Seed of the canned plan (`FaultPlan::from_seed`).
    pub seed: u64,
    /// Minimum wall time of the sweep with no faults installed.
    pub wall_clean: Duration,
    /// Minimum wall time of the same sweep under the recoverable plan.
    pub wall_faulted: Duration,
    /// Minimum wall time under the corrupting + rollback-recovery plan.
    pub wall_recovered: Duration,
    /// True when every faulted run still matched its reference.
    pub correct: bool,
    /// True when every corrupting-recover run still matched its
    /// reference (rollback replay repaired each corruption).
    pub recover_correct: bool,
    /// Injected faults and recovery work, summed over the faulted sweep.
    pub stats: ResilienceStats,
    /// The corrupting-recover sweep's ledger: rollbacks, rollback
    /// cycles, and checkpoint words captured, on top of the usual
    /// retry/flip counters.
    pub recover_stats: ResilienceStats,
}

impl FaultOverhead {
    /// Host-time overhead of running under faults, in percent.
    pub fn overhead_pct(&self) -> f64 {
        let clean = self.wall_clean.as_secs_f64();
        if clean == 0.0 {
            return 0.0;
        }
        (self.wall_faulted.as_secs_f64() / clean - 1.0) * 100.0
    }

    /// Host-time overhead of checkpointed rollback recovery, in percent.
    pub fn recover_overhead_pct(&self) -> f64 {
        let clean = self.wall_clean.as_secs_f64();
        if clean == 0.0 {
            return 0.0;
        }
        (self.wall_recovered.as_secs_f64() / clean - 1.0) * 100.0
    }
}

/// One static verify + optimize measurement (`--lint`): an app's record
/// under one configuration, verified and minimized by `hic-lint` on the
/// host clock, then simulated with the original and the minimized plans
/// to measure the traffic delta.
#[derive(Debug, Clone)]
pub struct LintRun {
    pub app: String,
    pub config: String,
    /// Host time to statically verify the record.
    pub verify: Duration,
    /// Host time to compute + re-verify the minimized plans.
    pub optimize: Duration,
    /// The record verified finding-free (it must).
    pub clean: bool,
    pub ops_before: usize,
    pub ops_after: usize,
    pub pruned: usize,
    pub downgraded: usize,
    /// WB+INV flits of the simulated run, original / minimized plans.
    pub flits_before: u64,
    pub flits_after: u64,
    /// Executed WB/INV instructions, original / minimized plans.
    pub wbinv_before: u64,
    pub wbinv_after: u64,
    /// The minimized run still matched the host reference.
    pub correct: bool,
}

impl LintRun {
    /// WB+INV flit reduction, in percent of the original.
    pub fn flit_savings_pct(&self) -> f64 {
        if self.flits_before == 0 {
            return 0.0;
        }
        (1.0 - self.flits_after as f64 / self.flits_before as f64) * 100.0
    }
}

/// One cell of the protocol-comparison matrix (`--geometry`): an
/// application on one swept topology under one protocol. The sweep pits
/// the incoherent baseline against both hardware-coherent backends
/// (invalidation-based MESI and update-based Dragon) on machine shapes
/// the paper never built, so the comparison the paper makes on its two
/// fixed geometries is tracked across the whole grid PR over PR.
#[derive(Debug, Clone)]
pub struct GeometryRun {
    /// `"BxCxK"`: blocks x cores/block x L2 banks/block.
    pub shape: String,
    pub blocks: usize,
    pub cores_per_block: usize,
    pub l2_banks: usize,
    /// `"Base"` (incoherent), `"HCC"` (MESI), or `"Dragon"`.
    pub scheme: String,
    pub app: String,
    pub correct: bool,
    pub cycles: u64,
    /// Per-category flit totals of the simulated run.
    pub traffic: TrafficLedger,
    pub wall: Duration,
}

/// The swept geometry grid: 2x2x2 through 8x8x4 (blocks x cores/block x
/// L2 banks/block), hierarchical shapes only, with the paper's 4x8 in
/// the middle as the anchor point. Banks are capped at min(4, cores):
/// L2 banks are colocated with the block's core tiles.
pub fn geometry_grid() -> Vec<Topology> {
    [(2, 2), (2, 4), (4, 4), (4, 8), (8, 8)]
        .iter()
        .map(|&(blocks, cores)| {
            TopologyBuilder::new(blocks, cores)
                .l2_banks_per_block(cores.min(4))
                .validate()
                .expect("geometry grid shapes are valid")
        })
        .collect()
}

/// Run the inter-block suite across [`geometry_grid`] under the three
/// protocol families — incoherent `Base`, invalidation-based `HCC`
/// (MESI), and update-based `Dragon` — timing each run and capturing
/// cycles plus the per-category traffic ledger.
pub fn run_geometry_matrix(scale: Scale) -> Vec<GeometryRun> {
    let mut out = Vec::new();
    for topo in geometry_grid() {
        let shape = format!("{}x{}", topo.shape_label(), topo.l2_banks_per_block());
        for scheme in [InterConfig::Base, InterConfig::Hcc, InterConfig::Dragon] {
            let config = Config::Inter(scheme)
                .with_topology(topo)
                .expect("grid shapes are hierarchical");
            for app in inter_apps(scale) {
                let start = Instant::now();
                let r = app.run(config);
                out.push(GeometryRun {
                    shape: shape.clone(),
                    blocks: topo.blocks(),
                    cores_per_block: topo.cores_per_block(),
                    l2_banks: topo.l2_banks_per_block(),
                    scheme: scheme.name().to_string(),
                    app: app.name().to_string(),
                    correct: r.correct,
                    cycles: r.stats.total_cycles,
                    traffic: r.stats.traffic,
                    wall: start.elapsed(),
                });
            }
        }
    }
    out
}

/// Engine A/B (`--parallel`): the app suite under the `Linear` oracle
/// and under the default engine (local retire where the machine admits
/// it), swept alternately [`CHECK_REPS`] times each with the minimum
/// wall kept. Observational equality is asserted on every repetition.
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Host cores available to the sweep (`available_parallelism`).
    pub host_cores: usize,
    /// Minimum wall time of the sequential (linear-scheduler) sweep.
    pub oracle_wall: Duration,
    /// Apps still produced correct simulated results under the oracle.
    pub oracle_correct: bool,
    /// Minimum wall time of the default-engine sweep.
    pub local_wall: Duration,
    /// Every default-engine run reproduced the oracle bit-for-bit:
    /// simulated cycles, all six traffic categories, and in-simulation
    /// correctness.
    pub identical: bool,
}

impl ParallelReport {
    /// Suite-throughput speedup of the default engine over the oracle.
    pub fn speedup(&self) -> f64 {
        let w = self.local_wall.as_secs_f64();
        if w == 0.0 {
            return 0.0;
        }
        self.oracle_wall.as_secs_f64() / w
    }

    /// The sweep proves the engines interchangeable: the oracle was
    /// correct and the default engine was bit-identical to it.
    pub fn all_correct(&self) -> bool {
        self.oracle_correct && self.identical
    }
}

/// Aggregate of a whole suite sweep.
#[derive(Debug, Clone, Default)]
pub struct HostReport {
    pub scale: &'static str,
    pub runs: Vec<HostRun>,
    /// Micro-benchmark timings riding along in the same JSON.
    pub timings: Vec<Timing>,
    /// Sanitizer overhead numbers, when measured (`--check`).
    pub check: Option<CheckOverhead>,
    /// Fault-injection overhead numbers, when measured (`--faults`).
    pub faults: Option<FaultOverhead>,
    /// Static verifier/optimizer numbers, when measured (`--lint`).
    pub lint: Vec<LintRun>,
    /// Protocol-comparison matrix over swept topologies (`--geometry`).
    pub geometry: Vec<GeometryRun>,
    /// Default-engine vs oracle A/B, when measured (`--parallel`).
    pub parallel: Option<ParallelReport>,
    /// Host wall-clock of the whole sweep (sum of per-run walls plus
    /// setup; measured around the sweep, not summed).
    pub wall: Duration,
}

impl HostReport {
    pub fn total_ops(&self) -> u64 {
        self.runs.iter().map(|r| r.engine.ops_executed).sum()
    }

    pub fn total_round_trips(&self) -> u64 {
        self.runs.iter().map(|r| r.engine.round_trips).sum()
    }

    pub fn total_messages(&self) -> u64 {
        self.runs.iter().map(|r| r.engine.messages).sum()
    }

    pub fn total_handoffs(&self) -> u64 {
        self.runs.iter().map(|r| r.engine.handoffs).sum()
    }

    pub fn sim_ops_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s == 0.0 {
            return 0.0;
        }
        self.total_ops() as f64 / s
    }

    pub fn all_correct(&self) -> bool {
        self.runs.iter().all(|r| r.correct)
            && self.geometry.iter().all(|g| g.correct)
            && self.parallel.as_ref().is_none_or(|p| p.all_correct())
    }
}

/// Run `reqs` one at a time on the calling thread, handing each request,
/// its run and the run's host wall time to `each`. Returns the wall time
/// of the whole sweep.
fn sweep(
    scale: Scale,
    reqs: impl IntoIterator<Item = RunRequest>,
    mut each: impl FnMut(&RunRequest, AppRun, Duration),
) -> Duration {
    let t0 = Instant::now();
    let apps = all_apps(scale);
    for req in reqs {
        let app = apps
            .iter()
            .find(|a| a.name() == req.app)
            .expect("sweep cells name suite apps");
        let start = Instant::now();
        let run = app.run_req(&req);
        each(&req, run, start.elapsed());
    }
    t0.elapsed()
}

/// The incoherent cells of the sweep — the only ones the sanitizer and
/// the fault plans attach to.
fn incoherent_requests(scale: Scale) -> impl Iterator<Item = RunRequest> {
    sweep_requests(scale)
        .into_iter()
        .filter(|r| !r.config.is_coherent())
}

/// Run the full suite (all apps, all configs) at `scale` with the `HIC_*`
/// knobs applied, timing each run.
pub fn run_suite(scale: Scale) -> HostReport {
    let mut runs = Vec::new();
    let wall = sweep(scale, sweep_from_env(scale), |req, r, wall| {
        runs.push(HostRun {
            app: req.app.clone(),
            config: req.config.name().to_string(),
            family: family(req.config.scheme()),
            correct: r.correct,
            cycles: r.stats.total_cycles,
            wall,
            engine: r.stats.engine,
        })
    });
    HostReport {
        scale: scale.name(),
        runs,
        wall,
        ..HostReport::default()
    }
}

/// Repetitions of each timed sweep in the A/B overhead measurements.
/// The minimum over interleaved repetitions is reported, so one-time
/// process warm-up cannot bias whichever mode happens to run first.
pub const CHECK_REPS: usize = 3;

/// Observable signature of one suite run: correctness verdict, simulated
/// cycles, and the six traffic categories. Two engines are
/// interchangeable iff they produce equal signatures for every run.
type RunSignature = (String, String, bool, u64, TrafficLedger);

/// Sweep the full app suite once under `engine` (`None` = the default),
/// returning (wall, signatures).
fn signature_sweep(scale: Scale, engine: Option<Scheduler>) -> (Duration, Vec<RunSignature>) {
    let reqs = sweep_requests(scale).into_iter().map(|mut r| {
        r.engine = engine;
        r
    });
    let mut sigs = Vec::new();
    let wall = sweep(scale, reqs, |req, r, _| {
        sigs.push((
            req.app.clone(),
            req.config.name().to_string(),
            r.correct,
            r.stats.total_cycles,
            r.stats.traffic,
        ))
    });
    (wall, sigs)
}

/// Sweep the suite under the sequential linear oracle and under the
/// default engine, alternating oracle-first [`CHECK_REPS`] times so
/// warm-up lands on the oracle (biasing *against* the default engine's
/// speedup, never for it), asserting observational equality on every
/// repetition and keeping each engine's minimum wall.
pub fn run_parallel_suite(scale: Scale) -> ParallelReport {
    let mut report = ParallelReport {
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        oracle_wall: Duration::MAX,
        oracle_correct: true,
        local_wall: Duration::MAX,
        identical: true,
    };
    for _ in 0..CHECK_REPS {
        let (wall, oracle) = signature_sweep(scale, Some(Scheduler::Linear));
        report.oracle_wall = report.oracle_wall.min(wall);
        report.oracle_correct &= oracle.iter().all(|s| s.2);
        let (wall, local) = signature_sweep(scale, None);
        report.local_wall = report.local_wall.min(wall);
        report.identical &= local == oracle;
    }
    report
}

/// Time the incoherent half of the suite three ways — clean, under the
/// canned recoverable fault plan (`FaultSpec::Recoverable`), and under
/// the corrupting + rollback-recovery plan
/// (`FaultSpec::CorruptingRecover`) — with the arms interleaved
/// [`CHECK_REPS`] times and the minimum wall per arm kept (the same
/// warm-up discipline as [`run_check_overhead`]). Both faulted sweeps
/// must stay correct: recoverable faults are absorbed by retries, and
/// corrupted dirty lines are repaired by epoch-checkpoint rollback.
pub fn run_fault_suite(scale: Scale, seed: u64) -> FaultOverhead {
    fn faulted(scale: Scale, fault: Option<FaultSpec>) -> (Duration, bool, ResilienceStats) {
        let reqs = incoherent_requests(scale).map(|mut r| {
            r.fault = fault;
            r
        });
        let mut correct = true;
        let mut stats = ResilienceStats::default();
        let wall = sweep(scale, reqs, |_, r, _| {
            correct &= r.correct;
            stats += r.stats.resilience;
        });
        (wall, correct, stats)
    }

    let mut wall_clean = Duration::MAX;
    let mut wall_faulted = Duration::MAX;
    let mut wall_recovered = Duration::MAX;
    let mut correct = true;
    let mut recover_correct = true;
    let mut stats = ResilienceStats::default();
    let mut recover_stats = ResilienceStats::default();
    for _ in 0..CHECK_REPS {
        let (clean, _, _) = faulted(scale, None);
        wall_clean = wall_clean.min(clean);
        let (wall, c, s) = faulted(scale, Some(FaultSpec::Recoverable { seed }));
        wall_faulted = wall_faulted.min(wall);
        correct = c;
        stats = s;
        let (recovered, rc, rs) = faulted(scale, Some(FaultSpec::CorruptingRecover { seed }));
        wall_recovered = wall_recovered.min(recovered);
        recover_correct = rc;
        recover_stats = rs;
    }
    FaultOverhead {
        seed,
        wall_clean,
        wall_faulted,
        wall_recovered,
        correct,
        recover_correct,
        stats,
        recover_stats,
    }
}

/// Statically verify + optimize every recorded app under the planned
/// inter-block configurations, then simulate each with the original and
/// the minimized plans to measure what `hic-lint` saves (`--lint`).
/// Every record must verify clean and every minimized run must still
/// match the host reference — `clean` / `correct` carry the verdicts.
pub fn run_lint_suite(scale: Scale) -> Vec<LintRun> {
    use hic_apps::App;
    let mut apps: Vec<Box<dyn App>> = inter_apps(scale);
    apps.push(Box::new(hic_apps::inter::ep::EpHier::new(scale)));
    let wbinv = |s: &hic_machine::RunStats| {
        s.counters.local_wbs
            + s.counters.global_wbs
            + s.counters.local_invs
            + s.counters.global_invs
    };
    let mut out = Vec::new();
    for app in &apps {
        for cfg in [InterConfig::Addr, InterConfig::AddrL] {
            let config = Config::Inter(cfg);
            let Some(rec) = app.record(config) else {
                continue;
            };
            let t0 = Instant::now();
            let report = hic_lint::lint(&rec);
            let verify = t0.elapsed();
            let t1 = Instant::now();
            let opt = hic_lint::optimize(&rec);
            let optimize = t1.elapsed();
            let base = app.run_with(config, None);
            let mini = app.run_with(config, Some(opt.overrides));
            out.push(LintRun {
                app: app.name().to_string(),
                config: cfg.name().to_string(),
                verify,
                optimize,
                clean: report.is_clean() && opt.reverify.is_clean() && !opt.stats.fallback,
                ops_before: opt.stats.ops_before,
                ops_after: opt.stats.ops_after,
                pruned: opt.stats.pruned,
                downgraded: opt.stats.downgraded,
                flits_before: base.stats.traffic.writeback + base.stats.traffic.invalidation,
                flits_after: mini.stats.traffic.writeback + mini.stats.traffic.invalidation,
                wbinv_before: wbinv(&base.stats),
                wbinv_after: wbinv(&mini.stats),
                correct: base.correct && mini.correct,
            });
        }
    }
    out
}

/// Time the incoherent half of the suite (the only configurations the
/// sanitizer can attach to) with checking off and in Report mode
/// (explicit requests — the sweep no longer mutates `HIC_CHECK`), and
/// report the host-time overhead. The checked sweep must stay clean:
/// any finding on the unmodified suite is a sanitizer bug.
///
/// Each mode is swept [`CHECK_REPS`] times, interleaved off/report, and
/// the *minimum* wall per mode is kept. A single off-then-report pass
/// measured the process's one-time warm-up (page faults, allocator
/// growth) inside the off sweep and reported a nonsensical negative
/// overhead (`overhead_pct: -39.7` in earlier reports).
pub fn run_check_overhead(scale: Scale) -> CheckOverhead {
    fn checked(scale: Scale, check: CheckMode) -> (Duration, u64, bool) {
        let reqs = incoherent_requests(scale).map(|mut r| {
            r.check = check;
            r
        });
        let mut checks = 0;
        let mut clean = true;
        let wall = sweep(scale, reqs, |_, r, _| {
            checks += r.diagnostics.checks;
            clean &= r.diagnostics.is_clean();
        });
        (wall, checks, clean)
    }

    let mut wall_off = Duration::MAX;
    let mut wall_report = Duration::MAX;
    let mut checks = 0;
    let mut clean = true;
    for _ in 0..CHECK_REPS {
        let (off, _, _) = checked(scale, CheckMode::Off);
        wall_off = wall_off.min(off);
        let (report, c, cl) = checked(scale, CheckMode::Report);
        wall_report = wall_report.min(report);
        checks = c;
        clean = cl;
    }
    CheckOverhead {
        wall_off,
        wall_report,
        checks,
        clean,
    }
}

// ----------------------------------------------------------------------
// Hand-rolled JSON writer
// ----------------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn engine_json(e: &EngineStats) -> String {
    format!(
        "{{\"ops_executed\":{},\"messages\":{},\"batches\":{},\
         \"round_trips\":{},\"wakeups\":{},\"peak_parked\":{},\
         \"shard_local_ops\":{},\"cross_shard_msgs\":{},\
         \"lookahead_stalls\":{},\"lock_waits\":{},\"handoffs\":{}}}",
        e.ops_executed,
        e.messages,
        e.batches,
        e.round_trips,
        e.wakeups,
        e.peak_parked,
        e.shard_local_ops,
        e.cross_shard_msgs,
        e.lookahead_stalls,
        e.lock_waits,
        e.handoffs
    )
}

/// Render the report (plus the baseline-comparison header) as JSON.
pub fn to_json(report: &HostReport, baseline_wall_s: Option<f64>) -> String {
    let wall_s = report.wall.as_secs_f64();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"scale\": \"{}\",\n", report.scale));
    out.push_str(&format!("  \"wall_s\": {},\n", f(wall_s)));
    match baseline_wall_s {
        Some(b) => {
            out.push_str(&format!("  \"baseline_wall_s\": {},\n", f(b)));
            let speedup = if wall_s > 0.0 { b / wall_s } else { 0.0 };
            out.push_str(&format!("  \"speedup_vs_baseline\": {},\n", f(speedup)));
        }
        None => {
            out.push_str("  \"baseline_wall_s\": null,\n");
            out.push_str("  \"speedup_vs_baseline\": null,\n");
        }
    }
    out.push_str(&format!("  \"all_correct\": {},\n", report.all_correct()));
    out.push_str(&format!("  \"sim_ops\": {},\n", report.total_ops()));
    out.push_str(&format!(
        "  \"sim_ops_per_sec\": {},\n",
        f(report.sim_ops_per_sec())
    ));
    out.push_str(&format!(
        "  \"engine\": {{\"messages\":{},\"round_trips\":{},\"handoffs\":{}}},\n",
        report.total_messages(),
        report.total_round_trips(),
        report.total_handoffs()
    ));
    match &report.check {
        Some(c) => out.push_str(&format!(
            "  \"check\": {{\"wall_s_off\":{},\"wall_s_report\":{},\
             \"overhead_pct\":{},\"checks\":{},\"clean\":{}}},\n",
            f(c.wall_off.as_secs_f64()),
            f(c.wall_report.as_secs_f64()),
            f(c.overhead_pct()),
            c.checks,
            c.clean
        )),
        None => out.push_str("  \"check\": null,\n"),
    }
    match &report.faults {
        Some(fo) => out.push_str(&format!(
            "  \"faults\": {{\"seed\":{},\"wall_s_clean\":{},\"wall_s_faulted\":{},\
             \"wall_s_recovered\":{},\"overhead_pct\":{},\"recover_overhead_pct\":{},\
             \"correct\":{},\"recover_correct\":{},\"retries\":{},\"retry_flits\":{},\
             \"retry_cycles\":{},\"bit_flips\":{},\"flips_recovered\":{},\
             \"recovery_flits\":{},\"delayed_acks\":{},\"ack_delay_cycles\":{},\
             \"rollbacks\":{},\"rollback_cycles\":{},\"checkpoint_words\":{}}},\n",
            fo.seed,
            f(fo.wall_clean.as_secs_f64()),
            f(fo.wall_faulted.as_secs_f64()),
            f(fo.wall_recovered.as_secs_f64()),
            f(fo.overhead_pct()),
            f(fo.recover_overhead_pct()),
            fo.correct,
            fo.recover_correct,
            fo.stats.retries,
            fo.stats.retry_flits,
            fo.stats.retry_cycles,
            fo.stats.bit_flips,
            fo.stats.flips_recovered,
            fo.stats.recovery_flits,
            fo.stats.delayed_acks,
            fo.stats.ack_delay_cycles,
            fo.recover_stats.rollbacks,
            fo.recover_stats.rollback_cycles,
            fo.recover_stats.checkpoint_words,
        )),
        None => out.push_str("  \"faults\": null,\n"),
    }
    match &report.parallel {
        Some(p) => out.push_str(&format!(
            "  \"parallel\": {{\"host_cores\":{},\"oracle_wall_s\":{},\
             \"local_wall_s\":{},\"speedup\":{},\"identical\":{},\"all_correct\":{}}},\n",
            p.host_cores,
            f(p.oracle_wall.as_secs_f64()),
            f(p.local_wall.as_secs_f64()),
            f(p.speedup()),
            p.identical,
            p.all_correct()
        )),
        None => out.push_str("  \"parallel\": null,\n"),
    }
    out.push_str("  \"lint\": [\n");
    for (i, l) in report.lint.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\":\"{}\",\"config\":\"{}\",\"clean\":{},\"correct\":{},\
             \"verify_ns\":{},\"optimize_ns\":{},\
             \"ops_before\":{},\"ops_after\":{},\"pruned\":{},\"downgraded\":{},\
             \"wbinv_flits_before\":{},\"wbinv_flits_after\":{},\
             \"flit_savings_pct\":{},\
             \"wbinv_ops_before\":{},\"wbinv_ops_after\":{}}}{}\n",
            esc(&l.app),
            esc(&l.config),
            l.clean,
            l.correct,
            l.verify.as_nanos(),
            l.optimize.as_nanos(),
            l.ops_before,
            l.ops_after,
            l.pruned,
            l.downgraded,
            l.flits_before,
            l.flits_after,
            f(l.flit_savings_pct()),
            l.wbinv_before,
            l.wbinv_after,
            if i + 1 < report.lint.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"geometry\": [\n");
    for (i, g) in report.geometry.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shape\":\"{}\",\"blocks\":{},\"cores_per_block\":{},\
             \"l2_banks\":{},\"scheme\":\"{}\",\"app\":\"{}\",\
             \"correct\":{},\"cycles\":{},\
             \"traffic\":{{\"linefill\":{},\"writeback\":{},\"invalidation\":{},\
             \"memory\":{},\"l2l3\":{},\"sync\":{}}},\"wall_s\":{}}}{}\n",
            esc(&g.shape),
            g.blocks,
            g.cores_per_block,
            g.l2_banks,
            esc(&g.scheme),
            esc(&g.app),
            g.correct,
            g.cycles,
            g.traffic.linefill,
            g.traffic.writeback,
            g.traffic.invalidation,
            g.traffic.memory,
            g.traffic.l2l3,
            g.traffic.sync,
            f(g.wall.as_secs_f64()),
            if i + 1 < report.geometry.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"runs\": [\n");
    for (i, r) in report.runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"app\":\"{}\",\"config\":\"{}\",\"family\":\"{}\",\
             \"correct\":{},\"cycles\":{},\"wall_s\":{},\
             \"sim_ops_per_sec\":{},\"engine\":{}}}{}\n",
            esc(&r.app),
            esc(&r.config),
            r.family,
            r.correct,
            r.cycles,
            f(r.wall.as_secs_f64()),
            f(r.sim_ops_per_sec()),
            engine_json(&r.engine),
            if i + 1 < report.runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"bench\": [\n");
    for (i, t) in report.timings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\":\"{}\",\"iters\":{},\"total_ns\":{},\"mean_ns\":{}}}{}\n",
            esc(&t.name),
            t.iters,
            t.total.as_nanos(),
            t.mean().as_nanos(),
            if i + 1 < report.timings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> HostReport {
        HostReport {
            scale: "test",
            runs: vec![HostRun {
                app: "FFT".into(),
                config: "B+M+I".into(),
                family: "intra",
                correct: true,
                cycles: 1234,
                wall: Duration::from_millis(10),
                engine: EngineStats {
                    ops_executed: 1000,
                    messages: 100,
                    batches: 10,
                    round_trips: 50,
                    wakeups: 3,
                    peak_parked: 2,
                    ..EngineStats::default()
                },
            }],
            timings: vec![Timing {
                name: "micro".into(),
                iters: 7,
                total: Duration::from_nanos(700),
            }],
            check: Some(CheckOverhead {
                wall_off: Duration::from_millis(100),
                wall_report: Duration::from_millis(110),
                checks: 4242,
                clean: true,
            }),
            faults: Some(FaultOverhead {
                seed: 2026,
                wall_clean: Duration::from_millis(100),
                wall_faulted: Duration::from_millis(105),
                wall_recovered: Duration::from_millis(112),
                correct: true,
                recover_correct: true,
                stats: ResilienceStats {
                    retries: 12,
                    retry_flits: 108,
                    bit_flips: 5,
                    flips_recovered: 5,
                    recovery_flits: 85,
                    delayed_acks: 9,
                    ..ResilienceStats::default()
                },
                recover_stats: ResilienceStats {
                    rollbacks: 4,
                    rollback_cycles: 260,
                    checkpoint_words: 512,
                    ..ResilienceStats::default()
                },
            }),
            lint: vec![LintRun {
                app: "CG".into(),
                config: "Addr+L".into(),
                verify: Duration::from_micros(120),
                optimize: Duration::from_micros(480),
                clean: true,
                ops_before: 728,
                ops_after: 419,
                pruned: 309,
                downgraded: 21,
                flits_before: 1000,
                flits_after: 900,
                wbinv_before: 600,
                wbinv_after: 400,
                correct: true,
            }],
            parallel: Some(ParallelReport {
                host_cores: 8,
                oracle_wall: Duration::from_millis(400),
                oracle_correct: true,
                local_wall: Duration::from_millis(100),
                identical: true,
            }),
            geometry: vec![GeometryRun {
                shape: "2x4x4".into(),
                blocks: 2,
                cores_per_block: 4,
                l2_banks: 4,
                scheme: "Dragon".into(),
                app: "Jacobi".into(),
                correct: true,
                cycles: 4321,
                traffic: TrafficLedger {
                    linefill: 11,
                    writeback: 22,
                    invalidation: 33,
                    memory: 44,
                    l2l3: 55,
                    sync: 66,
                },
                wall: Duration::from_millis(2),
            }],
            wall: Duration::from_millis(10),
        }
    }

    #[test]
    fn json_contains_baseline_and_speedup() {
        let j = to_json(&sample_report(), Some(0.02));
        assert!(j.contains("\"baseline_wall_s\": 0.020"));
        assert!(j.contains("\"speedup_vs_baseline\": 2.000"));
        assert!(j.contains("\"sim_ops\": 1000"));
        assert!(j.contains("\"iters\":7"));
        assert!(j.contains("\"total_ns\":700"));
        assert!(j.contains("\"round_trips\":50"));
        assert!(j.contains("\"checks\":4242"));
        assert!(j.contains("\"overhead_pct\":10.000"));
    }

    #[test]
    fn json_without_check_sweep_is_null() {
        let mut r = sample_report();
        r.check = None;
        assert!(to_json(&r, None).contains("\"check\": null"));
    }

    #[test]
    fn json_carries_the_fault_sweep() {
        let j = to_json(&sample_report(), None);
        assert!(j.contains("\"faults\": {\"seed\":2026"));
        assert!(j.contains("\"retries\":12"));
        assert!(j.contains("\"flips_recovered\":5"));
        assert!(j.contains("\"recovery_flits\":85"));
        assert!(j.contains("\"overhead_pct\":5.000"));
        assert!(j.contains("\"wall_s_recovered\":0.112"));
        assert!(j.contains("\"recover_overhead_pct\":12.000"));
        assert!(j.contains("\"recover_correct\":true"));
        assert!(j.contains("\"rollbacks\":4"));
        assert!(j.contains("\"rollback_cycles\":260"));
        assert!(j.contains("\"checkpoint_words\":512"));
        let mut r = sample_report();
        r.faults = None;
        assert!(to_json(&r, None).contains("\"faults\": null"));
    }

    #[test]
    fn json_carries_the_lint_sweep() {
        let j = to_json(&sample_report(), None);
        assert!(j.contains("\"ops_before\":728"));
        assert!(j.contains("\"pruned\":309"));
        assert!(j.contains("\"downgraded\":21"));
        assert!(j.contains("\"flit_savings_pct\":10.000"));
        assert!(j.contains("\"wbinv_ops_after\":400"));
    }

    #[test]
    fn json_carries_the_parallel_sweep() {
        let j = to_json(&sample_report(), None);
        assert!(j.contains("\"parallel\": {\"host_cores\":8"));
        assert!(j.contains(
            "\"oracle_wall_s\":0.400,\"local_wall_s\":0.100,\"speedup\":4.000,\
             \"identical\":true,\"all_correct\":true"
        ));
        let mut r = sample_report();
        r.parallel = None;
        assert!(to_json(&r, None).contains("\"parallel\": null"));
    }

    #[test]
    fn nonidentical_parallel_curve_fails_the_report() {
        let mut r = sample_report();
        assert!(r.all_correct());
        r.parallel.as_mut().unwrap().identical = false;
        assert!(!r.all_correct());
    }

    #[test]
    fn engine_json_carries_the_shard_counters() {
        let e = EngineStats {
            ops_executed: 10,
            shard_local_ops: 7,
            cross_shard_msgs: 3,
            lookahead_stalls: 2,
            lock_waits: 1,
            handoffs: 5,
            ..EngineStats::default()
        };
        let j = engine_json(&e);
        assert!(j.contains("\"handoffs\":5"));
        assert!(j.contains("\"shard_local_ops\":7"));
        assert!(j.contains("\"cross_shard_msgs\":3"));
        assert!(j.contains("\"lookahead_stalls\":2"));
        assert!(j.contains("\"lock_waits\":1"));
    }

    #[test]
    fn json_carries_the_geometry_matrix() {
        let j = to_json(&sample_report(), None);
        assert!(j.contains("\"shape\":\"2x4x4\""));
        assert!(j.contains("\"scheme\":\"Dragon\""));
        assert!(j.contains("\"cycles\":4321"));
        assert!(j.contains("\"invalidation\":33"));
        assert!(j.contains("\"l2l3\":55"));
    }

    #[test]
    fn incorrect_geometry_run_fails_the_report() {
        let mut r = sample_report();
        assert!(r.all_correct());
        r.geometry[0].correct = false;
        assert!(!r.all_correct());
    }

    #[test]
    fn geometry_grid_spans_2x2_to_8x8_and_anchors_the_paper_shape() {
        let grid = geometry_grid();
        let labels: Vec<_> = grid.iter().map(|t| t.shape_label()).collect();
        assert_eq!(labels, vec!["2x2", "2x4", "4x4", "4x8", "8x8"]);
        assert!(grid.iter().all(|t| t.is_hierarchical()));
        assert!(grid.iter().all(|t| t.l2_banks_per_block() <= 4));
    }

    #[test]
    fn flit_savings_pct_handles_zero_traffic() {
        let mut l = sample_report().lint[0].clone();
        l.flits_before = 0;
        assert_eq!(l.flit_savings_pct(), 0.0);
    }

    #[test]
    fn json_without_baseline_is_null() {
        let j = to_json(&sample_report(), None);
        assert!(j.contains("\"baseline_wall_s\": null"));
    }

    #[test]
    fn ops_per_sec_math() {
        let r = sample_report();
        assert!((r.sim_ops_per_sec() - 100_000.0).abs() < 1.0);
        assert!((r.runs[0].sim_ops_per_sec() - 100_000.0).abs() < 1.0);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
