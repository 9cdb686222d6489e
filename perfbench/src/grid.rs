//! The two grid workloads, both built from the paper's 71-cell figure
//! grid at `Scale::Small`:
//!
//! * `figure-sweep` submits all 71 default requests at once to an
//!   in-process `hic_serve::Server` with [`WORKERS`] workers (a closed
//!   batch), then resubmits the same 71 keys as the cache pass;
//! * `audit-serial` runs the 56 incoherent cells one at a time through
//!   `App::run_req` (one client, closed loop) with the sanitizer in
//!   report mode and a corrupting-but-recoverable fault plan.

use std::sync::Arc;
use std::time::Instant;

use hic_apps::{all_apps, App, AppRun, RunRequest, Scale};
use hic_runtime::{CheckMode, FaultSpec};
use hic_serve::{sweep_requests, JobOutcome, Server};

use crate::calib::Sampling;
use crate::expect;
use crate::host::Usage;
use crate::stats::{fnv64, median, ratio, Metrics};
use crate::{input_seed, measure, traced_report, Report, Tally};

/// Worker threads of the figure-sweep server.
pub const WORKERS: usize = 2;

const SCALE: Scale = Scale::Small;

/// One fingerprint row: the cell, its verdict, cycles and the six
/// traffic categories.
fn row(app: &str, scheme: &str, correct: bool, cycles: u64, traffic: [u64; 6]) -> String {
    format!("{app}|{scheme}|{correct}|{cycles}|{traffic:?}")
}

fn outcome_row(o: &JobOutcome) -> String {
    row(&o.app, &o.scheme, o.correct, o.cycles, o.traffic)
}

fn run_row(req: &RunRequest, run: &AppRun) -> String {
    row(
        &req.app,
        req.config.scheme().name(),
        run.correct,
        run.stats.total_cycles,
        expect::traffic(&run.stats.traffic),
    )
}

/// `run_row` plus every field of the run's resilience ledger.
fn audit_row(req: &RunRequest, run: &AppRun) -> String {
    let r = &run.stats.resilience;
    format!(
        "{}|{},{},{},{},{},{},{},{},{},{},{},{}",
        run_row(req, run),
        r.dropped_flits,
        r.retries,
        r.retry_flits,
        r.retry_cycles,
        r.bit_flips,
        r.flips_recovered,
        r.recovery_flits,
        r.delayed_acks,
        r.ack_delay_cycles,
        r.rollbacks,
        r.rollback_cycles,
        r.checkpoint_words
    )
}

fn hash_rows(rows: &[String]) -> u64 {
    fnv64(rows.join("\n").as_bytes())
}

// ---------------------------------------------------------------------------
// figure-sweep
// ---------------------------------------------------------------------------

/// Per-job figures of one pooled pass plus its cache pass.
struct SweepPass {
    tally: Tally,
    /// Wall of the pooled pass alone.
    pooled_s: f64,
    /// Worker-side run wall of each pooled job.
    job_ms: Vec<f64>,
    submit_us: Vec<f64>,
    attempts: Vec<f64>,
    cache_hits: u64,
}

/// Submit the grid, wait for every job, resubmit it as the cache pass,
/// and check both passes.
fn sweep_pass(reqs: &[RunRequest], server: &Server) -> SweepPass {
    let mut tally = Tally::default();
    let mut submit_us = Vec::with_capacity(reqs.len());
    let t0 = Instant::now();
    let submit_all = |submit_us: &mut Vec<f64>| -> Vec<Option<(u64, bool)>> {
        reqs.iter()
            .map(|r| {
                let t = Instant::now();
                let id = server.submit(r.clone(), 0).ok();
                submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                id
            })
            .collect()
    };
    let wait_all = |ids: Vec<Option<(u64, bool)>>| -> Vec<Option<(Arc<JobOutcome>, bool)>> {
        ids.into_iter()
            .map(|id| id.and_then(|(id, _)| server.wait(id)))
            .collect()
    };
    let pooled = wait_all(submit_all(&mut submit_us));
    let pooled_s = t0.elapsed().as_secs_f64();
    let cached = wait_all(submit_all(&mut Vec::new()));

    let (mut job_ms, mut attempts, mut rows, mut cache_rows) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut cache_hits = 0;
    for (p, c) in pooled.iter().zip(&cached) {
        match p {
            Some((o, from_cache)) => {
                tally.check(o.correct && o.error.is_none() && !from_cache);
                job_ms.push(o.wall.as_secs_f64() * 1e3);
                attempts.push(f64::from(o.attempts));
                rows.push(outcome_row(o));
            }
            None => tally.check(false),
        }
        match c {
            Some((o, from_cache)) => {
                cache_hits += u64::from(*from_cache);
                tally.check(*from_cache && o.correct && o.error.is_none());
                cache_rows.push(outcome_row(o));
            }
            None => tally.check(false),
        }
    }
    tally.check(expect::matches("figure-sweep", None, hash_rows(&rows)));
    tally.check(expect::matches(
        "figure-sweep",
        None,
        hash_rows(&cache_rows),
    ));
    SweepPass {
        tally,
        pooled_s,
        job_ms,
        submit_us,
        attempts,
        cache_hits,
    }
}

fn sweep_setup() -> (Vec<RunRequest>, Server) {
    (sweep_requests(SCALE), Server::start(WORKERS, None))
}

pub fn figure_sweep(seconds: f64) -> Report {
    measure(
        seconds,
        1,
        Sampling::Probe,
        sweep_setup,
        |(reqs, server), _| sweep_pass(reqs, server).tally,
    )
}

pub fn figure_sweep_traced() -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    let (reqs, server) = sweep_setup();
    let u0 = Usage::now();
    let t = Instant::now();
    tally.add(sweep_pass(&reqs, &server).tally);
    let untraced_s = t.elapsed().as_secs_f64();
    let unit = Usage::now().since(&u0);
    server.shutdown();

    let (reqs, server) = sweep_setup();
    let t = Instant::now();
    let pass = sweep_pass(&reqs, &server);
    let traced_s = t.elapsed().as_secs_f64();
    server.shutdown();
    tally.add(pass.tally);
    m.put_pct("serve.job_run_ms_p50", &pass.job_ms, 50, "ms")?;
    m.put_pct("serve.job_run_ms_p85", &pass.job_ms, 85, "ms")?;
    m.put(
        "serve.worker_busy_frac",
        pass.job_ms.iter().sum::<f64>() / 1e3 / (WORKERS as f64 * pass.pooled_s),
        "ratio",
    );
    m.put_pct("serve.submit_us_p50", &pass.submit_us, 50, "us")?;
    m.put(
        "serve.cache_hit_frac",
        pass.cache_hits as f64 / reqs.len() as f64,
        "ratio",
    );
    m.put(
        "serve.attempts_per_job",
        pass.attempts.iter().sum::<f64>() / pass.attempts.len().max(1) as f64,
        "count",
    );

    // A serial pass over the same cells gives each run's engine
    // counters and process counters on their own.
    let apps = all_apps(SCALE);
    let serial = run_cells(&apps, &reqs, run_row);
    tally.add(serial.tally);
    tally.check(expect::matches(
        "figure-sweep",
        None,
        hash_rows(&serial.rows),
    ));
    serial.put_runtime(&mut m);
    Ok(traced_report(tally, m, &unit, untraced_s, traced_s))
}

// ---------------------------------------------------------------------------
// Cells run one at a time through App::run_req
// ---------------------------------------------------------------------------

/// What a serial pass over cells observed.
#[derive(Default)]
struct CellPass {
    tally: Tally,
    wall_s: f64,
    run_ms: Vec<f64>,
    rows: Vec<String>,
    /// Process counters summed over the `run_req` calls.
    usage: Usage,
    ns_per_op: Vec<f64>,
    ops: u64,
    round_trips: u64,
    wakeups: u64,
    messages: u64,
    local_ops: u64,
    word_checks: u64,
    retries: u64,
    bit_flips: u64,
    rollbacks: u64,
    checkpoint_words: u64,
}

fn run_cells(
    apps: &[Box<dyn App>],
    reqs: &[RunRequest],
    row_of: fn(&RunRequest, &AppRun) -> String,
) -> CellPass {
    let mut p = CellPass::default();
    let t0 = Instant::now();
    for req in reqs {
        p.run_cell(apps, req, row_of);
    }
    p.wall_s = t0.elapsed().as_secs_f64();
    p
}

impl CellPass {
    /// Run one cell through `App::run_req` and record what it observed.
    fn run_cell(
        &mut self,
        apps: &[Box<dyn App>],
        req: &RunRequest,
        row_of: fn(&RunRequest, &AppRun) -> String,
    ) {
        let Some(app) = apps.iter().find(|a| a.name() == req.app) else {
            self.tally.check(false);
            return;
        };
        let u = Usage::now();
        let t = Instant::now();
        let run = app.run_req(req);
        let secs = t.elapsed().as_secs_f64();
        self.usage.add(&Usage::now().since(&u));
        let ok = run.correct && run.error.is_none();
        if !ok {
            eprintln!(
                "{} {}: correct={} error={:?} {}",
                req.app,
                req.config.scheme().name(),
                run.correct,
                run.error.as_ref().map(|e| e.kind()),
                run.detail
            );
        }
        self.tally.check(ok);
        self.run_ms.push(secs * 1e3);
        self.rows.push(row_of(req, &run));
        let e = &run.stats.engine;
        self.ns_per_op
            .push(ratio(secs * 1e9, e.ops_executed as f64));
        self.ops += e.ops_executed;
        self.round_trips += e.round_trips;
        self.wakeups += e.wakeups;
        self.messages += e.messages;
        self.local_ops += e.shard_local_ops;
        self.word_checks += run.diagnostics.checks;
        let r = &run.stats.resilience;
        self.retries += r.retries;
        self.bit_flips += r.bit_flips;
        self.rollbacks += r.rollbacks;
        self.checkpoint_words += r.checkpoint_words;
    }

    /// The runtime and engine layers' figures over this pass.
    fn put_runtime(&self, m: &mut Metrics) {
        m.put("runtime.user_s", self.usage.user_s, "s");
        m.put("runtime.sys_s", self.usage.sys_s, "s");
        m.put("runtime.vcsw", self.usage.vcsw, "count");
        m.put("runtime.ivcsw", self.usage.ivcsw, "count");
        m.put("runtime.ns_per_op", median(&self.ns_per_op), "ns");
        m.put("engine.ops_executed", self.ops as f64, "count");
        m.put("engine.round_trips", self.round_trips as f64, "count");
        m.put("engine.wakeups", self.wakeups as f64, "count");
        m.put("engine.messages", self.messages as f64, "count");
        m.put(
            "engine.ops_per_round_trip",
            ratio(self.ops as f64, self.round_trips as f64),
            "ratio",
        );
        m.put(
            "engine.local_retire_frac",
            ratio(self.local_ops as f64, self.ops as f64),
            "ratio",
        );
    }
}

// ---------------------------------------------------------------------------
// audit-serial
// ---------------------------------------------------------------------------

/// The 56 incoherent cells, in figure order, each audited by the
/// sanitizer under a corrupting-but-recoverable fault plan seeded from
/// the workload seed.
fn audit_requests(fault_seed: Option<u64>) -> Vec<RunRequest> {
    sweep_requests(SCALE)
        .into_iter()
        .filter(|r| !r.config.scheme().is_coherent())
        .map(|mut r| {
            if let Some(seed) = fault_seed {
                r.check = CheckMode::Report;
                r.fault = Some(FaultSpec::CorruptingRecover { seed });
            }
            r
        })
        .collect()
}

fn audit_setup(fault_seed: u64) -> (Vec<Box<dyn App>>, Vec<RunRequest>) {
    (all_apps(SCALE), audit_requests(Some(fault_seed)))
}

fn audit_unit(set: u64, apps: &[Box<dyn App>], reqs: &[RunRequest]) -> CellPass {
    let mut pass = run_cells(apps, reqs, audit_row);
    pass.tally.check(expect::matches(
        "audit-serial",
        Some(set),
        hash_rows(&pass.rows),
    ));
    pass
}

pub fn audit_serial(seed: u64, seconds: f64) -> Report {
    let (set, fault_seed) = input_seed(seed);
    measure(
        seconds,
        1,
        Sampling::Probe,
        || audit_setup(fault_seed),
        |(apps, reqs), _| audit_unit(set, apps, reqs).tally,
    )
}

pub fn audit_serial_traced(seed: u64) -> Result<Report, String> {
    let (set, fault_seed) = input_seed(seed);
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let (apps, reqs) = audit_setup(fault_seed);

    let u0 = Usage::now();
    let base = audit_unit(set, &apps, &reqs);
    let unit = Usage::now().since(&u0);
    tally.add(base.tally);
    m.put(
        "sim_mops_per_s",
        base.ops as f64 / base.wall_s / 1e6,
        "Mop/s",
    );
    m.put_pct("run_ms_p50", &base.run_ms, 50, "ms")?;
    m.put_pct("run_ms_p80", &base.run_ms, 80, "ms")?;

    // The traced unit runs interleaved, cell by cell, with the A/B
    // control arm: the same cell with the sanitizer off and no faults.
    // The order alternates (audit first on even cells, control first on
    // odd ones), so neither arm alone pays warm-up or a slow host phase.
    let control_reqs = audit_requests(None);
    let (mut traced, mut control) = (CellPass::default(), CellPass::default());
    for (i, (a, c)) in reqs.iter().zip(&control_reqs).enumerate() {
        if i % 2 == 0 {
            traced.run_cell(&apps, a, audit_row);
            control.run_cell(&apps, c, run_row);
        } else {
            control.run_cell(&apps, c, run_row);
            traced.run_cell(&apps, a, audit_row);
        }
    }
    traced.tally.check(expect::matches(
        "audit-serial",
        Some(set),
        hash_rows(&traced.rows),
    ));
    tally.add(traced.tally);
    tally.add(control.tally);
    traced.put_runtime(&mut m);
    m.put("check.word_checks", traced.word_checks as f64, "count");
    m.put("fault.retries", traced.retries as f64, "count");
    m.put("fault.bit_flips", traced.bit_flips as f64, "count");
    m.put("fault.rollbacks", traced.rollbacks as f64, "count");
    m.put(
        "fault.checkpoint_words",
        traced.checkpoint_words as f64,
        "count",
    );
    let run_s = |p: &CellPass| p.run_ms.iter().sum::<f64>() / 1e3;
    m.put("analysis.overhead_s", run_s(&traced) - run_s(&control), "s");
    Ok(traced_report(tally, m, &unit, run_s(&base), run_s(&traced)))
}
