//! `hic-serve` — the sweep server CLI.
//!
//! ```text
//! hic-serve serve --socket PATH [--workers N] [--watchdog-ms M]
//!     Run the job server on a Unix socket until a client sends
//!     {"op":"shutdown"}.
//!
//! hic-serve batch JOBS.json [--socket PATH] [--out PATH]
//!                 [--workers N] [--allow-failures]
//!     Submit every job in JOBS.json — over the socket when --socket is
//!     given, else through an in-process server — wait for all of them,
//!     and write the figure document (default BENCH_figures.json).
//!     Exits nonzero if any job computed a wrong result; with
//!     --allow-failures, jobs that failed with a *typed* error are
//!     tolerated (the sweep's poisoned job is supposed to fail).
//!
//! hic-serve sweep-jobs [--scale S] [--corrupting SEED] [--out PATH]
//!     Emit the full figure-set job list (every app x configuration) as
//!     a JOBS.json. --corrupting appends one job poisoned with a
//!     dirty-line-corrupting fault plan, which must fail with
//!     `corrupt_dirty_line` without disturbing the rest of the sweep.
//! ```
//!
//! JOBS.json format:
//! `{"scale":"test","jobs":[{"key":"hic1;...","priority":0}, ...]}` —
//! job keys are canonical [`RunRequest::cache_key`] strings.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::process::ExitCode;

use hic_apps::Scale;
use hic_runtime::{Config, FaultSpec, InterConfig, RunRequest};
use hic_serve::{figures, socket, Json, Server};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match args.first().map(|s| s.as_str()) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("sweep-jobs") => cmd_sweep_jobs(&args[1..]),
        _ => Err(
            "usage: hic-serve serve|batch|sweep-jobs ... (see --help in the module docs)"
                .to_string(),
        ),
    };
    match r {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hic-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_workers(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--workers") {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--workers needs a count, got {v:?}")),
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let path = flag_value(args, "--socket").ok_or("serve needs --socket PATH")?;
    let workers = parse_workers(args)?;
    let watchdog_ms = match flag_value(args, "--watchdog-ms") {
        Some(v) => Some(
            v.parse()
                .map_err(|_| format!("--watchdog-ms needs milliseconds, got {v:?}"))?,
        ),
        None => None,
    };
    eprintln!("hic-serve: {workers} workers on {path}");
    let server = Server::start(workers, watchdog_ms);
    socket::serve(server, std::path::Path::new(&path)).map_err(|e| format!("socket: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep_jobs(args: &[String]) -> Result<ExitCode, String> {
    let scale = match flag_value(args, "--scale") {
        Some(v) => Scale::parse(&v).ok_or(format!("unknown scale {v:?}"))?,
        None => Scale::Test,
    };
    let out = flag_value(args, "--out").unwrap_or_else(|| "jobs.json".to_string());
    let mut reqs = figures::sweep_requests(scale);
    if let Some(seed) = flag_value(args, "--corrupting") {
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("--corrupting needs a seed, got {seed:?}"))?;
        // One deliberately poisoned job: a dirty-line-corrupting fault
        // plan on an incoherent configuration. It must fail with the
        // typed `corrupt_dirty_line` error, leaving the rest untouched.
        let mut poisoned = RunRequest::new("EP", Config::Inter(InterConfig::Base), scale);
        poisoned.fault = Some(FaultSpec::Corrupting { seed });
        reqs.push(poisoned);
    }
    let jobs: Vec<Json> = reqs
        .iter()
        .map(|r| Json::obj([("key", Json::str(r.cache_key()))]))
        .collect();
    let doc = Json::obj([
        ("scale", Json::str(scale.name())),
        ("jobs", Json::Arr(jobs)),
    ]);
    std::fs::write(&out, doc.to_string() + "\n").map_err(|e| format!("write {out}: {e}"))?;
    println!("wrote {} jobs to {out}", reqs.len());
    Ok(ExitCode::SUCCESS)
}

fn cmd_batch(args: &[String]) -> Result<ExitCode, String> {
    let jobs_path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("batch needs a JOBS.json path")?;
    let out = flag_value(args, "--out").unwrap_or_else(|| "BENCH_figures.json".to_string());
    let allow_failures = args.iter().any(|a| a == "--allow-failures");

    let text = std::fs::read_to_string(jobs_path).map_err(|e| format!("read {jobs_path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{jobs_path}: {e}"))?;
    let scale_name = doc
        .get("scale")
        .and_then(Json::as_str)
        .unwrap_or("test")
        .to_string();
    let jobs = doc
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or(format!("{jobs_path}: missing \"jobs\" array"))?;
    let entries: Vec<(String, i64)> = jobs
        .iter()
        .map(|j| {
            let key = j
                .get("key")
                .and_then(Json::as_str)
                .ok_or("job without a \"key\"")?
                .to_string();
            Ok((key, j.get("priority").and_then(Json::as_i64).unwrap_or(0)))
        })
        .collect::<Result<_, String>>()?;

    let t0 = std::time::Instant::now();
    let rows = match flag_value(args, "--socket") {
        Some(path) => batch_over_socket(&path, &entries)?,
        None => {
            let jobs = entries
                .iter()
                .map(|(key, priority)| {
                    let req = RunRequest::parse_key(key).map_err(|e| format!("{e}"))?;
                    Ok((req, *priority))
                })
                .collect::<Result<Vec<_>, String>>()?;
            figures::batch_in_process(jobs, parse_workers(args)?)?
                .iter()
                .map(|(outcome, cached)| outcome.to_json(*cached))
                .collect()
        }
    };

    let doc = figures::figures_json_rows(&scale_name, rows);
    std::fs::write(&out, doc.to_string() + "\n").map_err(|e| format!("write {out}: {e}"))?;

    let n = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "batch: {} jobs, {} correct, {} failed, {} cache hits, wall {:.3}s; wrote {out}",
        n("jobs"),
        n("correct"),
        n("failed"),
        n("cache_hits"),
        t0.elapsed().as_secs_f64()
    );

    let rows = doc.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    let bad = rows
        .iter()
        .filter(|r| {
            let wrong = r.get("correct") != Some(&Json::Bool(true));
            let typed_failure = r.get("error") != Some(&Json::Null);
            wrong && !(allow_failures && typed_failure)
        })
        .count();
    if bad > 0 {
        eprintln!("{bad} jobs computed wrong results");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Drive the batch over the socket protocol: submit everything, then
/// collect results in submission order.
fn batch_over_socket(path: &str, entries: &[(String, i64)]) -> Result<Vec<Json>, String> {
    let stream = UnixStream::connect(path).map_err(|e| format!("connect {path}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| format!("{e}"))?;
    let mut reader = BufReader::new(stream);
    let mut rpc = |req: Json| -> Result<Json, String> {
        writer
            .write_all((req.to_string() + "\n").as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("recv: {e}"))?;
        let resp = Json::parse(&line).map_err(|e| format!("bad response: {e}"))?;
        if resp.get("ok") != Some(&Json::Bool(true)) {
            return Err(format!(
                "server error: {}",
                resp.get("error").and_then(Json::as_str).unwrap_or("?")
            ));
        }
        Ok(resp)
    };

    let mut ids = Vec::new();
    for (key, priority) in entries {
        let resp = rpc(Json::obj([
            ("op", Json::str("submit")),
            ("key", Json::str(&**key)),
            ("priority", Json::Num(*priority as f64)),
        ]))?;
        ids.push(
            resp.get("id")
                .and_then(Json::as_u64)
                .ok_or("submit response without an id")?,
        );
    }
    ids.iter()
        .map(|&id| {
            let resp = rpc(Json::obj([
                ("op", Json::str("result")),
                ("id", Json::uint(id)),
            ]))?;
            resp.get("result")
                .cloned()
                .ok_or_else(|| "result response without a result".to_string())
        })
        .collect()
}
