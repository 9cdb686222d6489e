//! Property tests for the execution engines. Every engine is a pure
//! host-side optimization of the `Scheduler::Linear` oracle (an O(n)
//! scan over `(local time, core id)`): for any program, the default
//! local-retire engine and its sequential heap-picker fallback must
//! produce bit-identical simulated results — total cycles, stall
//! ledgers, traffic, op counts, and readable memory.
//!
//! The generator emits deadlock-free programs by construction: every
//! thread runs the same number of rounds, every round ends with a full
//! barrier, and every lock acquire is bracketed with its release.
//!
//! Randomized with the deterministic in-repo `SplitMix64` (fixed seeds).

use hic_machine::RunStats;
use hic_runtime::{
    CheckMode, Config, FaultSpec, InterConfig, IntraConfig, ProgramBuilder, RunOutcome, RunRequest,
    Scale, Scheduler, Transport,
};
use hic_sim::{EngineStats, SplitMix64, TopologyBuilder};
const THREADS: usize = 4;
const WORDS: u64 = 64;

#[derive(Debug, Clone)]
enum Action {
    Store {
        idx: u64,
        val: u32,
    },
    Load {
        idx: u64,
    },
    Compute {
        cycles: u64,
    },
    /// Lock-protected read-modify-write of a shared counter.
    Critical {
        bumps: u32,
    },
}

#[derive(Debug, Clone)]
struct Script {
    /// `rounds[r][t]` = actions of thread `t` in round `r`.
    rounds: Vec<Vec<Vec<Action>>>,
}

fn gen_action(rng: &mut SplitMix64) -> Action {
    match rng.below(5) {
        0 | 1 => Action::Store {
            idx: rng.below(WORDS),
            val: rng.next_u32(),
        },
        2 => Action::Load {
            idx: rng.below(WORDS),
        },
        3 => Action::Compute {
            cycles: 1 + rng.below(40),
        },
        _ => Action::Critical {
            bumps: 1 + rng.next_u32() % 3,
        },
    }
}

fn gen_script(rng: &mut SplitMix64) -> Script {
    let rounds = (0..1 + rng.below(3))
        .map(|_| {
            (0..THREADS)
                .map(|_| (0..rng.below(9)).map(|_| gen_action(rng)).collect())
                .collect()
        })
        .collect();
    Script { rounds }
}

/// Run `script` on `nthreads` threads of `p`'s machine. Thread `t`
/// replays column `t % THREADS` shifted by `t / THREADS` words, so every
/// core does work on any geometry and the first `THREADS` threads run
/// the script as generated. Returns the outcome and the final
/// readable contents of the data array followed by the shared counter.
fn run_script(mut p: ProgramBuilder, nthreads: usize, script: &Script) -> (RunOutcome, Vec<u32>) {
    let data = p.alloc(WORDS);
    let counter = p.alloc(1);
    let l = p.lock_occ(false);
    let bar = p.barrier_of(nthreads);
    let rounds = script.rounds.clone();
    let out = p.run(nthreads, move |ctx| {
        let word = |idx: u64| (idx + (ctx.tid() / THREADS) as u64) % WORDS;
        for round in &rounds {
            for action in &round[ctx.tid() % THREADS] {
                match *action {
                    Action::Store { idx, val } => ctx.write(data, word(idx), val),
                    Action::Load { idx } => {
                        ctx.read(data, word(idx));
                    }
                    Action::Compute { cycles } => ctx.compute(cycles),
                    Action::Critical { bumps } => {
                        ctx.lock(l);
                        let v = ctx.read(counter, 0);
                        ctx.write(counter, 0, v + bumps);
                        ctx.unlock(l);
                    }
                }
            }
            ctx.barrier(bar);
        }
    });
    assert!(
        out.result().is_ok(),
        "script run failed: {:?}",
        out.result()
    );
    let mut mem = out.peek_all(data);
    mem.push(out.peek(counter, 0));
    (out, mem)
}

fn run_with(
    cfg: IntraConfig,
    scheduler: Scheduler,
    transport: Transport,
    script: &Script,
) -> RunStats {
    let mut p = ProgramBuilder::new(Config::Intra(cfg));
    p.scheduler(scheduler);
    p.transport(transport);
    run_script(p, THREADS, script).0.stats().clone()
}

/// Run `script` exactly as `req` describes (`apply_request` disables
/// the `HIC_*` environment fallback), after `setup` adjusts the builder.
fn run_req(req: &RunRequest, script: &Script, setup: impl FnOnce(&mut ProgramBuilder)) -> RunStats {
    let mut p = ProgramBuilder::new(req.config());
    p.apply_request(req);
    setup(&mut p);
    run_script(p, THREADS, script).0.stats().clone()
}

/// The local-retire engine's host-side counters (local op counts,
/// global-domain messages, lookahead stalls, lock waits) are
/// legitimately nonzero only when local retire runs, and hand-offs
/// depend on the host's thread interleaving under every engine; every
/// *simulated* engine quantity must still match the oracle's ledger
/// exactly. Zero the host-only fields so full-struct equality compares
/// the rest.
fn simulated_engine_view(e: &EngineStats) -> EngineStats {
    EngineStats {
        shard_local_ops: 0,
        cross_shard_msgs: 0,
        lookahead_stalls: 0,
        lock_waits: 0,
        handoffs: 0,
        ..e.clone()
    }
}

/// Assert that two runs are observationally identical: simulated time,
/// stall ledgers, traffic categories, and the simulated engine ledger.
fn assert_same_sim(tag: &str, got: &RunStats, oracle: &RunStats) {
    assert_eq!(
        got.total_cycles, oracle.total_cycles,
        "{tag}: engine changed simulated time"
    );
    assert_eq!(
        got.ledgers, oracle.ledgers,
        "{tag}: engine changed stall ledgers"
    );
    assert_eq!(got.traffic, oracle.traffic, "{tag}: engine changed traffic");
    assert_eq!(
        simulated_engine_view(&got.engine),
        simulated_engine_view(&oracle.engine),
        "{tag}: engine changed the simulated op ledger"
    );
}

/// The sequential heap picker (the local-retire engine's fallback,
/// forced here by a trace ring) and the linear scan agree on every
/// simulated quantity — and on the whole deterministic engine ledger,
/// since the op stream itself must be identical — for every intra
/// config, under both transports.
#[test]
fn schedulers_are_observationally_identical() {
    let mut rng = SplitMix64::new(0x5C4D);
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            for transport in [Transport::Sync, Transport::Batched { cap: 64 }] {
                let linear = run_with(cfg, Scheduler::Linear, transport, &script);
                let mut p = ProgramBuilder::new(Config::Intra(cfg));
                p.scheduler(Scheduler::Local);
                p.transport(transport);
                p.enable_trace(16);
                let heap = run_script(p, THREADS, &script).0.stats().clone();
                let tag = format!("case {case}, {} {transport:?}", cfg.name());
                assert_eq!(heap.engine.shard_local_ops, 0, "{tag}: heap fallback");
                assert_same_sim(&tag, &heap, &linear);
            }
        }
    }
}

/// The local-retire engine (one slot per core) is a pure host-side
/// optimization too: for random deadlock-free programs it must
/// reproduce the linear scheduler's results bit-for-bit — simulated
/// cycles, every stall ledger, every traffic category, and the
/// simulated op ledger — for every intra config, under both transports.
#[test]
fn sharded_engine_is_observationally_identical() {
    let mut rng = SplitMix64::new(0x5AAD);
    for case in 0..6 {
        let script = gen_script(&mut rng);
        for cfg in IntraConfig::ALL {
            for transport in [Transport::Sync, Transport::Batched { cap: 64 }] {
                let linear = run_with(cfg, Scheduler::Linear, transport, &script);
                let local = run_with(cfg, Scheduler::Local, transport, &script);
                let tag = format!("case {case}, {} {transport:?}", cfg.name());
                assert_same_sim(&tag, &local, &linear);
            }
        }
    }
}

/// Run a script on every core of an arbitrary topology/config pair.
fn run_geom(config: Config, scheduler: Scheduler, script: &Script) -> RunStats {
    let mut p = ProgramBuilder::new(config);
    p.scheduler(scheduler);
    let nthreads = p.num_threads();
    run_script(p, nthreads, script).0.stats().clone()
}

/// The local-retire engine is geometry-generic: a hierarchical 8x8x4
/// machine (8 blocks x 8 cores x 4 L2 banks — 64 cores, a non-paper
/// shape) produces bit-identical results with one slot per core.
#[test]
fn sharded_engine_identical_on_8x8x4_inter_geometry() {
    use hic_runtime::InterConfig;
    let topo = TopologyBuilder::new(8, 8)
        .l2_banks_per_block(4)
        .validate()
        .expect("valid shape");
    let mut rng = SplitMix64::new(0x5AAF);
    let script = gen_script(&mut rng);
    let config = Config::Inter(InterConfig::Addr)
        .with_topology(topo)
        .unwrap();
    let linear = run_geom(config, Scheduler::Linear, &script);
    let local = run_geom(config, Scheduler::Local, &script);
    assert!(local.engine.shard_local_ops > 0, "local retire engaged");
    assert_same_sim("8x8 inter", &local, &linear);
}

/// Engine selection is pinned, not just equivalence: a default
/// `RunRequest` takes local retire on every incoherent intra and inter
/// config, and the sequential fallback on coherent backends (MESI,
/// Dragon), under the sanitizer, under a fault plan, and with a trace
/// ring — whose observations depend on the global interleaving of
/// *every* op. The counters are deterministic, so a silent return to
/// the slow path fails here. Every case matches the linear oracle.
#[test]
fn sharded_engine_falls_back_under_faults_and_checker() {
    let mut rng = SplitMix64::new(0x5AB0);
    let script = gen_script(&mut rng);
    let linear = |req: &RunRequest| RunRequest {
        engine: Some(Scheduler::Linear),
        ..req.clone()
    };

    let configs = IntraConfig::ALL
        .into_iter()
        .chain([IntraConfig::Dragon])
        .map(Config::Intra)
        .chain(
            InterConfig::ALL
                .into_iter()
                .chain([InterConfig::Dragon])
                .map(Config::Inter),
        );
    for config in configs {
        let req = RunRequest::new("script", config, Scale::Test);
        let local = run_req(&req, &script, |_| {});
        let tag = format!("default engine on {config:?}");
        assert_eq!(
            local.engine.shard_local_ops > 0,
            !config.is_coherent(),
            "{tag}: wrong engine selected"
        );
        assert_same_sim(&tag, &local, &run_req(&linear(&req), &script, |_| {}));
    }

    let base = RunRequest::new("script", Config::Intra(IntraConfig::BMI), Scale::Test);
    let fallbacks = [
        ("check=report", CheckMode::Report, None, false),
        ("check=strict", CheckMode::Strict, None, false),
        ("fault plan", CheckMode::Off, Some(2026), false),
        ("trace ring", CheckMode::Off, None, true),
    ];
    for (tag, check, seed, trace) in fallbacks {
        let req = RunRequest {
            check,
            fault: seed.map(|seed| FaultSpec::Recoverable { seed }),
            ..base.clone()
        };
        let setup = |p: &mut ProgramBuilder| {
            if trace {
                p.enable_trace(64);
            }
        };
        let got = run_req(&req, &script, setup);
        assert_eq!(got.engine.shard_local_ops, 0, "{tag}: must fall back");
        assert_same_sim(tag, &got, &run_req(&linear(&req), &script, setup));
    }
}

/// Hand-offs follow the host's thread interleaving, but a lone thread
/// always finds its own op globally minimal and serves it itself: every
/// engine, and the fallback, reports 0 for a single-thread run.
#[test]
fn single_thread_runs_report_no_handoffs() {
    for (cfg, scheduler) in [
        (IntraConfig::BMI, Scheduler::Local),
        (IntraConfig::BMI, Scheduler::Linear),
        (IntraConfig::Hcc, Scheduler::Local),
    ] {
        let mut p = ProgramBuilder::new(Config::Intra(cfg));
        p.scheduler(scheduler);
        let data = p.alloc(WORDS);
        let bar = p.barrier_of(1);
        let out = p.run(1, move |ctx| {
            for i in 0..WORDS {
                ctx.write(data, i, i as u32);
                assert_eq!(ctx.read(data, i), i as u32);
            }
            ctx.barrier(bar);
        });
        assert!(out.result().is_ok());
        let e = &out.stats().engine;
        assert!(e.round_trips > 0);
        assert_eq!(e.handoffs, 0, "{} {scheduler:?}", cfg.name());
    }
}

/// Readable memory is part of the observational contract too: final
/// per-word contents after the run must match the linear oracle.
#[test]
fn sharded_engine_preserves_readable_memory() {
    let mut rng = SplitMix64::new(0x5AB1);
    let script = gen_script(&mut rng);
    let mems: Vec<Vec<u32>> = [Scheduler::Linear, Scheduler::Local]
        .into_iter()
        .map(|s| {
            let mut p = ProgramBuilder::new(Config::Intra(IntraConfig::BM));
            p.scheduler(s);
            run_script(p, THREADS, &script).1
        })
        .collect();
    assert_eq!(
        mems[1], mems[0],
        "local-retire engine changed readable memory"
    );
}
