//! `backend-replay`: a seeded synthetic op stream of loads, stores and
//! WB/INV, driven by this benchmark's own single-threaded
//! `(time, core)`-ordered loop straight into `Machine::execute` — no
//! engine, no OS threads — on the 16-core intra-block machine under the
//! incoherent, MESI and Dragon backends.
//!
//! Each core runs three footprint phases (see [`PHASES`]) and then a
//! closing `WB ALL`. The op mix ([`MIX_PPM`]) is the one measured on the
//! grid's incoherent cells. Cores store only to private words and load only
//! shared words that were poked before the run and are never written, so
//! the final memory does not depend on the interleaving: after the
//! closing write-backs every written word must read the same on each
//! backend as on `Machine::reference` fed the same stream. An `INV ALL`
//! that drops a core's private lines writes their dirty words back first,
//! so it loses no store.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use hic_core::{CohInstr, Target};
use hic_machine::{Exec, Machine, Op};
use hic_mem::{Region, WordAddr};
use hic_sim::{CoreId, MachineConfig, SplitMix64};

use crate::calib::Sampling;
use crate::expect;
use crate::host::Usage;
use crate::stats::{fnv64, Metrics};
use crate::{input_seed, measure, traced_report, Report, Tally};

const CORES: usize = 16;

/// One footprint phase: each core loads from a shared region of
/// `shared_words` and stores to a private slice of `private_words`.
struct Phase {
    name: &'static str,
    shared_words: u64,
    private_words: u64,
    ops_per_core: usize,
}

/// Words are 4 bytes. `l1`: 12 KiB per core, inside the 32 KiB L1.
/// `l2`: 64 KiB per core spills the L1, while all cores' 544 KiB fit the
/// 2 MiB of L2 banks. `mem`: 16 × 256 KiB of private stores exceed the
/// L2.
const PHASES: [Phase; 3] = [
    Phase {
        name: "l1",
        shared_words: 2048,
        private_words: 1024,
        ops_per_core: 18000,
    },
    Phase {
        name: "l2",
        shared_words: 8192,
        private_words: 8192,
        ops_per_core: 9000,
    },
    Phase {
        name: "mem",
        shared_words: 65536,
        private_words: 65536,
        ops_per_core: 4500,
    },
];

/// The kinds of op in the stream. `Range` WBs and INVs cover
/// [`WB_RANGE_WORDS`] and [`INV_RANGE_WORDS`] words.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Load,
    Store,
    WbWord,
    WbRange,
    WbAll,
    InvWord,
    InvRange,
    InvAll,
}

/// The op mix in parts per million, measured over the 56 incoherent
/// grid cells at `Scale::Small` with default requests: 3,778,977 loads,
/// 1,857,275 stores, 13,221 WBs (1,024 word, 1,782 range, 10,415 `ALL`)
/// and 43,380 INVs (1,024 word, 31,654 range, 10,702 `ALL`), of 7,132,014
/// engine ops. The rest, compute and sync ops, is not replayed: compute
/// only advances a core's clock, and sync ops would park cores. See
/// rationale.md for how the mix was measured.
const MIX_PPM: [(Kind, u64); 8] = [
    (Kind::Load, 663_811),
    (Kind::Store, 326_247),
    (Kind::WbWord, 180),
    (Kind::WbRange, 313),
    (Kind::WbAll, 1_829),
    (Kind::InvWord, 180),
    (Kind::InvRange, 5_560),
    (Kind::InvAll, 1_880),
];

/// Mean words per range WB (551,800 / 1,782) and range INV
/// (116,942 / 31,654, rounded) in the same measurement.
const WB_RANGE_WORDS: u64 = 310;
const INV_RANGE_WORDS: u64 = 4;

fn pick(r: u64) -> Kind {
    let mut acc = 0;
    for (k, ppm) in MIX_PPM {
        acc += ppm;
        if r < acc {
            return k;
        }
    }
    unreachable!("MIX_PPM sums to 1,000,000")
}

#[derive(Debug, Clone, Copy)]
enum ReplayOp {
    Load(u64),
    Store(u64, u32),
    Coh(CohInstr),
}

impl ReplayOp {
    fn op(self) -> Op {
        match self {
            ReplayOp::Load(w) => Op::Load(WordAddr(w)),
            ReplayOp::Store(w, v) => Op::Store(WordAddr(w), v),
            ReplayOp::Coh(i) => Op::Coh(i),
        }
    }
}

fn range(start: u64, words: u64) -> Target {
    Target::range(Region {
        start: WordAddr(start),
        words,
    })
}

/// One op of a core whose private slice starts at `mine`, in a phase
/// whose shared region starts at `base`.
fn gen_op(rng: &mut SplitMix64, ph: &Phase, base: u64, mine: u64) -> ReplayOp {
    // The first word of an `n`-word span in the shared or private region.
    let shared = |rng: &mut SplitMix64, n: u64| base + rng.below(ph.shared_words - n + 1);
    let private = |rng: &mut SplitMix64, n: u64| mine + rng.below(ph.private_words - n + 1);
    match pick(rng.below(1_000_000)) {
        Kind::Load => ReplayOp::Load(shared(rng, 1)),
        Kind::Store => ReplayOp::Store(private(rng, 1), rng.next_u32()),
        Kind::WbWord => ReplayOp::Coh(CohInstr::wb(Target::word(WordAddr(private(rng, 1))))),
        Kind::WbRange => ReplayOp::Coh(CohInstr::wb(range(
            private(rng, WB_RANGE_WORDS),
            WB_RANGE_WORDS,
        ))),
        Kind::WbAll => ReplayOp::Coh(CohInstr::wb_all()),
        Kind::InvWord => ReplayOp::Coh(CohInstr::inv(Target::word(WordAddr(shared(rng, 1))))),
        Kind::InvRange => ReplayOp::Coh(CohInstr::inv(range(
            shared(rng, INV_RANGE_WORDS),
            INV_RANGE_WORDS,
        ))),
        Kind::InvAll => ReplayOp::Coh(CohInstr::inv_all()),
    }
}

/// The value every shared word is poked with before the run.
fn shared_value(w: u64) -> u32 {
    (w as u32).wrapping_mul(0x9E37_79B9) ^ 0x5EED
}

/// The generated input: per phase, per core, the ops in program order.
pub struct Streams {
    ops: Vec<Vec<Vec<ReplayOp>>>,
    shared: Vec<u64>,
    /// Every word some core stores to, ascending.
    written: Vec<u64>,
}

impl Streams {
    pub fn generate(seed: u64) -> Streams {
        let mut rng = SplitMix64::new(seed);
        let (mut ops, mut shared, mut written) = (Vec::new(), Vec::new(), Vec::new());
        let mut base = 0u64;
        for ph in &PHASES {
            let priv_base = base + ph.shared_words;
            shared.extend(base..priv_base);
            let mut per_core = Vec::with_capacity(CORES);
            for c in 0..CORES as u64 {
                let mine = priv_base + c * ph.private_words;
                let stream: Vec<ReplayOp> = (0..ph.ops_per_core)
                    .map(|_| gen_op(&mut rng, ph, base, mine))
                    .collect();
                written.extend(stream.iter().filter_map(|o| match o {
                    ReplayOp::Store(w, _) => Some(*w),
                    _ => None,
                }));
                per_core.push(stream);
            }
            ops.push(per_core);
            base = priv_base + CORES as u64 * ph.private_words;
        }
        written.sort_unstable();
        written.dedup();
        Streams {
            ops,
            shared,
            written,
        }
    }

    fn len(&self) -> usize {
        self.ops.iter().flatten().map(Vec::len).sum::<usize>() + 2 * CORES
    }
}

/// What one backend's replay produced.
struct Replay {
    /// Host seconds of each phase's loop, then of the closing ops.
    phase_s: [f64; 4],
    cycles: u64,
    traffic: [u64; 6],
    memory: Vec<u32>,
    /// Loads that returned something other than the poked value.
    bad_loads: u64,
}

/// Execute `ops` in `(time, core)` order from the cores' `clocks`.
fn drive(
    m: &mut Machine,
    ops: &[Vec<ReplayOp>],
    clocks: &mut [u64],
    bad_loads: &mut u64,
) -> Result<(), String> {
    let mut next = vec![0usize; ops.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..ops.len())
        .filter(|&c| !ops[c].is_empty())
        .map(|c| Reverse((clocks[c], c)))
        .collect();
    while let Some(Reverse((now, c))) = heap.pop() {
        let rop = ops[c][next[c]];
        next[c] += 1;
        match m.execute(CoreId(c), &rop.op(), now) {
            Exec::Done { value, end } => {
                if let ReplayOp::Load(w) = rop {
                    *bad_loads += u64::from(value != Some(shared_value(w)));
                }
                clocks[c] = end;
                if next[c] < ops[c].len() {
                    heap.push(Reverse((end, c)));
                }
            }
            Exec::Parked => return Err(format!("core {c} parked on {rop:?}")),
        }
    }
    Ok(())
}

/// Replay `s` on a fresh machine. `closing_wb: false` leaves dirty data
/// in the L1s (the negative control of the oracle).
fn replay(mut m: Machine, s: &Streams, closing_wb: bool) -> Result<Replay, String> {
    for &w in &s.shared {
        m.poke_word(WordAddr(w), shared_value(w));
    }
    let mut clocks = vec![0u64; CORES];
    let mut bad_loads = 0;
    let mut phase_s = [0.0; 4];
    for (p, ops) in s.ops.iter().enumerate() {
        let t = Instant::now();
        drive(&mut m, ops, &mut clocks, &mut bad_loads)?;
        phase_s[p] = t.elapsed().as_secs_f64();
    }
    let closing: Vec<Op> = if closing_wb {
        vec![Op::Coh(CohInstr::wb_all()), Op::Finish]
    } else {
        vec![Op::Finish]
    };
    let t = Instant::now();
    for op in &closing {
        let mut order: Vec<usize> = (0..CORES).collect();
        order.sort_by_key(|&c| (clocks[c], c));
        for c in order {
            match m.execute(CoreId(c), op, clocks[c]) {
                Exec::Done { end, .. } => clocks[c] = end,
                Exec::Parked => return Err(format!("core {c} parked on {op:?}")),
            }
        }
    }
    phase_s[3] = t.elapsed().as_secs_f64();
    let stats = m.finish();
    Ok(Replay {
        phase_s,
        cycles: stats.total_cycles,
        traffic: expect::traffic(&stats.traffic),
        memory: s
            .written
            .iter()
            .map(|&w| m.peek_word(WordAddr(w)))
            .collect(),
        bad_loads,
    })
}

type Build = fn(MachineConfig) -> Machine;

/// The measured backends, by metric name.
const BACKENDS: [(&str, Build); 3] = [
    ("incoherent", Machine::incoherent),
    ("mesi", Machine::coherent),
    ("dragon", Machine::dragon),
];

/// The oracle: the final memory of `Machine::reference` fed `s`.
pub fn reference_memory(s: &Streams) -> Result<Vec<u32>, String> {
    Ok(replay(Machine::reference(MachineConfig::intra_block()), s, true)?.memory)
}

/// Written words whose final value differs from the reference's.
fn mismatches(got: &[u32], want: &[u32]) -> usize {
    got.iter().zip(want).filter(|(a, b)| a != b).count() + got.len().abs_diff(want.len())
}

/// What one backend's replay checked and measured.
struct Checked {
    tally: Tally,
    /// Host seconds per phase, then of the closing ops.
    secs: [f64; 4],
}

/// The fingerprint table's name for `backend`'s rows.
fn pin_name(backend: &str) -> String {
    format!("backend-replay.{backend}")
}

/// The fingerprinted row of one backend's replay: cycles, traffic and a
/// hash of the written words' final values.
fn row(name: &str, r: &Replay) -> String {
    let mem: Vec<u8> = r.memory.iter().flat_map(|v| v.to_le_bytes()).collect();
    format!("{name}|{}|{:?}|{:016x}", r.cycles, r.traffic, fnv64(&mem))
}

/// Replay `s` on backend `b` (an index into [`BACKENDS`]) and check its
/// loads, the oracle and its pinned fingerprint.
fn replay_backend(set: u64, s: &Streams, want: &[u32], b: usize) -> Checked {
    let (name, build) = BACKENDS[b];
    let mut tally = Tally::default();
    let r = match replay(build(MachineConfig::intra_block()), s, true) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{name}: {e}");
            tally.check(false);
            return Checked {
                tally,
                secs: [0.0; 4],
            };
        }
    };
    tally.check(r.bad_loads == 0);
    let wrong = mismatches(&r.memory, want);
    if wrong > 0 {
        eprintln!("{name}: {wrong} written words differ from the reference");
    }
    tally.check(wrong == 0);
    tally.check(expect::matches(
        &pin_name(name),
        Some(set),
        fnv64(row(name, &r).as_bytes()),
    ));
    Checked {
        tally,
        secs: r.phase_s,
    }
}

/// Replay every backend in turn.
fn replay_all(set: u64, s: &Streams, want: &[u32]) -> Vec<Checked> {
    (0..BACKENDS.len())
        .map(|b| replay_backend(set, s, want, b))
        .collect()
}

/// Each backend is one arm of the measurement, so the backends take
/// turns through the run's host phases; `wall_s` is the sum of their
/// median replay times.
pub fn backend_replay(seed: u64, seconds: f64) -> Result<Report, String> {
    let (set, stream_seed) = input_seed(seed);
    let want = reference_memory(&Streams::generate(stream_seed))?;
    Ok(measure(
        seconds,
        BACKENDS.len(),
        Sampling::Inline,
        || Streams::generate(stream_seed),
        |s, b| replay_backend(set, s, &want, b).tally,
    ))
}

pub fn backend_replay_traced(seed: u64) -> Result<Report, String> {
    let (set, stream_seed) = input_seed(seed);
    let s = Streams::generate(stream_seed);
    let want = reference_memory(&s)?;
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    let u0 = Usage::now();
    let t = Instant::now();
    for c in replay_all(set, &s, &want) {
        tally.add(c.tally);
    }
    let untraced_s = t.elapsed().as_secs_f64();
    let unit = Usage::now().since(&u0);
    m.put(
        "sim_mops_per_s",
        (BACKENDS.len() * s.len()) as f64 / untraced_s / 1e6,
        "Mop/s",
    );

    let t = Instant::now();
    let traced = replay_all(set, &s, &want);
    let traced_s = t.elapsed().as_secs_f64();
    for ((b, _), c) in BACKENDS.iter().zip(&traced) {
        tally.add(c.tally);
        m.put(
            &format!("machine.ns_per_op.{b}"),
            c.secs.iter().sum::<f64>() * 1e9 / s.len() as f64,
            "ns",
        );
    }
    for (p, ph) in PHASES.iter().enumerate() {
        let total: f64 = traced.iter().map(|c| c.secs[p]).sum();
        m.put(
            &format!("machine.ns_per_op.{}", ph.name),
            total * 1e9 / (CORES * ph.ops_per_core * BACKENDS.len()) as f64,
            "ns",
        );
    }
    Ok(traced_report(tally, m, &unit, untraced_s, traced_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_every_backend() {
        let s = Streams::generate(7);
        let want = reference_memory(&s).unwrap();
        for (b, build) in BACKENDS {
            let r = replay(build(MachineConfig::intra_block()), &s, true).unwrap();
            assert_eq!(r.bad_loads, 0, "{b}");
            assert_eq!(mismatches(&r.memory, &want), 0, "{b}");
        }
    }

    #[test]
    fn dropping_the_closing_wb_trips_the_oracle() {
        let s = Streams::generate(7);
        let want = reference_memory(&s).unwrap();
        let r = replay(Machine::incoherent(MachineConfig::intra_block()), &s, false).unwrap();
        assert!(mismatches(&r.memory, &want) > 0);
    }

    #[test]
    fn perturbing_one_row_trips_the_fingerprint() {
        let (set, seed) = input_seed(0);
        let s = Streams::generate(seed);
        let c = replay_backend(set, &s, &reference_memory(&s).unwrap(), 1);
        assert_eq!(c.tally.failed, 0, "input set {set} must match its pin");
        let (name, build) = BACKENDS[1];
        let r = replay(build(MachineConfig::intra_block()), &s, true).unwrap();
        let pin = |line: &str| expect::matches(&pin_name(name), Some(set), fnv64(line.as_bytes()));
        assert!(pin(&row(name, &r)));
        assert!(!pin(&row(name, &r).replacen('|', "|1", 1)));
    }

    #[test]
    fn generated_mix_follows_the_measured_shares() {
        assert_eq!(MIX_PPM.iter().map(|(_, p)| p).sum::<u64>(), 1_000_000);
        let s = Streams::generate(3);
        let ops: Vec<&ReplayOp> = s.ops.iter().flatten().flatten().collect();
        let coh = |f: fn(&CohInstr) -> bool| {
            ops.iter()
                .filter(|o| matches!(o, ReplayOp::Coh(i) if f(i)))
                .count()
        };
        let wb_all = coh(|i| {
            matches!(
                i,
                CohInstr::Wb {
                    target: Target::All,
                    ..
                }
            )
        });
        let inv_range = coh(|i| {
            matches!(
                i,
                CohInstr::Inv {
                    target: Target::Range(_),
                    ..
                }
            )
        });
        let loads = ops
            .iter()
            .filter(|o| matches!(o, ReplayOp::Load(_)))
            .count();
        // 504,000 ops: about 335,000 loads, 922 WB ALLs, 2,802 range INVs.
        assert!((330_000..340_000).contains(&loads), "{loads}");
        assert!((800..1_050).contains(&wb_all), "{wb_all}");
        assert!((2_600..3_000).contains(&inv_range), "{inv_range}");
    }

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let (a, b, c) = (
            Streams::generate(1),
            Streams::generate(1),
            Streams::generate(2),
        );
        assert_eq!(format!("{:?}", a.ops), format!("{:?}", b.ops));
        assert_ne!(format!("{:?}", a.ops), format!("{:?}", c.ops));
        assert_eq!(a.len(), 16 * (18000 + 9000 + 4500) + 32);
    }
}
