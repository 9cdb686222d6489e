//! Result fingerprints pinned with the benchmark.
//!
//! Each line of `perfbench/expected.txt` reads `<workload> <set> <hex>`:
//! the FNV-64 hash of a workload's simulated results on input set `set`
//! (`-` for a workload whose inputs do not depend on the seed). A run
//! whose results hash differently fails: a change that alters cycles,
//! traffic or memory contents cannot pass as a speed-up.

use hic_machine::TrafficLedger;

const TABLE: &str = include_str!("../expected.txt");

/// The six traffic categories in fingerprint order: linefill, writeback,
/// invalidation, memory, l2l3, sync.
pub fn traffic(t: &TrafficLedger) -> [u64; 6] {
    [
        t.linefill,
        t.writeback,
        t.invalidation,
        t.memory,
        t.l2l3,
        t.sync,
    ]
}

fn pinned(workload: &str, set: &str) -> Option<u64> {
    TABLE.lines().find_map(|l| {
        let mut f = l.split_whitespace();
        (f.next()? == workload && f.next()? == set)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

/// Does `got` equal the pinned fingerprint? Reports on stderr either way.
pub fn matches(workload: &str, set: Option<u64>, got: u64) -> bool {
    let set = set.map_or_else(|| "-".to_string(), |s| s.to_string());
    eprintln!("fingerprint {workload} {set} {got:016x}");
    match pinned(workload, &set) {
        Some(p) if p == got => true,
        Some(p) => {
            eprintln!("  mismatch: pinned {p:016x}");
            false
        }
        None => {
            eprintln!("  no fingerprint pinned for this input set");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_input_set_is_pinned() {
        assert!(pinned("figure-sweep", "-").is_some());
        assert!(pinned("fuzz-campaign", "-").is_some());
        for w in [
            "audit-serial",
            "backend-replay.incoherent",
            "backend-replay.mesi",
            "backend-replay.dragon",
        ] {
            for s in 0..crate::SEED_SPACE {
                assert!(pinned(w, &s.to_string()).is_some(), "{w} {s}");
            }
        }
    }
}
