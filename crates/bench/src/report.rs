//! Text formatters over the evaluation sweep.
//!
//! The `figures` binary runs the cells of [`hic_serve::sweep_requests`]
//! that a target reads through an in-process server
//! ([`hic_serve::batch_in_process`]) and hands the resulting
//! [`JobOutcome`]s to the [`Table`]s here: Figures 9–12, the validated
//! suite table, and the golden dump. Each table picks out the cells it
//! reads from whatever list it is given, so `figures all` simulates
//! each of the 71 cells once and feeds the same list to every figure.
//! `EXPERIMENTS.md` records the output against the paper's claims.

use std::fmt::Write;
use std::sync::Arc;

use hic_runtime::{InterConfig, IntraConfig};
use hic_serve::JobOutcome;

/// One text output over sweep outcomes.
pub struct Table {
    /// Whether the table reads the cell with this family (`"intra"` /
    /// `"inter"`) and scheme name — which cells a target simulates.
    pub reads: fn(&str, &str) -> bool,
    /// Render the table from the cells of `outcomes` it reads.
    pub render: fn(&[Arc<JobOutcome>]) -> String,
}

/// Figure 9: intra-block execution time with the stall breakdown.
pub const FIG9: Table = Table {
    reads: |family, _| family == "intra",
    render: fig9,
};

/// Figure 10: intra-block network traffic, HCC vs B+M+I.
pub const FIG10: Table = Table {
    reads: |family, scheme| {
        family == "intra" && [IntraConfig::Hcc.name(), IntraConfig::BMI.name()].contains(&scheme)
    },
    render: fig10,
};

/// Figure 11: global WBs and INVs, Addr vs Addr+L.
pub const FIG11: Table = Table {
    reads: |family, scheme| {
        family == "inter" && [InterConfig::Addr.name(), InterConfig::AddrL.name()].contains(&scheme)
    },
    render: fig11,
};

/// Figure 12: inter-block execution time.
pub const FIG12: Table = Table {
    reads: |family, _| family == "inter",
    render: fig12,
};

/// Every cell with its verdict, cycles, host wall time and detail.
pub const SUITE: Table = Table {
    reads: |_, _| true,
    render: suite,
};

/// Every cell as a Rust tuple literal, ready to paste over the `GOLDEN`
/// table of `tests/golden_equivalence.rs`.
pub const GOLDEN: Table = Table {
    reads: |_, _| true,
    render: golden,
};

/// Outcomes that computed a wrong result or failed with a typed error.
pub fn failures(outcomes: &[Arc<JobOutcome>]) -> usize {
    outcomes
        .iter()
        .filter(|o| !o.correct || o.error.is_some())
        .count()
}

fn cells<'a>(outcomes: &'a [Arc<JobOutcome>], table: &Table) -> Vec<&'a JobOutcome> {
    outcomes
        .iter()
        .filter(|o| (table.reads)(o.family, &o.scheme))
        .map(|o| &**o)
        .collect()
}

/// The rows of a normalized figure: `values(cell, norm)` for each cell
/// in input order, where `norm` is the cell's `metric` divided by that
/// of the same app's HCC cell (the paper's normalization), then the
/// paper's rightmost `average` group — one row per scheme, first-seen
/// order, holding the arithmetic mean over apps. Average rows carry no
/// cell.
fn normalized<'a, const N: usize>(
    cells: &[&'a JobOutcome],
    metric: fn(&JobOutcome) -> u64,
    values: fn(&JobOutcome, f64) -> [f64; N],
) -> Vec<(Option<&'a JobOutcome>, &'a str, [f64; N])> {
    let mut rows = Vec::new();
    let mut sums: Vec<(&str, [f64; N], usize)> = Vec::new();
    for &c in cells {
        let hcc = cells
            .iter()
            .find(|h| h.app == c.app && h.scheme == IntraConfig::Hcc.name())
            .map_or(0, |h| metric(h));
        let v = values(c, metric(c) as f64 / hcc.max(1) as f64);
        rows.push((Some(c), c.scheme.as_str(), v));
        let i = match sums.iter().position(|s| s.0 == c.scheme) {
            Some(i) => i,
            None => {
                sums.push((c.scheme.as_str(), [0.0; N], 0));
                sums.len() - 1
            }
        };
        for (sum, x) in sums[i].1.iter_mut().zip(v) {
            *sum += x;
        }
        sums[i].2 += 1;
    }
    rows.extend(
        sums.into_iter()
            .map(|(scheme, sum, n)| (None, scheme, sum.map(|x| x / n as f64))),
    );
    rows
}

fn app(row: Option<&JobOutcome>) -> &str {
    row.map_or("average", |c| &c.app)
}

fn ok(row: Option<&JobOutcome>) -> &'static str {
    if row.is_none_or(|c| c.correct) {
        "yes"
    } else {
        "NO"
    }
}

fn fig9(outcomes: &[Arc<JobOutcome>]) -> String {
    // Each bar is [norm, inv, wb, lock, barrier, rest]: the ledger's
    // category shares scale the bar so the stack sums to its height.
    let bar = |c: &JobOutcome, norm: f64| {
        let total = c.stalls.iter().sum::<u64>().max(1) as f64;
        let mut bar = [norm; 6];
        for (share, &cycles) in bar[1..].iter_mut().zip(&c.stalls) {
            *share = cycles as f64 / total * norm;
        }
        bar
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 9: normalized execution time, intra-block (HCC = 1.00)"
    );
    let _ = writeln!(
        s,
        "{:-14} {:-6} {:>12} {:>6}  {:>6} {:>6} {:>6} {:>7} {:>6}  ok",
        "app", "config", "cycles", "norm", "inv", "wb", "lock", "barrier", "rest"
    );
    for (c, scheme, b) in normalized(&cells(outcomes, &FIG9), |o| o.cycles, bar) {
        let _ = writeln!(
            s,
            "{:-14} {:-6} {:>12} {:>6.2}  {:>6.3} {:>6.3} {:>6.3} {:>7.3} {:>6.3}  {}",
            app(c),
            scheme,
            c.map_or(0, |c| c.cycles),
            b[0],
            b[1],
            b[2],
            b[3],
            b[4],
            b[5],
            ok(c)
        );
    }
    s
}

/// The four Figure 10 categories of a cell's `traffic`
/// (`[linefill, writeback, invalidation, memory, l2l3, sync]`), in the
/// figure's `[memory, linefill, writeback, invalidation]` order.
fn fig10_flits(o: &JobOutcome) -> [u64; 4] {
    [o.traffic[3], o.traffic[0], o.traffic[1], o.traffic[2]]
}

fn fig10(outcomes: &[Arc<JobOutcome>]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 10: normalized network traffic, HCC vs B+M+I (flits)"
    );
    let _ = writeln!(
        s,
        "{:-14} {:-6} {:>10} {:>10} {:>10} {:>12} {:>6}",
        "app", "config", "memory", "linefill", "writeback", "invalidation", "norm"
    );
    let total = |o: &JobOutcome| fig10_flits(o).iter().sum();
    for (c, scheme, [norm]) in normalized(&cells(outcomes, &FIG10), total, |_, n| [n]) {
        let f = c.map_or([0; 4], fig10_flits);
        let _ = writeln!(
            s,
            "{:-14} {:-6} {:>10} {:>10} {:>10} {:>12} {:>6.2}",
            app(c),
            scheme,
            f[0],
            f[1],
            f[2],
            f[3],
            norm
        );
    }
    s
}

fn fig11(outcomes: &[Arc<JobOutcome>]) -> String {
    let cells = cells(outcomes, &FIG11);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 11: global WBs and INVs, Addr+L normalized to Addr"
    );
    let _ = writeln!(
        s,
        "{:-8} {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8}",
        "app", "WB(Addr)", "WB(A+L)", "ratio", "INV(Addr)", "INV(A+L)", "ratio"
    );
    let addrl = InterConfig::AddrL.name();
    for a in cells
        .iter()
        .filter(|c| c.scheme == InterConfig::Addr.name())
    {
        let Some(l) = cells.iter().find(|c| c.app == a.app && c.scheme == addrl) else {
            continue;
        };
        let _ = writeln!(
            s,
            "{:-8} {:>10} {:>10} {:>8.2} | {:>10} {:>10} {:>8.2}",
            a.app,
            a.global_wbs,
            l.global_wbs,
            l.global_wbs as f64 / a.global_wbs.max(1) as f64,
            a.global_invs,
            l.global_invs,
            l.global_invs as f64 / a.global_invs.max(1) as f64
        );
    }
    s
}

fn fig12(outcomes: &[Arc<JobOutcome>]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 12: normalized execution time, inter-block (HCC = 1.00)"
    );
    let _ = writeln!(
        s,
        "{:-10} {:-6} {:>12} {:>6}  ok",
        "app", "config", "cycles", "norm"
    );
    for (c, scheme, [norm]) in normalized(&cells(outcomes, &FIG12), |o| o.cycles, |_, n| [n]) {
        let _ = writeln!(
            s,
            "{:-10} {:-6} {:>12} {:>6.2}  {}",
            app(c),
            scheme,
            c.map_or(0, |c| c.cycles),
            norm,
            ok(c)
        );
    }
    s
}

fn suite(outcomes: &[Arc<JobOutcome>]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:-14} {:-6} {:-5} {:>12} {:>9}  detail",
        "app", "config", "check", "cycles", "wall"
    );
    for o in cells(outcomes, &SUITE) {
        let _ = writeln!(
            s,
            "{:-14} {:-6} {:-5} {:>12} {:>9.2?}  {}",
            o.app,
            o.scheme,
            if o.correct { "ok" } else { "WRONG" },
            o.cycles,
            o.wall,
            o.detail
        );
    }
    s
}

fn golden(outcomes: &[Arc<JobOutcome>]) -> String {
    let mut s = String::new();
    for o in cells(outcomes, &GOLDEN) {
        let t = o.traffic;
        let _ = writeln!(
            s,
            "    (\"{}\", \"{}\", {}, [{}, {}, {}, {}, {}, {}]),",
            o.app, o.scheme, o.cycles, t[0], t[1], t[2], t[3], t[4], t[5]
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use hic_apps::Scale;
    use hic_runtime::{Config, RunRequest};
    use std::time::Duration;

    /// A hand-built correct outcome; no simulation.
    fn cell(app: &str, config: Config, cycles: u64) -> JobOutcome {
        let req = RunRequest::new(app, config, Scale::Test);
        let mut o = JobOutcome::failed(&req, "unused", String::new(), Duration::ZERO);
        o.correct = true;
        o.error = None;
        o.cycles = cycles;
        o
    }

    fn intra(app: &str, cfg: IntraConfig, cycles: u64) -> JobOutcome {
        cell(app, Config::Intra(cfg), cycles)
    }

    fn inter(app: &str, cfg: InterConfig, cycles: u64) -> JobOutcome {
        cell(app, Config::Inter(cfg), cycles)
    }

    fn arcs(cells: Vec<JobOutcome>) -> Vec<Arc<JobOutcome>> {
        cells.into_iter().map(Arc::new).collect()
    }

    fn lines(text: &str) -> Vec<&str> {
        text.lines().collect()
    }

    #[test]
    fn fig9_normalizes_to_hcc_and_scales_the_stall_shares() {
        let mut base = intra("FFT", IntraConfig::Base, 150);
        base.stalls = [30, 0, 0, 0, 120];
        let mut lu = intra("LU cont", IntraConfig::Base, 300);
        lu.stalls = [0, 0, 0, 0, 300];
        let outcomes = arcs(vec![
            intra("FFT", IntraConfig::Hcc, 100),
            base,
            intra("LU cont", IntraConfig::Hcc, 100),
            lu,
            // Another family's cell is not Figure 9's to read.
            inter("EP", InterConfig::Base, 999),
        ]);
        let text = fig9(&outcomes);
        let rows = lines(&text);
        assert_eq!(rows.len(), 2 + 4 + 2, "{text}");
        // FFT Base: 1.5x HCC, 20 % INV stall, 80 % rest.
        assert_eq!(
            rows[3],
            "FFT            Base            150   1.50   0.300  0.000  0.000   0.000  1.200  yes"
        );
        // Averages per scheme over apps: HCC 1.00; Base (1.5 + 3.0) / 2.
        assert!(
            rows[6].starts_with("average        HCC               0   1.00"),
            "{}",
            rows[6]
        );
        assert!(
            rows[7].starts_with("average        Base              0   2.25   0.150"),
            "{}",
            rows[7]
        );
    }

    #[test]
    fn fig12_normalizes_to_hcc_and_flags_wrong_cells() {
        let mut wrong = inter("CG", InterConfig::Addr, 60);
        wrong.correct = false;
        let outcomes = arcs(vec![
            inter("CG", InterConfig::Hcc, 40),
            inter("CG", InterConfig::Base, 80),
            wrong,
            inter("EP", InterConfig::Hcc, 10),
            inter("EP", InterConfig::Base, 12),
        ]);
        let text = fig12(&outcomes);
        let rows = lines(&text);
        assert_eq!(rows[3], "CG         Base             80   2.00  yes");
        assert_eq!(rows[4], "CG         Addr             60   1.50  NO");
        // Base averages (2.0 + 1.2) / 2; Addr has one app.
        assert_eq!(rows[8], "average    Base              0   1.60  yes");
        assert_eq!(rows[9], "average    Addr              0   1.50  yes");
        assert_eq!(rows.len(), 10, "{text}");
    }

    #[test]
    fn fig10_reads_only_hcc_and_bmi_traffic() {
        let mut hcc = intra("FFT", IntraConfig::Hcc, 1);
        hcc.traffic = [40, 20, 30, 10, 7, 7];
        let mut bmi = intra("FFT", IntraConfig::BMI, 1);
        bmi.traffic = [20, 10, 0, 20, 7, 7];
        let outcomes = arcs(vec![hcc, intra("FFT", IntraConfig::Base, 1), bmi]);
        let text = fig10(&outcomes);
        let rows = lines(&text);
        assert_eq!(rows.len(), 2 + 2 + 2, "{text}");
        assert_eq!(
            rows[3],
            "FFT            B+M+I          20         20         10            0   0.50"
        );
        assert!(rows[5].ends_with("0   0.50"), "{}", rows[5]);
    }

    #[test]
    fn fig11_ratios_are_addrl_over_addr() {
        let mut addr = inter("Jacobi", InterConfig::Addr, 1);
        (addr.global_wbs, addr.global_invs) = (40, 10);
        let mut addrl = inter("Jacobi", InterConfig::AddrL, 1);
        (addrl.global_wbs, addrl.global_invs) = (10, 0);
        let mut ep_addr = inter("EP", InterConfig::Addr, 1);
        ep_addr.global_wbs = 8;
        let mut ep_addrl = inter("EP", InterConfig::AddrL, 1);
        ep_addrl.global_wbs = 8;
        let outcomes = arcs(vec![addr, addrl, ep_addr, ep_addrl]);
        let text = fig11(&outcomes);
        let rows = lines(&text);
        assert_eq!(
            rows[2],
            "Jacobi           40         10     0.25 |         10          0     0.00"
        );
        // A zero Addr count divides by one, not by zero.
        assert_eq!(
            rows[3],
            "EP                8          8     1.00 |          0          0     0.00"
        );
    }

    #[test]
    fn one_wrong_or_failed_cell_flips_the_verdict() {
        let good = || intra("FFT", IntraConfig::Hcc, 1);
        assert_eq!(failures(&arcs(vec![good(), good()])), 0);
        let mut wrong = good();
        wrong.correct = false;
        assert_eq!(failures(&arcs(vec![good(), wrong])), 1);
        let mut typed = good();
        typed.error = Some("hang".into());
        assert_eq!(failures(&arcs(vec![typed, good()])), 1);
    }

    #[test]
    fn golden_rows_are_tuple_literals_in_input_order() {
        let mut o = intra("FFT", IntraConfig::Hcc, 14751);
        o.traffic = [13100, 4152, 6256, 320, 0, 288];
        let outcomes = arcs(vec![o, inter("EP", InterConfig::Addr, 5)]);
        assert_eq!(
            golden(&outcomes),
            "    (\"FFT\", \"HCC\", 14751, [13100, 4152, 6256, 320, 0, 288]),\n    \
             (\"EP\", \"Addr\", 5, [0, 0, 0, 0, 0, 0]),\n"
        );
    }
}
