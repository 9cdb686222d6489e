//! `fuzz-campaign`: `hic_fuzz::run_campaign` on the reference campaign
//! ([`CAMPAIGN_SEED`], [`CASES`] cases) with no corpus writes.

use std::collections::BTreeSet;
use std::time::Instant;

use hic_fuzz::{
    case_seed, minimize, record_of, run_campaign, run_case, run_dynamic, scheme_tag, Backend,
    CampaignOpts, CaseDesc, GenBias, Verdict,
};
use hic_lint::{lint, optimize};
use hic_runtime::CheckMode;
use hic_sim::SplitMix64;

use crate::calib::Sampling;
use crate::expect;
use crate::host::Usage;
use crate::stats::{fnv64, ratio, Metrics};
use crate::{measure, traced_report, Report, Tally};

pub const CASES: usize = 200;

/// The campaign seed, whatever `--seed` says. A campaign's cost depends
/// on its seed: on a 2-vCPU host, 200-case campaigns with seeds
/// 2026–2041 took 7.2–8.8 s. That spread would add to the run-to-run
/// noise of every set of seeds, so the workload runs the campaign the
/// repository already uses as its reference.
pub const CAMPAIGN_SEED: u64 = 2026;

/// Delta-debugging budget per interesting case, as the campaign uses.
const MINIMIZE_EVALS: usize = 24;

fn opts() -> CampaignOpts {
    CampaignOpts {
        seed: CAMPAIGN_SEED,
        cases: CASES,
        ..CampaignOpts::default()
    }
}

/// One campaign; every case is an item, failed when it is a violation.
/// The rendered summary must match the pinned fingerprint. Returns the
/// tally and the number of violations.
fn campaign_unit(opts: &CampaignOpts) -> (Tally, u64) {
    let summary = run_campaign(opts);
    let mut tally = Tally {
        attempted: summary.run as u64,
        failed: summary.violations.len() as u64,
    };
    for v in &summary.violations {
        eprintln!("violation: {v}");
    }
    tally.check(summary.run == CASES);
    let render = summary.render();
    tally.check(expect::matches(
        "fuzz-campaign",
        None,
        fnv64(render.as_bytes()),
    ));
    (tally, summary.violations.len() as u64)
}

pub fn campaign(seconds: f64) -> Report {
    measure(seconds, 1, Sampling::Probe, opts, |o, _| campaign_unit(o).0)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The traced run. The campaign's generation steering is internal to
/// `run_campaign`, so the traced unit drives the same per-index case
/// seeds through `CaseDesc::generate` under the default bias, classifies
/// each case with `run_case`, and delta-debugs the first case of every
/// scheme × expectation signature. The layers' shares are then timed by
/// calling `lint`, `optimize` and `run_dynamic` on the same cases.
pub fn campaign_traced() -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let o = opts();

    let u0 = Usage::now();
    let t = Instant::now();
    let (base, mut violations) = campaign_unit(&o);
    tally.add(base);
    let untraced_s = t.elapsed().as_secs_f64();
    let unit = Usage::now().since(&u0);
    m.put("cases_per_s", CASES as f64 / untraced_s, "1/s");

    let bias = GenBias::default();
    let (mut gen_us, mut case_ms) = (Vec::new(), Vec::new());
    let mut descs = Vec::with_capacity(CASES);
    let mut interesting = Vec::new();
    let mut seen = BTreeSet::new();
    let t = Instant::now();
    for i in 0..CASES {
        let mut rng = SplitMix64::new(case_seed(CAMPAIGN_SEED, i));
        let t0 = Instant::now();
        let desc = CaseDesc::generate(&mut rng, &bias);
        gen_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let t0 = Instant::now();
        let out = run_case(&desc);
        case_ms.push(ms_since(t0));
        let violation = out.verdict.is_violation();
        violations += u64::from(violation);
        tally.check(!violation);
        let expect = out.verdict.expect_tag();
        let sig = format!("{}|{}", scheme_tag(desc.scheme), expect);
        if violation || (!matches!(out.verdict, Verdict::Clean) && seen.insert(sig)) {
            interesting.push((desc.clone(), expect));
        }
        descs.push(desc);
    }
    let traced_s = t.elapsed().as_secs_f64();

    let mut minimize_ms = 0.0;
    for (desc, expect) in &interesting {
        let t0 = Instant::now();
        let min = minimize(desc, expect, MINIMIZE_EVALS);
        minimize_ms += ms_since(t0);
        tally.check(run_case(&min).verdict.expect_tag() == *expect);
    }

    let (mut verify_ms, mut optimize_ms) = (Vec::new(), Vec::new());
    let backends = [
        ("subject", Backend::Subject, CheckMode::Report),
        ("mesi", Backend::Mesi, CheckMode::Off),
        ("dragon", Backend::Dragon, CheckMode::Off),
        ("reference", Backend::Reference, CheckMode::Off),
    ];
    let mut dynamic_ms: Vec<Vec<f64>> = vec![Vec::new(); backends.len()];
    for desc in &descs {
        let record = record_of(desc)?;
        let t0 = Instant::now();
        let report = lint(&record);
        verify_ms.push(ms_since(t0));
        if report.is_clean() {
            let t0 = Instant::now();
            let opt = optimize(&record);
            optimize_ms.push(ms_since(t0));
            tally.check(!opt.stats.fallback && opt.reverify.is_clean());
        }
        for (k, (_, backend, check)) in backends.iter().enumerate() {
            let t0 = Instant::now();
            let run = run_dynamic(desc, *backend, *check, None, None);
            dynamic_ms[k].push(ms_since(t0));
            tally.check(run.is_ok_and(|o| o.error.is_none()));
        }
    }

    m.put_pct("lint.verify_ms_p50", &verify_ms, 50, "ms")?;
    m.put_pct("lint.optimize_ms_p50", &optimize_ms, 50, "ms")?;
    m.put(
        "lint.share",
        ratio(
            verify_ms.iter().sum::<f64>() + optimize_ms.iter().sum::<f64>(),
            case_ms.iter().sum::<f64>(),
        ),
        "ratio",
    );
    m.put_pct("fuzz.generate_us_p50", &gen_us, 50, "us")?;
    for (k, (name, _, _)) in backends.iter().enumerate() {
        m.put_pct(
            &format!("fuzz.dynamic_ms_p50.{name}"),
            &dynamic_ms[k],
            50,
            "ms",
        )?;
    }
    m.put("fuzz.minimize_ms_sum", minimize_ms, "ms");
    m.put("fuzz.violations", violations as f64, "count");
    Ok(traced_report(tally, m, &unit, untraced_s, traced_s))
}
