//! Shared CLI helpers for the bench binaries.
//!
//! `figures` and `bench_host` both accept `--scale <name>`; each used to
//! carry its own three-name copy of the parser, which is how `medium`
//! and `large` ended up supported nowhere. The one parser lives here and
//! defers the name set to [`Scale::parse`]. [`sweep_from_env`] is the
//! evaluation sweep with the `HIC_*` environment knobs applied, as both
//! binaries run it.

use hic_apps::Scale;
use hic_runtime::RunRequest;
use hic_serve::sweep_requests;

/// Extract `--scale <name>` from `args`, or `default` when the flag is
/// absent. Panics with a usage message on an unknown name — the
/// binaries want the loud failure before any sweep starts.
pub fn parse_scale(args: &[String], default: Scale) -> Scale {
    match args.iter().position(|a| a == "--scale") {
        Some(i) => {
            let v = args.get(i + 1).map(|s| s.as_str()).unwrap_or("");
            Scale::parse(v).unwrap_or_else(|| {
                panic!("unknown scale {v:?} (use test|small|medium|large|paper)")
            })
        }
        None => default,
    }
}

/// Every cell of [`sweep_requests`] at `scale`, with the `HIC_CHECK`,
/// `HIC_FAULTS`, `HIC_RECOVER`, `HIC_ENGINE` and `HIC_BENCH_BUDGET_MS`
/// knobs folded in ([`RunRequest::from_env`]) — what `App::run` runs.
/// Panics on a malformed knob, before any cell starts.
pub fn sweep_from_env(scale: Scale) -> Vec<RunRequest> {
    sweep_requests(scale)
        .into_iter()
        .map(|r| RunRequest::from_env(&r.app, r.config, r.scale).unwrap_or_else(|e| panic!("{e}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_every_scale_name() {
        for s in Scale::ALL {
            assert_eq!(parse_scale(&args(&["--scale", s.name()]), Scale::Test), s);
        }
    }

    #[test]
    fn missing_flag_uses_the_default() {
        assert_eq!(parse_scale(&args(&["--inter"]), Scale::Small), Scale::Small);
    }

    #[test]
    #[should_panic(expected = "unknown scale")]
    fn unknown_scale_panics() {
        parse_scale(&args(&["--scale", "huge"]), Scale::Test);
    }
}
