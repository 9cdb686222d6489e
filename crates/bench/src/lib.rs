//! Benchmark and figure-regeneration harness.
//!
//! The `figures` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the experiment index). Its grid
//! targets — Figures 9–12, the validated suite table and the golden
//! dump — are the [`report`] formatters over one list of
//! `hic_serve::JobOutcome`s from the evaluation sweep
//! (`hic_serve::sweep_requests`). `bench_host` times the same sweep
//! run by run on one thread ([`host`]); the `micro_simulator` bench
//! under `benches/` measures the engine under the standard `cargo bench`
//! flow, using the in-repo wall-clock harness in [`harness`].

pub mod ablation;
pub mod cli;
pub mod harness;
pub mod host;
pub mod report;

pub use ablation::{hop_latency_sweep, ieb_capacity_sweep, meb_capacity_sweep, AblationPoint};
pub use cli::parse_scale;
pub use harness::{bench, bench_with_setup, Timing};
pub use host::{geometry_grid, run_geometry_matrix, GeometryRun, HostReport, HostRun};
