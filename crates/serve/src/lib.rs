//! `hic-serve` — simulation as a service.
//!
//! A long-running, multi-tenant job runner for the simulator: clients
//! describe runs as canonical [`RunRequest`](hic_runtime::RunRequest)s
//! (serialized as their `cache_key`), submit them over a JSON Unix
//! socket or a batch file, and get typed per-job results back. The
//! server keeps a bounded worker pool, a priority+FIFO queue, and a
//! result cache keyed by the request's canonical serialization — an
//! identical resubmission is answered bit-identically without
//! re-simulating.
//!
//! Layout:
//!
//! * [`json`] — the hand-rolled JSON value/parser/writer (the
//!   workspace serde is the inert offline shim);
//! * [`job`] — job lifecycle and the [`job::JobOutcome`] result record;
//! * [`queue`] — priority-then-FIFO queue ordering;
//! * [`server`] — the worker pool, queue, and result cache;
//! * [`socket`] — the line-delimited JSON socket frontend;
//! * [`figures`] — the paper's full figure set as one queued sweep:
//!   the one enumeration of the grid, the in-process batch runner, and
//!   `BENCH_figures.json`.
//!
//! See DESIGN.md §15 and the `hic-serve` binary for the CLI.

pub mod figures;
pub mod job;
pub mod json;
pub mod queue;
pub mod server;
pub mod socket;

pub use figures::{batch_in_process, figures_json, sweep_requests};
pub use job::{Job, JobId, JobOutcome, JobState};
pub use json::Json;
pub use server::{Server, ServerStats};
