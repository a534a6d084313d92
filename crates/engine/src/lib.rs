//! # snitch-engine — parallel, batched experiment execution
//!
//! Every COPIFT experiment (each section of the `experiments` binary, each
//! `sweep` batch) reduces to the same shape of work: expand a matrix of
//! `Kernel × Variant × problem size × ClusterConfig` into jobs, simulate
//! every job, and aggregate structured results. This crate is that execution
//! layer, factored out once:
//!
//! * [`job::JobSpec`] — one simulation job, plus grid/sweep constructors
//!   ([`JobSpec::grid`], [`job::figure2`], [`job::figure3`],
//!   [`job::config_sweep`]) that expand experiment matrices in a
//!   deterministic order;
//! * [`cache::ProgramCache`] — a keyed cache of compiled [`Program`]s so
//!   each `(kernel, variant, n, block)` assembles exactly once per sweep,
//!   shared across worker threads via `Arc`;
//! * [`executor::Engine`] — a scoped-thread worker pool that runs each job
//!   in its own (reused) `Cluster` and returns results **in job order**,
//!   independent of worker scheduling;
//! * [`record::RunRecord`] + [`sink`] — per-job results (cycles, IPC,
//!   stalls, power/energy, validation status, config fingerprint) serialized
//!   as JSON-lines and CSV, byte-identical for any worker count;
//! * tracing — [`JobSpec::traced`] opts a job into a cycle-accurate
//!   `snitch-trace` event trace carried on [`RunRecord::trace`] (same
//!   compiled program, bit-identical simulation, identical sink rows);
//!   `sweep trace` is the CLI entry point.
//!
//! [`Program`]: snitch_asm::program::Program
//!
//! # Example
//!
//! ```
//! use snitch_engine::{job, Engine};
//!
//! // pi_lcg, both variants, two problem sizes: 4 jobs.
//! let jobs = job::grid(
//!     &[snitch_kernels::Kernel::PiLcg],
//!     &snitch_kernels::Variant::all(),
//!     &[(64, 32), (128, 32)],
//! );
//! let records = Engine::new(2).run(&jobs);
//! assert_eq!(records.len(), 4);
//! assert!(records.iter().all(|r| r.ok));
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod executor;
pub mod job;
pub mod record;
pub mod sink;

pub use cache::{ProgramCache, ProgramKey};
pub use executor::Engine;
pub use job::JobSpec;
pub use record::RunRecord;
