//! Parallel experiment-execution engine for the Hirata reproduction.
//!
//! The §3 experiments of the paper are grids of independent
//! simulations: the same workload swept over thread-slot counts,
//! functional-unit pools, rotation intervals, issue widths, and memory
//! models. This crate turns each point of such a grid into a [`Job`]
//! and runs batches of jobs on long-lived worker threads with a
//! content-addressed on-disk result cache:
//!
//! - a [`Job`] bundles a simulator [`Config`](hirata_sim::Config), a
//!   [`Program`](hirata_isa::Program), and a memory-model spec, and has
//!   a stable [content hash](Job::content_hash) derived from exactly
//!   the inputs that determine the simulation outcome;
//! - [`Lab::run_batch`] consults a [`DiskCache`] keyed by job hash
//!   first, so re-running a sweep only simulates the points that
//!   changed, and hands the misses to the `Lab`'s workers, which take
//!   them from one shared queue;
//! - a job runs as a machine stepped in strides: between strides its
//!   deadline is checked, so a runaway job stops within one stride, and
//!   a panic inside it is caught, so a crashed or runaway job reports a
//!   [`JobError`] in the batch while its siblings complete;
//! - a [`Placement`] spreads a batch's jobs over the workers or steps
//!   them all round-robin on the calling thread, with the same
//!   stepping code.
//!
//! Cached entries carry a schema tag ([`CACHE_SCHEMA_TAG`]); bumping
//! the tag (on any change to the serialized form or to simulator
//! semantics) invalidates stale entries automatically.
//!
//! The engine never prints to stdout — progress and the end-of-batch
//! report go to stderr — so table output produced from batch results
//! stays byte-identical to a serial run, cached or not.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod job;
mod pool;

pub use cache::{default_cache_dir, valid_key, CacheStats, DiskCache, CACHE_SCHEMA_TAG};
pub use job::{execute, Job, JobError, JobOutput, JobResult, MemModelSpec, DEFAULT_TIMEOUT};
pub use pool::{Batch, BatchEvent, BatchReport, JobSummary, Lab, Placement};
