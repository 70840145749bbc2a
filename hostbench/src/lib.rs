//! Host wall-clock benchmark of the FastGL reproduction.
//!
//! One process runs one workload: it sets the workload up several times
//! (timing each set-up), times whole epochs from outside the program for a
//! fixed number of seconds, and checks every epoch's output against a
//! reference. With tracing on, it also replays epochs through the layers'
//! public functions ([`trace`]) and times each call, so every layer's share
//! of the epoch is known. `README.md` next to this crate explains the
//! workloads and what each metric should move.

pub mod output;
pub mod stats;
pub mod trace;
pub mod workload;

pub use output::{pinned_reference, Output, PINNED_SEED};
pub use workload::{Knobs, Prepared, Workload};
