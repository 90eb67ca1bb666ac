//! End-to-end and per-layer benchmark of the GreenGPU reproduction.
//!
//! Three workloads — the paper suite, a loaded 2000-node flat fleet, and
//! a 256-node geo fleet under correlated chaos — each timed over repeated
//! identical passes in one process and gated on the correctness of their
//! outputs. A traced run times each layer from outside the program, by
//! wrapping the calls into each crate's public API (see `README.md`).

#![forbid(unsafe_code)]

pub mod bench;
pub mod fleets;
pub mod replay;
pub mod report;
pub mod single_node;
pub mod spans;
pub mod stats;
pub mod suite;
