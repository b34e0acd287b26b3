//! End-to-end detection benchmark for narada-rs.
//!
//! Three seeded workloads (`corpus`, `lattice`, `serve`) drive the
//! library's public entry points in-process, the same ones `narada
//! detect` and `narada submit` call. An untraced run reports the
//! end-to-end metrics; a traced run times each layer's public functions
//! from this crate's own spans (see [`ledger`]). README.md has the
//! workload rationale and the layer-to-metric table.

pub mod host;
pub mod inputs;
pub mod ledger;
pub mod pipeline;
pub mod run;
pub mod stats;
pub mod workload;
