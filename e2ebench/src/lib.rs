//! End-to-end benchmark harness for `stochdag`: seeded inputs, the four
//! workloads driven through the binary's real entry points, process
//! accounting, and the traced in-process replay that attributes time to
//! the program's layers.
pub mod gen;
pub mod layers;
pub mod procs;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod workloads;
