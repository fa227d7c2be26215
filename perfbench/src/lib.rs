//! The repository's benchmark: seeded workloads driven through
//! RealConfig's public API in a closed loop (one client, the next
//! change only after the previous verdict), checked against a
//! from-scratch oracle, and a traced run that replays the same
//! submissions layer by layer.

pub mod drive;
pub mod gen;
pub mod replay;
pub mod stats;
