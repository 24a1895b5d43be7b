//! Helpers of the lemra benchmark (`perfbench/run.py`): order statistics,
//! seeded input draws and resident-memory readers. The workloads themselves
//! live in the `lemra-perfbench` binary.

pub mod rng;
pub mod rss;
pub mod stats;
