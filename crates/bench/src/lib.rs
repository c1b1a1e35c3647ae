//! Home of the simulator-throughput probe,
//! `examples/throughput_check.rs`. `scripts/ab_bench.sh` runs the probe
//! built from two trees in alternating rounds, and CI's `perf-gate` job
//! pairs the merge base against the change that way. The library
//! itself is empty.

#![forbid(unsafe_code)]
