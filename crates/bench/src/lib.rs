//! # pas-bench
//!
//! The experiment harness regenerating every figure of the paper and
//! every quantitative claim the reproduction tracks (EXPERIMENTS.md).
//!
//! Each experiment lives in [`experiments`] as a pure function returning
//! [`CsvTable`]s; the `exp-*` binaries are thin wrappers printing one
//! experiment to stdout, and `exp-all` writes every table under
//! `results/`.
//!
//! The performance claims are the nine sweeps in
//! [`experiments::BENCHES`]. Each describes its points once, as
//! [`harness::Row`]s inside a [`harness::BenchFile`], which renders both
//! the CSV table and the repo-root `BENCH_<name>.json` written by
//! `exp-scaling --bench-json` (see README.md's `BENCH_*` convention),
//! e.g. E19 `BENCH_yds.json` (§2 deadline stack), E20 `BENCH_flow.json`
//! (§4 flow solver), E21 `BENCH_multi.json` (§5 multiprocessor
//! partition). `--smoke` is the seconds-scale tier CI runs so the
//! plumbing cannot rot.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod harness;

pub use harness::CsvTable;
