//! fcma-mut: mutation analysis proving the audit passes are
//! load-bearing, and reporting which mutants the tier-1 tests reach.
//!
//! A static-analysis suite that never fails is indistinguishable from
//! one that checks nothing. This crate turns that doubt into a
//! measurement: it seeds typed semantic faults (mutants) into the
//! workspace through [`fcma_audit::mutants`]'s enumeration, applies
//! each one via an **in-memory source overlay** (no disk churn, no
//! rebuilds), and asks the oracles whether they notice:
//!
//! - **killed-by-audit** — one of the `fcma-audit` passes raises a
//!   violation against the mutated tree that the clean tree does not
//!   have;
//! - **covered** — for deterministic mutants, the mutated function is
//!   reachable from a tier-1 test through the conservative call graph.
//!   This is coverage, **not a kill**: no test is executed (the
//!   in-memory overlay never touches the build tree), so a covered
//!   mutant may well survive the test that reaches it. Only the
//!   verdict above is an executed oracle. Concurrency mutants are
//!   **never** counted as covered — a deterministic test observes a
//!   race only by luck;
//! - **surviving** — no oracle fires. A surviving mutant is either
//!   triaged as semantically equivalent with an
//!   `// audit: equivalent(<class>) — <reason>` marker at its site
//!   (tracked for staleness by the `unusedallow` pass, exactly like
//!   allow markers), or it is a named gap the kill-matrix report
//!   surfaces and CI fails on.
//!
//! The per-class kill matrix is compared against a committed
//! `mutation-baseline.json` and DESIGN.md §17's "Mutation contracts"
//! table (minimum killed-or-covered share per class), mirroring how
//! `fcma-audit stats --check` pins the violation counts.

pub mod engine;
pub mod report;

pub use engine::{run, Analysis, Classified, RunConfig, Verdict};
pub use report::{parse_matrix, render_matrix, render_matrix_delta, ClassRow};
