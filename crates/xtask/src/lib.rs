//! `netdiag-xtask`: the workspace invariant checker.
//!
//! A dependency-free static analyzer enforcing repo-specific invariants
//! that clippy cannot express:
//!
//! * **Determinism** — no hash-order iteration or ambient
//!   clock/RNG/environment reads in the crates whose outputs must be
//!   bit-reproducible (`hash-iter`, `nondet-source`).
//! * **Panic-safety** — no `panic!`-family macros, `.unwrap()` or
//!   undocumented `.expect(..)` in non-test library code (`panic-macro`,
//!   `unwrap`), plus an advisory indexing lint (`slice-index`).
//! * **Obs-name consistency** — every metric name passed to the
//!   `netdiag-obs` recorder exists in `crates/obs/src/names.rs`, and
//!   every vocabulary entry has a call site (`obs-unknown-name`,
//!   `obs-dead-name`).
//! * **Concurrency** — the workspace lock-ordering graph stays acyclic
//!   and no guard is held across blocking I/O or a thread join
//!   (`lock-order`, `lock-across-blocking`), via the item-graph model
//!   in [`parser`] and [`graph`].
//! * **Hot paths** — functions marked `// hot` and their direct callees
//!   neither allocate nor bump a shared refcount (`hot-alloc`).
//! * **Layering** — `use` statements respect the crate DAG
//!   (`layering`), and the vendored stubs stay leaf-only.
//!
//! Escape hatch: `// lint: allow(<id>): <justification>` on the flagged
//! line or the line above; a directive without a justification is itself
//! a finding (`bad-allow`), and one that suppresses nothing is too
//! (`stale-allow`). Run it with `cargo run -p netdiag-xtask -- lint`;
//! dump the layering and lock graphs with `… -- graph --dot`; see
//! `DESIGN.md` §10 for the full catalog.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod graph;
pub mod lexer;
pub mod lints;
pub mod parser;
pub mod workspace;

pub use engine::{run, Finding, Level, Lint, Report, SrcFile};
