//! # bgi-verify
//!
//! Whole-index static verification for the BiG-index.
//!
//! The index's correctness rests on formal invariants the construction
//! is supposed to establish — summaries must be *path-preserving*
//! (Def. 2.1), generalizations *label-preserving* w.r.t. the ontology
//! (Def. 2.2), and the `χ`/`χ⁻¹` correspondence tables mutually inverse
//! (the specialization step that Prop. 4.1's candidate filtering relies
//! on). The `bgi-bisim` crate checks single summaries with boolean
//! predicates; this crate checks an **assembled hierarchy end to end**
//! and returns a structured [`Report`] with per-invariant pass/fail
//! status and offending vertex/edge/label *witnesses* instead of bare
//! booleans.
//!
//! To stay below `big-index` in the dependency graph (so `big-index`
//! can validate itself at build time), the checker is generic over the
//! [`IndexView`] trait rather than taking a concrete index type;
//! `big-index` implements `IndexView` for `BiGIndex`. Tests use wrapper
//! views to inject corruption (a broken `χ⁻¹` table, a non-ancestor
//! configuration entry, a phantom summary edge, a stale support count)
//! and an assembled unstable quotient, and prove each class is caught
//! with a witness.
//!
//! Every layer is a maximal bisimulation when built and a stable,
//! possibly finer one after incremental maintenance, so all ten
//! [`Invariant::ALL`] checks apply to every index: each ends `Pass` or
//! `Fail`.
//!
//! ```
//! use bgi_verify::{check_index, IndexView};
//! # use bgi_verify::Status;
//! // let report = check_index(&index);
//! // assert!(report.is_clean(), "{report}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checks;
mod report;
mod view;

pub use checks::{check_index, check_shard_cuts};
pub use report::{Check, Invariant, Report, Status, Witness};
pub use view::IndexView;
