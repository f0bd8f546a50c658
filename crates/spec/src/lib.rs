//! # sekitei-spec
//!
//! Textual specification language for CPP domains — the practical face of
//! the paper's Figures 2 and 6 — plus a compact binary wire format.
//!
//! ```
//! let src = r#"
//!     resource node cpu;
//!     resource link lbw;
//!     interface M {
//!         property ibw;
//!         levels ibw [90, 100];
//!         cross {
//!             effect { link.lbw -= min(M.ibw, link.lbw);
//!                      M.ibw := min(M.ibw, link.lbw); }
//!             cost 1 + M.ibw / 10;
//!         }
//!     }
//!     component Client {
//!         requires M;
//!         when { M.ibw >= 90; }
//!         cost 1 + M.ibw / 10;
//!     }
//!     network {
//!         node n0 { cpu 30; }
//!         node n1 { cpu 30; }
//!         link n0 -- n1 lan { lbw 150; }
//!     }
//!     problem {
//!         source M at n0 { ibw up to 200; }
//!         goal Client at n1;
//!     }
//! "#;
//! let problem = sekitei_spec::parse_problem(src).unwrap();
//! assert_eq!(problem.components.len(), 1);
//! // print → parse is the identity (structurally)
//! let printed = sekitei_spec::print_problem(&problem);
//! let again = sekitei_spec::parse_problem(&printed).unwrap();
//! assert_eq!(problem.components, again.components);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod wire;

pub use error::SpecError;

/// Deepest formula the text parser and the `SKT1` decoder accept: a
/// constant or variable has depth 1 and each operator adds one (the
/// parser also counts an open parenthesis as a level). Compilation,
/// evaluation and encoding recurse over formulas, so the bound keeps one
/// hostile specification from exhausting a thread's stack. The deepest
/// formula of the scenario and `random_media` problems has depth 4.
pub const MAX_EXPR_DEPTH: usize = 64;
pub use parser::{parse_expr, parse_problem};
pub use printer::print_problem;
pub use wire::{
    decode, decode_outcome, decode_phases, decode_snapshot_header, decode_snapshot_record, encode,
    encode_outcome, encode_phases, encode_snapshot_header, encode_snapshot_record, WireOutcome,
    WirePhase, WirePlan, WireSnapshotRecord, WireStats, WireStep, WireStepKind,
    SNAPSHOT_HEADER_LEN,
};
