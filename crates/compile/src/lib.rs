//! # sekitei-compile
//!
//! Compilation of CPP specifications into leveled AI-planning tasks:
//! grounding of `place`/`cross` action schemas over the network, level
//! enumeration with static pruning (paper §3.1), optimistic resource maps,
//! and lower-bound action costs. [`compile`] builds only the ground actions
//! that can contribute to a goal; [`compile_full`] builds all of them, with
//! the same proposition and variable ids.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ground;
mod relevance;
pub mod symmetry;
pub mod task;

pub use ground::{compile, compile_full, CompileError};
pub use symmetry::{node_orbits, NodeOrbits};
pub use task::{
    AchieverIndex, ActionKind, CompileStats, GVarData, GroundAction, PlanningTask, PropData,
};
