//! # sekitei-model
//!
//! Domain model for the **component placement problem (CPP)** from
//! *"Optimal Resource-Aware Deployment Planning for Component-based
//! Distributed Applications"* (Kichkaylo & Karamcheti, HPDC 2004).
//!
//! A CPP instance ([`problem::CppProblem`]) combines:
//!
//! * a [`network::Network`] of resource-annotated nodes and links,
//! * a catalog of [`resource::ResourceDef`]s (node CPU, link bandwidth, …),
//! * [`component::InterfaceSpec`]s — typed data streams with properties and
//!   link-crossing formulas,
//! * [`component::ComponentSpec`]s — deployable units with linkage,
//!   condition/effect formulas and cost formulas,
//! * initial streams/placements and deployment goals.
//!
//! Formulas are [`expr::Expr`] ASTs evaluated over points or
//! [`interval::Interval`]s; [`levels::LevelSpec`] provides the resource
//! discretization at the heart of the paper's contribution.
//! [`codec`] holds the byte reader and writer every wire format is
//! built on, and the workspace's one FNV-1a.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod advisor;
pub mod codec;
pub mod component;
pub mod error;
pub mod expr;
pub mod ids;
pub mod interval;
pub mod levels;
pub mod media;
pub mod network;
pub mod problem;
pub mod resource;

pub use adapt::{adapt_problem, AdaptConfig, ExistingDeployment, ExistingPlacement};
pub use advisor::{apply_suggestions, suggest_levels, LevelSuggestion};
pub use component::{ComponentSpec, InterfaceSpec, Placement, SCond, SEffect, SExpr, SpecVar};
pub use error::ModelError;
pub use expr::{AssignOp, CmpOp, Cond, Effect, Expr, Mono};
pub use ids::{
    ActionId, CompId, DirLink, GVarId, IfaceId, LevelIdx, LinkId, NodeId, PropId, ResId,
};
pub use interval::{Interval, EPS};
pub use levels::LevelSpec;
pub use media::{
    add_latency, media_domain, media_domain_with, LatencyConfig, LevelScenario, MediaConfig,
    MediaDomain,
};
pub use network::{LinkClass, LinkData, Network, NodeData};
pub use problem::{CppProblem, Goal, PrePlacement, StreamSource};
pub use resource::{Elasticity, Locus, ResourceDef};
