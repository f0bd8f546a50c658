//! # sekitei-server
//!
//! A long-running planning service over the Sekitei planner: the ROADMAP's
//! "serves heavy traffic" north star applied to PR 1's batch machinery.
//!
//! Std-only TCP serving — no async runtime, no external dependencies:
//!
//! - [`protocol`] — length-prefixed frames carrying `spec::wire` payloads
//!   (`SKT1` problems in, `SKO1` outcomes out) plus small control frames
//!   (metrics, flight recorder, shutdown).
//! - [`cache`] — two content-addressed tiers keyed by the hash of the
//!   encoded problem: compiled tasks (skip grounding/leveling) and
//!   completed outcomes (skip everything), the outcome tier under CLOCK
//!   eviction.
//! - [`persist`] — an append-only checksummed snapshot of the outcome
//!   tier (`SKS1`), replayed on start so a restart keeps its warm hit
//!   rate.
//! - [`server`] — a nonblocking acceptor round-robining connections over
//!   accept/worker shards, each owning a queue, a fingerprint-partitioned
//!   cache stripe with single-flight request coalescing, stats, and a
//!   flight ring; every request plans under a wall-clock deadline with
//!   graceful degradation and priority-aware shedding under pressure.
//! - [`client`] — blocking request helpers used by `sekitei request` and
//!   the benches.
//! - [`flight`] — a bounded ring of per-request records with
//!   per-latency-bucket exemplars, dumpable over the control protocol for
//!   tail-latency post-mortems.
//! - [`loadgen`] — a seeded open/closed-loop load generator (Zipf over a
//!   scenario corpus, bursts, pipelining) reporting sustained req/s and
//!   p50/p99/p99.9 from merged obs histogram shards.
//!
//! The telemetry plane ties these together: plan requests carry a
//! client-assigned trace id that the server echoes, tags onto its spans,
//! and writes into every flight record; `Metrics` control frames scrape
//! the live [`ServerStats`] registry as a text exposition, the one wire
//! form of the serving counters (`--stats` summarizes it); and profile
//! replies return the per-phase self-time table (`SKP1`) so a client can
//! stitch server phases into its own trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
pub mod convert;
pub mod flight;
pub mod loadgen;
pub mod persist;
pub mod protocol;
pub mod server;
pub mod stats;

pub use cache::{content_hash, BoundedCache, ClockCache};
pub use client::{
    request_flight_recorder, request_metrics, request_plan, request_shutdown, request_stats,
    ClientError, Connection, ServedOutcome, StatsSnapshot,
};
pub use convert::outcome_to_wire;
pub use flight::{
    merged_dump, parse_dump, CacheTier, Exemplar, FlightDump, FlightRecord, FlightRecorder,
    OutcomeClass,
};
pub use loadgen::{LoadReport, LoadgenConfig, ScenarioItem};
pub use persist::{
    config_fingerprint, open_snapshot, LoadedOutcome, SnapshotAppender, SnapshotFile,
};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, frame_into, read_frame,
    write_frame, Priority, Request, Response, ServedVia, MAX_FRAME,
};
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use stats::ServerStats;
