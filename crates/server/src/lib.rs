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
//! - [`cache`] — one content-addressed cache of completed outcomes keyed
//!   by the hash of the encoded problem, under CLOCK eviction; a hit
//!   skips decode, compile and search.
//! - [`persist`] — an append-only checksummed snapshot of the outcome
//!   tier (`SKS1`), replayed on start so a restart keeps its warm hit
//!   rate.
//! - [`server`] — a nonblocking acceptor giving each connection a thread
//!   of its own, with searches bounded by a pool of permits; the threads
//!   share one cache with single-flight request coalescing, one stats
//!   registry and one flight ring; every request plans under a wall-clock
//!   deadline with graceful degradation and priority-aware shedding.
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

pub use cache::{content_hash, ClockCache};
pub use client::{
    request_flight_recorder, request_metrics, request_plan, request_shutdown, request_stats,
    ClientError, Connection, ServedOutcome, StatsSnapshot,
};
pub use convert::outcome_to_wire;
pub use flight::{
    parse_dump, CacheTier, Exemplar, FlightDump, FlightRecord, FlightRecorder, OutcomeClass,
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
