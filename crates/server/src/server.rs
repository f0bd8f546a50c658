//! The serving loop: a nonblocking acceptor gives each admitted
//! connection a thread of its own, which serves its frames in order; the
//! threads share one stats registry, one flight-recorder ring and one
//! outcome cache.
//!
//! Admission is per request: a plan request that must search holds one of
//! `workers` search permits through decode, compile, search and encode,
//! and the requests waiting for one are the queue depth that the priority
//! gate sheds against. Control frames, cache hits and coalesced joins
//! never wait, so an idle client costs a blocked thread, never a permit.
//! Open connections are capped at `workers + queue_cap`.
//!
//! The cache carries a single-flight table: concurrent requests for one
//! fingerprint elect a leader that runs the search while the rest join a
//! waiter list and receive the leader's encoded `SKO1` bytes when it
//! publishes — one search, N answers (the `coalesced` facet in stats).
//!
//! Control requests read that shared state directly: `Metrics` (which
//! `--stats` summarizes) exposes the live registry, and `FlightRecorder`
//! dumps the ring.
//!
//! Shutdown: every open connection is registered at accept time. When the
//! accept loop stops, their read halves are shut, so a thread blocked on
//! an idle client sees EOF at once instead of at its read timeout; a reply
//! being written still goes out.
//!
//! Determinism argument: outcomes are pure functions of (problem bytes,
//! planner config); coalesced fan-out hands every joiner the same encoded
//! bytes the leader produced; and cached replays are byte replays. So
//! per-request responses are byte-identical for every schedule, and only
//! the *timing* facets vary run to run: permit waits, latency histograms,
//! and whether a repeat joined a search in flight or hit the cache.

use crate::cache::{content_hash, ClockCache};
use crate::convert::outcome_to_wire;
use crate::flight::{CacheTier, FlightRecord, FlightRecorder, OutcomeClass};
use crate::persist::{config_fingerprint, open_snapshot, SnapshotAppender};
use crate::protocol::{
    decode_request, encode_response, frame_into, outcome_header, read_frame, write_frame, Priority,
    Request, Response, ServedVia,
};
use crate::stats::ServerStats;
use sekitei_compile::compile;
use sekitei_planner::PlannerConfig;
use sekitei_spec::{encode_outcome, WirePhase};
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Search permits: plan requests that may decode, compile, search and
    /// encode at once (`0` = one per available core).
    pub workers: usize,
    /// Admission control: while this many searches wait for a permit,
    /// `Normal` plan requests are shed (`Low` at half, `High` never); open
    /// connections are capped at `workers + queue_cap`.
    pub queue_cap: usize,
    /// Entries in the outcome cache (`0` disables it).
    pub cache_cap: usize,
    /// Planner configuration applied to every request. The serve defaults
    /// turn on a per-request deadline and graceful degradation — the two
    /// knobs that make an optimal-but-occasionally-explosive planner
    /// servable.
    pub planner: PlannerConfig,
    /// Flight-recorder capacity: the most recent this-many plan requests
    /// stay dumpable for tail-latency post-mortems.
    pub flight_cap: usize,
    /// Append-only `SKS1` outcome-cache snapshot file. When set, computed
    /// cacheable outcomes are appended as they happen and replayed on the
    /// next start (after a config-fingerprint check), so a restart keeps
    /// its warm hit rate.
    pub cache_file: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_cap: 128,
            cache_cap: 256,
            planner: PlannerConfig {
                deadline: Some(Duration::from_millis(2000)),
                degrade: true,
                ..PlannerConfig::default()
            },
            flight_cap: 4096,
            cache_file: None,
        }
    }
}

/// Flips the serving loop's stop flag; cloneable across threads.
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Ask the server to stop. Idempotent; the loop notices within a few
    /// milliseconds.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A bound planning service. [`Server::run`] blocks the calling thread
/// until a shutdown request arrives (protocol `Shutdown` frame or
/// [`ShutdownHandle::shutdown`]).
#[derive(Debug)]
pub struct Server {
    cfg: ServerConfig,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
}

/// A completed outcome in the cache: the encoded `SKO1` bytes replayed on
/// a hit, plus the content class and search size so hits can be
/// flight-recorded and classified without decoding.
struct CachedOutcome {
    sko: Vec<u8>,
    class: OutcomeClass,
    rg_nodes: u64,
}

/// A search in progress: the leader publishes into `slot` and notifies;
/// joiners wait on `done`. The leader always publishes — success or
/// error — before removing the entry from the in-flight table, so no
/// joiner can miss the result.
#[derive(Default)]
struct InFlight {
    slot: Mutex<Option<Result<Arc<CachedOutcome>, String>>>,
    done: Condvar,
}

/// Search permits free, and leaders waiting for one (the queue depth).
struct Permits {
    free: usize,
    waiting: usize,
}

/// Everything the connection threads share, borrowed for the lifetime of
/// the scope.
struct ServeState {
    /// Every open connection, by id; the accept loop shuts their reads
    /// when it stops.
    conns: Mutex<HashMap<u64, Arc<TcpStream>>>,
    permits: Mutex<Permits>,
    permit_freed: Condvar,
    stats: ServerStats,
    flight: FlightRecorder,
    outcomes: Mutex<ClockCache<Arc<CachedOutcome>>>,
    /// Single-flight table: the search in progress for each fingerprint.
    inflight: Mutex<HashMap<u64, Arc<InFlight>>>,
    stop: Arc<AtomicBool>,
    planner_cfg: PlannerConfig,
    persist: Option<SnapshotAppender>,
    queue_cap: usize,
}

impl Server {
    /// Bind to `addr` (use port 0 for an ephemeral port, then
    /// [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server { cfg, listener, stop: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.stop))
    }

    /// Serve until shutdown. Connections are served on scoped threads;
    /// returning means every one of them has exited.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let workers = if self.cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.cfg.workers
        };

        // cache persistence: replay the snapshot's valid prefix into the
        // outcome tier, then keep appending fresh computed outcomes
        let mut outcomes = ClockCache::new(self.cfg.cache_cap);
        let persist = match &self.cfg.cache_file {
            Some(path) => {
                let fp = config_fingerprint(&self.cfg.planner);
                let snap = open_snapshot(path, fp)?;
                for entry in snap.loaded {
                    outcomes.insert(
                        entry.key,
                        Arc::new(CachedOutcome {
                            sko: entry.payload,
                            class: entry.class,
                            rg_nodes: entry.rg_nodes,
                        }),
                    );
                }
                Some(snap.appender)
            }
            None => None,
        };

        let state = ServeState {
            conns: Mutex::new(HashMap::new()),
            permits: Mutex::new(Permits { free: workers, waiting: 0 }),
            permit_freed: Condvar::new(),
            stats: ServerStats::default(),
            flight: FlightRecorder::new(self.cfg.flight_cap),
            outcomes: Mutex::new(outcomes),
            inflight: Mutex::new(HashMap::new()),
            stop: Arc::clone(&self.stop),
            planner_cfg: self.cfg.planner,
            persist,
            queue_cap: self.cfg.queue_cap,
        };
        // a thread per connection: the cap keeps the server from starting
        // threads without bound
        let max_conns = workers.saturating_add(self.cfg.queue_cap);
        let mut accept_error = None;
        let mut next_id = 0u64;
        let state = &state;
        std::thread::scope(|s| {
            while !self.stop.load(Ordering::SeqCst) {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        let stream = Arc::new(stream);
                        next_id += 1;
                        let id = next_id;
                        let conn = Arc::clone(&stream);
                        let serve = move || {
                            handle_conn(state, &conn);
                            state.conns.lock().expect("connection registry poisoned").remove(&id);
                        };
                        // registered under the lock the thread needs to
                        // deregister, so it cannot finish first
                        let mut conns = state.conns.lock().expect("connection registry poisoned");
                        if conns.len() < max_conns
                            && std::thread::Builder::new().spawn_scoped(s, serve).is_ok()
                        {
                            conns.insert(id, stream);
                        } else {
                            drop(conns);
                            state.stats.record_rejected();
                            reject(&stream);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => {
                        accept_error = Some(e);
                        self.stop.store(true, Ordering::SeqCst);
                    }
                }
            }
            // EOF for every thread blocked on an idle client; replies
            // being written still go out
            for conn in state.conns.lock().expect("connection registry poisoned").values() {
                let _ = conn.shutdown(Shutdown::Read);
            }
            state.permit_freed.notify_all();
        });
        match accept_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Best-effort admission-control rejection: one frame, then drop.
fn reject(mut stream: &TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_frame(&mut stream, &encode_response(&Response::Rejected("queue full".into())));
}

/// Serve every frame on one connection, in order, until EOF (the client's,
/// or the read shutdown the accept loop issues when it stops), the idle
/// read timeout or a `Shutdown` request.
///
/// Reads go through a [`BufReader`]; responses accumulate in an
/// out-buffer that is flushed with one `write_all` when the reader has
/// no more buffered requests (i.e. just before the thread would block).
/// For a pipelined batch of K requests this is 2 syscalls instead of
/// 2K — on a single core, where the server and the kernel share the
/// CPU, that syscall count *is* the throughput ceiling.
fn handle_conn(state: &ServeState, stream: &TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut writer = stream;
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(f) => f,
            Err(_) => return, // EOF, timeout or garbage length — drop
        };
        let (payload, done) = match decode_request(&frame) {
            // Malformed frames answer an Error response and keep the
            // connection serving — a garbled control frame must never take
            // the server (or even the connection) down.
            Err(e) => (encode_response(&Response::Error(e.to_string())), false),
            Ok(Request::Metrics) => {
                let text = sekitei_obs::expose(state.stats.registry());
                (encode_response(&Response::Metrics(text)), false)
            }
            Ok(Request::FlightRecorder) => {
                (encode_response(&Response::FlightRecorder(state.flight.dump())), false)
            }
            Ok(Request::Shutdown) => {
                state.stop.store(true, Ordering::SeqCst);
                (encode_response(&Response::Bye), true)
            }
            Ok(Request::Plan { trace_id, profile, priority, problem }) => {
                (handle_plan(state, trace_id, profile, priority, &problem), false)
            }
        };
        if frame_into(&mut out, &payload).is_err() {
            return;
        }
        // flush when the client is out of pipelined requests (the next
        // read would block), when the batch is getting large, or on Bye
        if done || reader.buffer().is_empty() || out.len() >= 256 * 1024 {
            if writer.write_all(&out).is_err() {
                return;
            }
            out.clear();
        }
        if done {
            return;
        }
    }
}

/// Per-request self-time collector behind the `--profile` flag: when the
/// request asked for a profile, each pipeline stage is timed inline with
/// `Instant` (independent of the global tracing gate, so profiling one
/// request never requires turning on process-wide tracing) and shipped
/// back as an `SKP1` table next to the outcome.
struct PhaseTimes {
    enabled: bool,
    rows: Vec<WirePhase>,
}

impl PhaseTimes {
    /// Run `f`, timing it as phase `name` when profiling is on.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.rows.push(WirePhase {
            name: name.into(),
            self_ns: t.elapsed().as_nanos() as u64,
            count: 1,
        });
        out
    }
}

/// The shed threshold for a priority at a given queue cap:
/// `None` means this priority is never shed by the gate.
fn shed_threshold(priority: Priority, queue_cap: usize) -> Option<usize> {
    match priority {
        Priority::High => None,
        Priority::Normal => Some(queue_cap),
        Priority::Low => Some(queue_cap.div_ceil(2)),
    }
}

/// What the leader's compute path produced, ready to cache/publish/serve.
struct Computed {
    cached: Arc<CachedOutcome>,
    cacheable: bool,
}

/// The serving pipeline for one plan request: priority gate → outcome
/// cache → single-flight election → (leader) search permit → decode +
/// compile → search under the configured deadline, sim-validating any
/// degraded plan before it leaves the process.
/// Joiners skip everything and wait for the leader's published bytes.
/// Every path — shed, cache hit, coalesced, computed, error — lands one
/// flight record or shed count and one outcome-class count.
fn handle_plan(
    state: &ServeState,
    trace_id: u64,
    profile: bool,
    priority: Priority,
    problem_bytes: &[u8],
) -> Vec<u8> {
    let _span = sekitei_obs::span("request");
    if trace_id != 0 {
        // Tag the span tree: the event's parent is this request span, so
        // every phase span below shares the id through it.
        sekitei_obs::event("trace_id", trace_id);
    }
    let t_req = Instant::now();

    // priority gate: while searches wait for a permit, shed lower
    // priorities before doing any work for them
    if let Some(threshold) = shed_threshold(priority, state.queue_cap) {
        if state.permits.lock().expect("permit lock poisoned").waiting >= threshold {
            state.stats.record_shed(priority);
            sekitei_obs::event("queue_shed", 1);
            return encode_response(&Response::Rejected(format!(
                "queue pressure: {} priority request shed",
                match priority {
                    Priority::High => "high",
                    Priority::Normal => "normal",
                    Priority::Low => "low",
                }
            )));
        }
    }

    let key = content_hash(problem_bytes);
    let mut phases = PhaseTimes { enabled: profile, rows: Vec::new() };

    let cached =
        phases.timed("cache", || state.outcomes.lock().expect("outcome lock poisoned").get(key));
    if let Some(c) = cached {
        sekitei_obs::event("outcome_cache_hit", 1);
        state.stats.record_cache_hit();
        return serve_cached_bytes(state, &c, ServedVia::Cache, trace_id, key, t_req, &phases.rows);
    }

    // single-flight election: first request for a fingerprint leads, the
    // rest join its waiter list and fan out the leader's bytes
    let flight_entry = {
        let mut inflight = state.inflight.lock().expect("in-flight lock poisoned");
        match inflight.get(&key) {
            Some(f) => {
                let f = Arc::clone(f);
                drop(inflight);
                sekitei_obs::event("coalesced_join", 1);
                return match wait_for_leader(&f, &state.stop) {
                    Some(Ok(c)) => {
                        state.stats.record_coalesced();
                        serve_cached_bytes(
                            state,
                            &c,
                            ServedVia::Coalesced,
                            trace_id,
                            key,
                            t_req,
                            &phases.rows,
                        )
                    }
                    Some(Err(msg)) => plan_error(state, trace_id, key, 0, t_req, &msg),
                    None => plan_error(state, trace_id, key, 0, t_req, "server shutting down"),
                };
            }
            None => {
                let f = Arc::new(InFlight::default());
                inflight.insert(key, Arc::clone(&f));
                f
            }
        }
    };

    // leader: wait for a search permit (after the election, so requests
    // arriving meanwhile join), run the compute path, then publish —
    // success or error — *after* the cache insert, so a request arriving
    // as the in-flight entry disappears finds the outcome in the cache
    let t_wait = Instant::now();
    let permit = phases.timed("queue_wait", || acquire_permit(state));
    let queue_wait_us = t_wait.elapsed().as_micros() as u64;
    sekitei_obs::event("queue_wait_us", queue_wait_us);
    let computed = match permit {
        Some(_permit) => compute_plan(state, &mut phases, problem_bytes, t_req),
        None => Err("server shutting down".to_string()),
    };
    match computed {
        Ok(computed) => {
            if computed.cacheable {
                state
                    .outcomes
                    .lock()
                    .expect("outcome lock poisoned")
                    .insert(key, Arc::clone(&computed.cached));
                if let Some(p) = &state.persist {
                    p.append(
                        key,
                        computed.cached.class,
                        computed.cached.rg_nodes,
                        &computed.cached.sko,
                    );
                }
            }
            publish(state, &flight_entry, key, Ok(Arc::clone(&computed.cached)));
            let class = computed.cached.class;
            state.stats.record_class(class);
            state.stats.record_queue_wait(queue_wait_us);
            let latency_us = t_req.elapsed().as_micros() as u64;
            state.stats.record_served(latency_us);
            state.flight.record(FlightRecord {
                seq: 0,
                trace_id,
                fingerprint: key,
                class,
                tier: CacheTier::Full,
                queue_wait_us,
                rg_nodes: computed.cached.rg_nodes,
                latency_us,
            });
            let mut payload = outcome_header(ServedVia::Computed, trace_id, &phases.rows);
            payload.extend_from_slice(&computed.cached.sko);
            payload
        }
        Err(msg) => {
            publish(state, &flight_entry, key, Err(msg.clone()));
            plan_error(state, trace_id, key, queue_wait_us, t_req, &msg)
        }
    }
}

/// A held search permit; dropping it frees the permit and wakes a waiter.
struct Permit<'a>(&'a ServeState);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        // the counters are valid after every update, even behind a poison
        let mut p = self.0.permits.lock().unwrap_or_else(PoisonError::into_inner);
        p.free += 1;
        if p.waiting > 0 {
            self.0.permit_freed.notify_one();
        }
    }
}

/// Leader wait for a search permit, counted in the queue depth. Returns
/// `None` only on shutdown, polling the stop flag as [`wait_for_leader`] does.
fn acquire_permit(state: &ServeState) -> Option<Permit<'_>> {
    let mut p = state.permits.lock().expect("permit lock poisoned");
    if p.free == 0 {
        p.waiting += 1;
        state.stats.set_queue_depth(p.waiting);
        while p.free == 0 && !state.stop.load(Ordering::SeqCst) {
            let (guard, _) = state
                .permit_freed
                .wait_timeout(p, Duration::from_millis(50))
                .expect("permit lock poisoned");
            p = guard;
        }
        p.waiting -= 1;
        state.stats.set_queue_depth(p.waiting);
        if p.free == 0 {
            return None;
        }
    }
    p.free -= 1;
    Some(Permit(state))
}

/// Leader publication: set the slot, wake every joiner, then retire the
/// in-flight entry. This order leaves no window where a joiner holds the
/// entry but can never see a result.
fn publish(
    state: &ServeState,
    f: &Arc<InFlight>,
    key: u64,
    result: Result<Arc<CachedOutcome>, String>,
) {
    *f.slot.lock().unwrap() = Some(result);
    f.done.notify_all();
    state.inflight.lock().expect("in-flight lock poisoned").remove(&key);
}

/// Joiner wait: block until the leader publishes. Returns `None` only on
/// shutdown (the leader always publishes, even its errors).
fn wait_for_leader(f: &InFlight, stop: &AtomicBool) -> Option<Result<Arc<CachedOutcome>, String>> {
    let mut slot = f.slot.lock().unwrap();
    loop {
        if let Some(result) = slot.as_ref() {
            return Some(result.clone());
        }
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        let (guard, _) = f.done.wait_timeout(slot, Duration::from_millis(50)).unwrap();
        slot = guard;
    }
}

/// Answer a request from already-encoded outcome bytes (outcome-cache hit
/// or coalesced fan-out, never a permit wait): class partition records
/// `Cached` — how the request was *answered* — while the flight record
/// keeps the cached outcome's content class.
fn serve_cached_bytes(
    state: &ServeState,
    c: &CachedOutcome,
    via: ServedVia,
    trace_id: u64,
    key: u64,
    t_req: Instant,
    phase_rows: &[WirePhase],
) -> Vec<u8> {
    state.stats.record_class(OutcomeClass::Cached);
    state.stats.record_queue_wait(0);
    let latency_us = t_req.elapsed().as_micros() as u64;
    state.stats.record_served(latency_us);
    state.flight.record(FlightRecord {
        seq: 0,
        trace_id,
        fingerprint: key,
        class: c.class,
        tier: CacheTier::Outcome,
        queue_wait_us: 0,
        rg_nodes: c.rg_nodes,
        latency_us,
    });
    let mut payload = outcome_header(via, trace_id, phase_rows);
    payload.extend_from_slice(&c.sko);
    payload
}

/// The leader's compute path: decode and compile the problem into a task
/// this request owns, then search it under the configured deadline,
/// sim-validating any degraded plan before it leaves the process.
fn compute_plan(
    state: &ServeState,
    phases: &mut PhaseTimes,
    problem_bytes: &[u8],
    t_req: Instant,
) -> Result<Computed, String> {
    let decoded = phases.timed("decode", || {
        let _g = sekitei_obs::span("decode");
        sekitei_spec::decode(problem_bytes)
    });
    let problem = decoded.map_err(|e| e.to_string())?;
    // compile() opens its own "compile" span under this request
    let task = phases.timed("compile", || compile(&problem)).map_err(|e| e.to_string())?;
    sekitei_obs::event("cache_miss", 1);
    state.stats.record_cache_miss();

    // `t_req` anchors both the reported total time and the deadline, so
    // decode and compile count against the search budget
    let (outcome, incumbent_used) = phases.timed("search", || {
        let _g = sekitei_obs::span("search");
        let a = sekitei_anytime::plan_task(&problem, task, &state.planner_cfg, t_req);
        (a.outcome, a.incumbent_used)
    });
    let mut wire = outcome_to_wire(&outcome);
    if incumbent_used {
        // the incumbent already passed the full simulator inside the lane;
        // count degraded service when its sources bound at relaxed values
        if outcome.plan.as_ref().is_some_and(|p| p.degraded) {
            state.stats.record_degraded();
        }
    } else if outcome.plan.as_ref().is_some_and(|p| p.degraded) {
        let report = phases.timed("validate", || {
            let _g = sekitei_obs::span("validate");
            let plan = outcome.plan.as_ref().expect("checked above");
            sekitei_sim::validate_plan(&problem, &outcome.task, plan)
        });
        if report.ok {
            state.stats.record_degraded();
        } else {
            // never ship a degraded plan the simulator rejects — fall back
            // to bound-only, which is still a useful answer. The gap and
            // certificate describe the dropped plan, so they go with it.
            wire.plan = None;
            wire.optimality_gap = None;
            wire.certificate = None;
        }
    }
    let sko = phases.timed("encode", || {
        let _g = sekitei_obs::span("encode");
        encode_outcome(&wire).to_vec()
    });
    let class = OutcomeClass::of_outcome(&wire);
    // outcomes are deterministic unless the wall clock cut the search
    // short: node- and reject-budget exhaustion is a pure function of
    // the problem and config, so those outcomes cache and replay
    // soundly — only deadline-tripped ones depend on timing luck.
    // (Deadline outcomes still fan out to coalesced joiners: they asked
    // for the same problem *now*, and this is the answer "now" produced.)
    let cacheable = !outcome.stats.deadline_hit;
    Ok(Computed {
        cached: Arc::new(CachedOutcome { sko, class, rg_nodes: wire.stats.rg_nodes }),
        cacheable,
    })
}

/// A failed plan request still lands in the telemetry plane: one
/// `class_error` count, one queue-wait sample and one flight record, then
/// the error response.
fn plan_error(
    state: &ServeState,
    trace_id: u64,
    fingerprint: u64,
    queue_wait_us: u64,
    t_req: Instant,
    msg: &str,
) -> Vec<u8> {
    state.stats.record_class(OutcomeClass::Error);
    state.stats.record_queue_wait(queue_wait_us);
    state.flight.record(FlightRecord {
        seq: 0,
        trace_id,
        fingerprint,
        class: OutcomeClass::Error,
        tier: CacheTier::Full,
        queue_wait_us,
        rg_nodes: 0,
        latency_us: t_req.elapsed().as_micros() as u64,
    });
    encode_response(&Response::Error(msg.to_string()))
}
