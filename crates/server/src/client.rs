//! Blocking client helpers: one request/response exchange per call, or a
//! persistent [`Connection`] for request streams.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, Priority, Request, Response,
    ServedVia,
};
use sekitei_model::CppProblem;
use sekitei_obs::Exposition;
use sekitei_spec::{SpecError, WireOutcome, WirePhase};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// Malformed response bytes.
    Protocol(SpecError),
    /// The server's admission control turned the request away.
    Rejected(String),
    /// The server reported a request failure.
    Server(String),
    /// The server answered with a response kind this call cannot use.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Rejected(m) => write!(f, "rejected: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(k) => write!(f, "unexpected response kind: {k}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<SpecError> for ClientError {
    fn from(e: SpecError) -> Self {
        ClientError::Protocol(e)
    }
}

/// A persistent connection to a planning server. Requests on one
/// connection are served in order by one server thread; open several
/// connections for parallelism.
#[derive(Debug)]
pub struct Connection {
    stream: TcpStream,
}

impl Connection {
    /// Connect to `addr` with sane read/write timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(60)))?;
        Ok(Connection { stream })
    }

    /// One request/response exchange.
    pub fn exchange(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let frame = read_frame(&mut self.stream)?;
        Ok(decode_response(&frame)?)
    }

    /// Plan an already-wire-encoded (`SKT1`) problem. Returns the outcome
    /// and how the server served it (computed, cached, or coalesced onto
    /// a concurrent search).
    pub fn plan_bytes(&mut self, problem: &[u8]) -> Result<(WireOutcome, ServedVia), ClientError> {
        let served = self.plan_bytes_traced(problem, 0, false, Priority::Normal)?;
        Ok((served.outcome, served.served_via))
    }

    /// Plan already-encoded problem bytes carrying a trace id and
    /// priority class, optionally asking the server for its per-phase
    /// self-time table.
    pub fn plan_bytes_traced(
        &mut self,
        problem: &[u8],
        trace_id: u64,
        profile: bool,
        priority: Priority,
    ) -> Result<ServedOutcome, ClientError> {
        let req = Request::Plan { trace_id, profile, priority, problem: problem.to_vec() };
        match self.exchange(&req)? {
            Response::Outcome { served_via, trace_id, phases, outcome } => {
                Ok(ServedOutcome { outcome, served_via, trace_id, phases })
            }
            Response::Rejected(m) => Err(ClientError::Rejected(m)),
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("non-outcome")),
        }
    }

    /// Plan a problem.
    pub fn plan(&mut self, problem: &CppProblem) -> Result<(WireOutcome, ServedVia), ClientError> {
        self.plan_bytes(&sekitei_spec::encode(problem))
    }

    /// Fetch the serving counters, summarized from the metrics exposition.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let text = self.metrics()?;
        sekitei_obs::parse_exposition(&text)
            .and_then(|e| StatsSnapshot::from_exposition(&e))
            .map_err(|e| ClientError::Protocol(SpecError::wire(format!("metrics: {e}"))))
    }

    /// Fetch the live metrics exposition text (scrape without restart).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.exchange(&Request::Metrics)? {
            Response::Metrics(text) => Ok(text),
            Response::Rejected(m) => Err(ClientError::Rejected(m)),
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("non-metrics")),
        }
    }

    /// Fetch the flight-recorder dump text.
    pub fn flight_recorder(&mut self) -> Result<String, ClientError> {
        match self.exchange(&Request::FlightRecorder)? {
            Response::FlightRecorder(text) => Ok(text),
            Response::Rejected(m) => Err(ClientError::Rejected(m)),
            Response::Error(m) => Err(ClientError::Server(m)),
            _ => Err(ClientError::Unexpected("non-flight")),
        }
    }
}

/// The serving counters as `sekitei request --stats` prints them: a
/// client-side summary of the server's metrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Plan requests answered: cache hits, coalesced joins and searches,
    /// degraded plans included.
    pub served: u64,
    /// Requests answered straight from the outcome cache.
    pub cache_hits: u64,
    /// Requests that paid the full decode + compile + search path.
    pub cache_misses: u64,
    /// Responses served through the graceful-degradation path.
    pub degraded: u64,
    /// Requests answered by joining an in-flight search for the same
    /// fingerprint (single-flight coalescing): one search ran, its
    /// encoded bytes fanned out to these joiners.
    pub coalesced: u64,
    /// Connections turned away by admission control (connection cap).
    pub rejected: u64,
    /// Plan requests shed by the priority gate while searches wait for a
    /// permit (answered `Rejected` without running the planner).
    pub queue_shed: u64,
    /// Median plan latency since startup, microseconds (histogram bucket
    /// lower bound; see `sekitei_obs::HistogramSnapshot::quantile`).
    pub p50_us: u64,
    /// 95th-percentile plan latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile plan latency, microseconds.
    pub p99_us: u64,
    /// Slowest plan latency observed, microseconds.
    pub max_us: u64,
    /// Median time plan requests waited for a search permit (0 when
    /// answered from encoded bytes), microseconds.
    pub queue_p50_us: u64,
    /// 99th-percentile permit wait, microseconds.
    pub queue_p99_us: u64,
    /// Outcome-class partition of served plan requests: each request lands
    /// in exactly one class (precedence: error > cached > deadline_hit >
    /// budget_exhausted > degraded > exact), so these six sum to the plan
    /// requests handled. `exact` includes proven-infeasible answers — "no
    /// plan exists" is an exact result.
    pub class_exact: u64,
    /// Computed plans served through the graceful-degradation path.
    pub class_degraded: u64,
    /// Requests answered from encoded bytes without a search: outcome-cache
    /// hits plus coalesced joins (`cache_hits + coalesced`).
    pub class_cached: u64,
    /// Computed outcomes that exhausted a search budget (non-deadline).
    pub class_budget_exhausted: u64,
    /// Computed outcomes cut short by the wall-clock deadline.
    pub class_deadline_hit: u64,
    /// Plan requests answered with an error response.
    pub class_error: u64,
}

impl StatsSnapshot {
    /// Summarize a parsed metrics exposition. Counters are read by their
    /// registry names; percentiles are histogram bucket lower bounds and
    /// `max_us` the histogram's exact maximum. A metric the exposition
    /// lacks is an error naming it, never a silent 0.
    pub fn from_exposition(e: &Exposition) -> Result<StatsSnapshot, String> {
        let counter = |name| e.counters.get(name).copied().ok_or(format!("no counter {name}"));
        let histogram = |name| e.histograms.get(name).ok_or(format!("no histogram {name}"));
        let (latency, queue_wait) = (histogram("latency_us")?, histogram("queue_wait_us")?);
        Ok(StatsSnapshot {
            served: counter("served")?,
            cache_hits: counter("cache_hits")?,
            cache_misses: counter("cache_misses")?,
            degraded: counter("degraded")?,
            coalesced: counter("coalesced")?,
            rejected: counter("rejected")?,
            queue_shed: counter("queue_shed")?,
            p50_us: latency.quantile(0.50),
            p95_us: latency.quantile(0.95),
            p99_us: latency.quantile(0.99),
            max_us: latency.max,
            queue_p50_us: queue_wait.quantile(0.50),
            queue_p99_us: queue_wait.quantile(0.99),
            class_exact: counter("class_exact")?,
            class_degraded: counter("class_degraded")?,
            class_cached: counter("class_cached")?,
            class_budget_exhausted: counter("class_budget_exhausted")?,
            class_deadline_hit: counter("class_deadline_hit")?,
            class_error: counter("class_error")?,
        })
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served {} (cache {} / full {}), degraded {}, coalesced {}, \
             rejected {}, shed {}, \
             latency p50 {}µs p95 {}µs p99 {}µs max {}µs, queue p50 {}µs p99 {}µs, \
             classes exact {} / degraded {} / cached {} / budget_exhausted {} / \
             deadline_hit {} / error {}",
            self.served,
            self.cache_hits,
            self.cache_misses,
            self.degraded,
            self.coalesced,
            self.rejected,
            self.queue_shed,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
            self.queue_p50_us,
            self.queue_p99_us,
            self.class_exact,
            self.class_degraded,
            self.class_cached,
            self.class_budget_exhausted,
            self.class_deadline_hit,
            self.class_error,
        )
    }
}

/// A full outcome response: payload plus the telemetry envelope.
#[derive(Debug, Clone)]
pub struct ServedOutcome {
    /// The planning outcome.
    pub outcome: WireOutcome,
    /// How the server answered: a fresh search, an outcome-cache replay,
    /// or a coalesced join onto a concurrent identical request.
    pub served_via: ServedVia,
    /// Echo of the request's trace id.
    pub trace_id: u64,
    /// Server per-phase self-times (empty unless `profile` was requested).
    pub phases: Vec<WirePhase>,
}

/// One-shot: plan `problem` against the server at `addr`.
pub fn request_plan(
    addr: impl ToSocketAddrs,
    problem: &CppProblem,
) -> Result<(WireOutcome, ServedVia), ClientError> {
    Connection::connect(addr)?.plan(problem)
}

/// One-shot: fetch the serving counters.
pub fn request_stats(addr: impl ToSocketAddrs) -> Result<StatsSnapshot, ClientError> {
    Connection::connect(addr)?.stats()
}

/// One-shot: fetch the live metrics exposition text.
pub fn request_metrics(addr: impl ToSocketAddrs) -> Result<String, ClientError> {
    Connection::connect(addr)?.metrics()
}

/// One-shot: fetch the flight-recorder dump text.
pub fn request_flight_recorder(addr: impl ToSocketAddrs) -> Result<String, ClientError> {
    Connection::connect(addr)?.flight_recorder()
}

/// One-shot: ask the server to shut down. `Ok` once the server
/// acknowledges.
pub fn request_shutdown(addr: impl ToSocketAddrs) -> Result<(), ClientError> {
    match Connection::connect(addr)?.exchange(&Request::Shutdown)? {
        Response::Bye => Ok(()),
        Response::Rejected(m) => Err(ClientError::Rejected(m)),
        Response::Error(m) => Err(ClientError::Server(m)),
        _ => Err(ClientError::Unexpected("non-bye")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_display_carries_greppable_facets() {
        let snap = StatsSnapshot {
            served: 10,
            coalesced: 2,
            rejected: 2,
            queue_shed: 1,
            ..StatsSnapshot::default()
        };
        let text = snap.to_string();
        for token in ["coalesced 2", "shed 1", "rejected 2", "served 10"] {
            assert!(text.contains(token), "missing {token:?} in {text:?}");
        }
    }

    #[test]
    fn missing_metric_is_named_not_zeroed() {
        let text = sekitei_obs::expose(crate::ServerStats::default().registry());
        let full = sekitei_obs::parse_exposition(&text).unwrap();
        assert_eq!(StatsSnapshot::from_exposition(&full), Ok(StatsSnapshot::default()));
        let (mut no_counter, mut no_histogram) = (full.clone(), full);
        no_counter.counters.remove("coalesced");
        no_histogram.histograms.remove("latency_us");
        let err = |e| StatsSnapshot::from_exposition(e).unwrap_err();
        assert_eq!(err(&no_counter), "no counter coalesced");
        assert_eq!(err(&no_histogram), "no histogram latency_us");
    }
}
