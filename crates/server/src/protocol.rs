//! Length-prefixed framing and the request/response envelopes of the
//! planning service.
//!
//! A frame is a big-endian `u32` payload length followed by the payload,
//! capped at [`MAX_FRAME`] bytes. The first payload byte is an envelope
//! tag; plan requests carry a `spec::wire`-encoded problem (`SKT1`) and
//! plan responses carry a `spec::wire`-encoded outcome (`SKO1`), so the
//! heavy payloads reuse the existing codecs unchanged. Envelopes are
//! written and read with [`sekitei_model::codec`], like the payloads.

use sekitei_model::codec::{DecodeError, Reader, Writer};
use sekitei_spec::{
    decode_outcome, decode_phases, encode_outcome, encode_phases, SpecError, WireOutcome, WirePhase,
};
use std::io::{self, Read, Write};

/// Hard cap on a single frame: 16 MiB. Large/D problems encode under
/// 32 KiB, so this is generous headroom while still rejecting a hostile
/// length prefix before allocating.
pub const MAX_FRAME: u32 = 1 << 24;

/// Append one length-prefixed frame to an in-memory buffer without any
/// I/O. The server batches all replies for a pipelined read burst
/// through this and flushes them with a single `write_all`, which is the
/// difference between ~2 syscalls and ~2·batch syscalls per burst.
pub fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) -> io::Result<()> {
    if payload.len() as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    buf.reserve(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    Ok(())
}

/// Write one length-prefixed frame. Prefix and payload go out in a single
/// `write_all` — two small writes on a raw socket interact badly with
/// Nagle + delayed ACK (~40ms stall per direction).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut framed = Vec::new();
    frame_into(&mut framed, payload)?;
    w.write_all(&framed)?;
    w.flush()
}

/// Read one length-prefixed frame. Errors on a truncated prefix, a
/// truncated payload, or an oversized length.
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let len = u32::from_be_bytes(len4);
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized frame"));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Admission-control priority of a plan request. Under queue pressure
/// the server sheds low-priority requests first: `Low` sheds once the
/// searches waiting for a permit reach half the queue cap, `Normal` once
/// they reach the cap, `High` never (only the connection cap turns a
/// connection away).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Never shed by the priority gate.
    High,
    /// Shed only when the queue of waiting searches is completely full.
    #[default]
    Normal,
    /// Shed once the queue of waiting searches is half full.
    Low,
}

impl Priority {
    /// Stable wire ordinal.
    pub fn as_u8(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Plan the `spec::wire`-encoded (`SKT1`) problem carried verbatim —
    /// the server hashes these bytes as the cache key before decoding.
    Plan {
        /// Client-assigned trace/request id, echoed in the outcome
        /// response and tagged onto every server-side span/event and
        /// flight-recorder record for this request. `0` means the client
        /// did not assign one.
        trace_id: u64,
        /// Ask the server to return its per-phase self-time table
        /// (`SKP1`) alongside the outcome.
        profile: bool,
        /// Admission-control priority; under queue pressure lower
        /// priorities shed first.
        priority: Priority,
        /// The `SKT1` problem bytes.
        problem: Vec<u8>,
    },
    /// Stop accepting connections and shut the service down.
    Shutdown,
    /// Return the full metrics registry in text exposition form
    /// (`sekitei_obs::expo`), so a live server can be scraped.
    Metrics,
    /// Return the flight-recorder dump: the bounded ring of recent
    /// per-request records plus per-latency-bucket exemplars.
    FlightRecorder,
}

// Tag 1, the retired fixed-word stats frame, stays unassigned both ways.
const REQ_PLAN: u8 = 0;
const REQ_SHUTDOWN: u8 = 2;
const REQ_METRICS: u8 = 3;
const REQ_FLIGHT: u8 = 4;

/// Plan-request flag bit: the client wants the per-phase profile back.
const PLAN_FLAG_PROFILE: u8 = 1;

/// Encode a request payload.
pub fn encode_request(r: &Request) -> Vec<u8> {
    match r {
        Request::Plan { trace_id, profile, priority, problem } => {
            let mut w = Writer::with_capacity(11 + problem.len());
            w.u8(REQ_PLAN);
            w.u64(*trace_id);
            w.u8(if *profile { PLAN_FLAG_PROFILE } else { 0 });
            w.u8(priority.as_u8());
            w.bytes(problem);
            w.into_vec()
        }
        Request::Shutdown => vec![REQ_SHUTDOWN],
        Request::Metrics => vec![REQ_METRICS],
        Request::FlightRecorder => vec![REQ_FLIGHT],
    }
}

/// Decode a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, SpecError> {
    let mut r = Reader::new(payload);
    let request = match r.u8()? {
        REQ_PLAN => {
            let trace_id = r.u64()?;
            let flags = r.u8()?;
            if flags & !PLAN_FLAG_PROFILE != 0 {
                return Err(SpecError::wire(format!("bad plan flags {flags:#x}")));
            }
            let priority =
                r.tag("plan priority", &[Priority::High, Priority::Normal, Priority::Low])?;
            let problem = r.rest().to_vec();
            if problem.is_empty() {
                return Err(SpecError::wire("empty plan request"));
            }
            Request::Plan { trace_id, profile: flags & PLAN_FLAG_PROFILE != 0, priority, problem }
        }
        REQ_SHUTDOWN => Request::Shutdown,
        REQ_METRICS => Request::Metrics,
        REQ_FLIGHT => Request::FlightRecorder,
        tag => return Err(DecodeError::BadTag { field: "request", tag }.into()),
    };
    r.finish()?;
    Ok(request)
}

/// How an outcome response was produced, as reported in the response
/// header. Distinguishes a fresh search, an outcome-cache replay, and a
/// single-flight fan-out (joined another request's in-flight search).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedVia {
    /// The planner ran for this request.
    Computed,
    /// Replayed from the outcome cache without running the planner.
    Cache,
    /// Joined an in-flight search for the same fingerprint; the leader's
    /// encoded bytes were fanned out to this request.
    Coalesced,
}

impl ServedVia {
    /// True for any path that avoided running the planner fresh
    /// (cache replay or coalesced fan-out).
    pub fn is_warm(self) -> bool {
        !matches!(self, ServedVia::Computed)
    }

    /// Stable wire ordinal.
    pub fn as_u8(self) -> u8 {
        match self {
            ServedVia::Computed => 0,
            ServedVia::Cache => 1,
            ServedVia::Coalesced => 2,
        }
    }
}

impl std::fmt::Display for ServedVia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ServedVia::Computed => "computed",
            ServedVia::Cache => "cache",
            ServedVia::Coalesced => "coalesced",
        })
    }
}

/// A server response.
// Boxing the large `Outcome` would cost every plan reply an allocation
// and break callers that keep decoded outcomes by value.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A planning outcome; `served_via` reports whether it came from a
    /// fresh search, the outcome cache, or a coalesced in-flight search.
    Outcome {
        /// How the outcome was produced.
        served_via: ServedVia,
        /// Echo of the request's trace id (0 if none was assigned).
        trace_id: u64,
        /// Per-phase self-time table, present only when the request asked
        /// for a profile. Always fresh — cached outcomes replay the SKO1
        /// bytes but the profile describes *this* request's handling.
        phases: Vec<WirePhase>,
        /// The outcome payload.
        outcome: WireOutcome,
    },
    /// Admission control turned the request away.
    Rejected(String),
    /// The request failed (malformed problem, compile error, …).
    Error(String),
    /// Shutdown acknowledged; the connection closes after this frame.
    Bye,
    /// The metrics registry in text exposition form.
    Metrics(String),
    /// The flight-recorder dump in its text form.
    FlightRecorder(String),
}

pub(crate) const RESP_OUTCOME: u8 = 0;
const RESP_REJECTED: u8 = 2;
const RESP_ERROR: u8 = 3;
const RESP_BYE: u8 = 4;
const RESP_METRICS: u8 = 5;
const RESP_FLIGHT: u8 = 6;

/// Build the `RESP_OUTCOME` payload header (everything before the `SKO1`
/// bytes): served-via byte, trace-id echo, and the length-prefixed `SKP1`
/// phase table (length 0 when no profile was requested). Shared with the
/// server's cached-bytes fast path, which appends pre-encoded outcome
/// bytes instead of re-encoding.
pub(crate) fn outcome_header(
    served_via: ServedVia,
    trace_id: u64,
    phases: &[WirePhase],
) -> Vec<u8> {
    let phase_blob = (!phases.is_empty()).then(|| encode_phases(phases));
    let phase_blob = phase_blob.as_deref().unwrap_or_default();
    let mut w = Writer::with_capacity(14 + phase_blob.len());
    w.u8(RESP_OUTCOME);
    w.u8(served_via.as_u8());
    w.u64(trace_id);
    w.prefixed(phase_blob);
    w.into_vec()
}

/// A text response: its tag, then the length-prefixed UTF-8 text.
fn text_response(tag: u8, text: &str) -> Vec<u8> {
    let mut w = Writer::with_capacity(5 + text.len());
    w.u8(tag);
    w.str(text);
    w.into_vec()
}

/// Encode a response payload.
pub fn encode_response(r: &Response) -> Vec<u8> {
    match r {
        Response::Outcome { served_via, trace_id, phases, outcome } => {
            let mut b = outcome_header(*served_via, *trace_id, phases);
            b.extend_from_slice(&encode_outcome(outcome));
            b
        }
        Response::Rejected(msg) => text_response(RESP_REJECTED, msg),
        Response::Error(msg) => text_response(RESP_ERROR, msg),
        Response::Bye => vec![RESP_BYE],
        Response::Metrics(text) => text_response(RESP_METRICS, text),
        Response::FlightRecorder(text) => text_response(RESP_FLIGHT, text),
    }
}

/// Decode a response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, SpecError> {
    const MAX_TEXT: usize = MAX_FRAME as usize;
    let mut r = Reader::new(payload);
    let response = match r.u8()? {
        RESP_OUTCOME => {
            let served_via = r.tag(
                "served-via",
                &[ServedVia::Computed, ServedVia::Cache, ServedVia::Coalesced],
            )?;
            let trace_id = r.u64()?;
            let phase_blob = r.prefixed(MAX_TEXT)?;
            let phases =
                if phase_blob.is_empty() { Vec::new() } else { decode_phases(phase_blob)? };
            Response::Outcome { served_via, trace_id, phases, outcome: decode_outcome(r.rest())? }
        }
        RESP_REJECTED => Response::Rejected(r.str(MAX_TEXT)?),
        RESP_ERROR => Response::Error(r.str(MAX_TEXT)?),
        RESP_BYE => Response::Bye,
        RESP_METRICS => Response::Metrics(r.str(MAX_TEXT)?),
        RESP_FLIGHT => Response::FlightRecorder(r.str(MAX_TEXT)?),
        tag => return Err(DecodeError::BadTag { field: "response", tag }.into()),
    };
    r.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert!(read_frame(&mut r).is_err()); // clean EOF surfaces as error
    }

    #[test]
    fn frame_rejects_truncated_prefix_and_payload() {
        // truncated length prefix
        for cut in 0..4 {
            let mut r = &b"\x00\x00\x00"[..cut];
            assert!(read_frame(&mut r).is_err());
        }
        // length promises more than arrives
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        for cut in 4..buf.len() {
            let mut r = &buf[..cut];
            assert!(read_frame(&mut r).is_err(), "prefix of {cut} bytes read");
        }
    }

    #[test]
    fn frame_into_matches_write_frame_bytes() {
        let mut streamed = Vec::new();
        write_frame(&mut streamed, b"abc").unwrap();
        let mut buffered = Vec::new();
        frame_into(&mut buffered, b"abc").unwrap();
        assert_eq!(streamed, buffered);
        // batched frames concatenate and read back in order
        frame_into(&mut buffered, b"").unwrap();
        frame_into(&mut buffered, b"xyz").unwrap();
        let mut r = &buffered[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"abc");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), b"xyz");
    }

    #[test]
    fn frame_rejects_oversized_length() {
        let big = (MAX_FRAME + 1).to_be_bytes();
        let mut r = &big[..];
        assert!(read_frame(&mut r).is_err());
        let mut w = Vec::new();
        assert!(write_frame(&mut w, &vec![0u8; MAX_FRAME as usize + 1]).is_err());
    }

    #[test]
    fn request_roundtrip() {
        let problem = sekitei_spec::encode(&scenarios::tiny(LevelScenario::B)).to_vec();
        for r in [
            Request::Plan {
                trace_id: 0,
                profile: false,
                priority: Priority::Normal,
                problem: problem.clone(),
            },
            Request::Plan {
                trace_id: 0xDEAD_BEEF_0042_1177,
                profile: true,
                priority: Priority::High,
                problem: problem.clone(),
            },
            Request::Plan { trace_id: 7, profile: false, priority: Priority::Low, problem },
            Request::Shutdown,
            Request::Metrics,
            Request::FlightRecorder,
        ] {
            assert_eq!(decode_request(&encode_request(&r)).unwrap(), r);
        }
    }

    #[test]
    fn request_rejects_malformed() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[9]).is_err());
        assert!(decode_request(&[REQ_PLAN]).is_err()); // plan with no header
                                                       // header but no problem body
        let mut header_only = vec![REQ_PLAN];
        header_only.extend_from_slice(&7u64.to_be_bytes());
        header_only.push(0); // flags
        header_only.push(1); // priority
        assert!(decode_request(&header_only).is_err());
        // undefined flag bits
        let mut bad_flags = header_only.clone();
        bad_flags[9] = 0x80;
        bad_flags.push(1); // non-empty body so only the flags are at fault
        assert!(decode_request(&bad_flags).is_err());
        // undefined priority ordinal
        let mut bad_priority = header_only.clone();
        bad_priority[10] = 3;
        bad_priority.push(1);
        assert!(decode_request(&bad_priority).is_err());
        // v1-style 9-byte header (no priority byte) with a body must not
        // silently decode — the first body byte would be read as priority,
        // and SKT1 problems start with 'S' (0x53), not a valid ordinal
        let mut v1_style = vec![REQ_PLAN];
        v1_style.extend_from_slice(&7u64.to_be_bytes());
        v1_style.push(0);
        v1_style.extend_from_slice(b"SKT1");
        assert!(decode_request(&v1_style).is_err());
        // control requests reject trailing bytes
        assert!(decode_request(&[REQ_METRICS, 0]).is_err());
        assert!(decode_request(&[REQ_FLIGHT, 0]).is_err());
    }

    #[test]
    fn response_roundtrip() {
        let outcome = WireOutcome {
            plan: None,
            best_bound: Some(2.5),
            optimality_gap: None,
            stats: Default::default(),
            certificate: None,
        };
        let phases = vec![
            WirePhase { name: "queue_wait".into(), self_ns: 900, count: 1 },
            WirePhase { name: "search".into(), self_ns: 44_000, count: 1 },
        ];
        for r in [
            Response::Outcome {
                served_via: ServedVia::Cache,
                trace_id: 71,
                phases: vec![],
                outcome: outcome.clone(),
            },
            Response::Outcome {
                served_via: ServedVia::Coalesced,
                trace_id: 17,
                phases: vec![],
                outcome: outcome.clone(),
            },
            Response::Outcome { served_via: ServedVia::Computed, trace_id: 0, phases, outcome },
            Response::Rejected("queue full".into()),
            Response::Error("bad magic".into()),
            Response::Bye,
            Response::Metrics("# sekitei-metrics v1\n# end sekitei-metrics\n".into()),
            Response::FlightRecorder("# sekitei-flight v1\n# end sekitei-flight\n".into()),
        ] {
            assert_eq!(decode_response(&encode_response(&r)).unwrap(), r);
        }
    }

    #[test]
    fn response_rejects_malformed() {
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[99]).is_err());
        assert!(decode_response(&[RESP_OUTCOME]).is_err());
        // full header but bad served-via byte (3 is past Coalesced)
        let mut bad_flag = vec![RESP_OUTCOME, 3];
        bad_flag.extend_from_slice(&[0u8; 12]);
        assert!(decode_response(&bad_flag).is_err());
        // phase-table length promising more than arrives
        let mut bad_phase_len = vec![RESP_OUTCOME, 0];
        bad_phase_len.extend_from_slice(&0u64.to_be_bytes());
        bad_phase_len.extend_from_slice(&100u32.to_be_bytes());
        assert!(decode_response(&bad_phase_len).is_err());
        assert!(decode_response(&[RESP_BYE, 0]).is_err());
        assert!(decode_response(&[RESP_METRICS, 0]).is_err()); // truncated string
    }
}
