//! Golden wire bytes: every format the service puts on the wire, pinned
//! by length and FNV-1a digest. Round-trip tests pass under any
//! self-consistent change of layout; these fail on any change to the
//! bytes themselves, so a codec refactor that claims to keep the format
//! must pass them unchanged. If one fails, the message prints the new
//! table — a changed digest is a changed wire format, not a number to
//! paste in.
//!
//! The same file checks that the envelope decoders are total: random
//! byte strings, every truncation and every single-byte flip of the
//! golden frames decode to `Ok` or `Err`, never a panic.

use sekitei_model::LevelScenario;
use sekitei_planner::{Planner, PlannerConfig};
use sekitei_server::{
    decode_request, decode_response, encode_request, encode_response, outcome_to_wire, Priority,
    Request, Response, ServedVia,
};
use sekitei_spec::{
    encode, encode_outcome, encode_phases, encode_snapshot_header, encode_snapshot_record,
    WireOutcome, WirePhase, WirePlan, WireSnapshotRecord, WireStats, WireStep, WireStepKind,
};
use sekitei_topology::scenarios::{self, NetSize};
use sekitei_util::SplitMix64;

/// FNV-1a, 64-bit. Kept local so the pins do not move with any hash the
/// crates under test use.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(label, byte length, FNV-1a digest)` of every pinned encoding, recorded
/// before the `Stats` frame was deleted.
const GOLDEN: &[(&str, usize, u64)] = &[
    ("SKT1/Tiny/A", 1667, 0xf1e431638ae0f183),
    ("SKT1/Tiny/B", 1743, 0x8c066c6512d4d53e),
    ("SKT1/Tiny/C", 1775, 0x9d56e81812d9da89),
    ("SKT1/Tiny/D", 1839, 0xc9f89425608e897d),
    ("SKT1/Tiny/E", 1855, 0xf34987da6a4eb313),
    ("SKT1/Small/A", 1878, 0xc526307188acb8c5),
    ("SKT1/Small/B", 1954, 0xbe6b530d5c8636b6),
    ("SKT1/Small/C", 1986, 0x5fb0263c555a241f),
    ("SKT1/Small/D", 2050, 0x9fbc84dd51d79173),
    ("SKT1/Small/E", 2066, 0x292e6fa7202424f5),
    ("SKT1/Large/A", 8306, 0x1f28c61c769d0542),
    ("SKT1/Large/B", 8382, 0x92de66cb76082cd5),
    ("SKT1/Large/C", 8414, 0xeb7f5e5490fa0aac),
    ("SKT1/Large/D", 8478, 0xf891520b9bfc4670),
    ("SKT1/Large/E", 8494, 0x41e32885f02e8712),
    ("SKC1/Tiny/C", 613, 0xa115796558fce8a2),
    ("SKO1/plan", 250, 0x2d87a35f9cd3ec5c),
    ("SKO1/bound-only", 98, 0xb4da9eb1b5af467f),
    ("SKP1", 90, 0x4c850c0206b3da00),
    ("SKS1/header", 16, 0x4f238fb7f0b065f0),
    ("SKS1/record", 279, 0x671fe62de23f363b),
    ("request/plan-high-profile", 1754, 0x9f2a1504cc011b37),
    ("request/plan-normal", 1754, 0x7657b5fccea6cefd),
    ("request/plan-low", 1754, 0x00f38ee6599a1d29),
    ("request/shutdown", 1, 0xaf63bf4c8601bb45),
    ("request/metrics", 1, 0xaf63be4c8601b992),
    ("request/flight", 1, 0xaf63b94c8601b113),
    ("response/outcome-computed-profiled", 354, 0xdccd458ca769396d),
    ("response/outcome-cache", 264, 0x224fdc1fc0201252),
    ("response/outcome-coalesced", 112, 0x06172e2eb8c95091),
    ("response/rejected", 15, 0x32acded8bcbe5b83),
    ("response/error", 14, 0xd40723633f3ade93),
    ("response/bye", 1, 0xaf63b94c8601b113),
    ("response/metrics", 137, 0x511d8ecceb3e5b49),
    ("response/flight", 46, 0xa08bd894f1dcf412),
];

fn outcome_sample(with_plan: bool) -> WireOutcome {
    WireOutcome {
        plan: with_plan.then(|| WirePlan {
            steps: vec![
                WireStep {
                    name: "place(Server,n0)".into(),
                    kind: WireStepKind::Place,
                    cost_lb: 1.0,
                },
                WireStep {
                    name: "cross(M,n0→n1)[M=90]".into(),
                    kind: WireStepKind::Cross,
                    cost_lb: 0.45,
                },
                WireStep { name: "future-kind".into(), kind: WireStepKind::Other, cost_lb: 0.0 },
            ],
            cost_lower_bound: 1.45,
            degraded: true,
            source_values: vec![(3, 92.5), (11, 200.0)],
        }),
        best_bound: Some(1.25),
        optimality_gap: with_plan.then_some(0.2),
        stats: WireStats {
            total_actions: 96,
            plrg_props: 40,
            plrg_actions: 96,
            slrg_nodes: 200,
            rg_nodes: 5_000,
            rg_open_left: 120,
            replay_prunes: 300,
            candidate_rejects: 2,
            total_time_us: 1_234,
            search_time_us: 1_000,
            budget_exhausted: !with_plan,
            deadline_hit: with_plan,
        },
        certificate: with_plan.then(|| b"SKC1-opaque".to_vec()),
    }
}

fn phases_sample() -> Vec<WirePhase> {
    vec![
        WirePhase { name: "queue_wait".into(), self_ns: 900_000, count: 1 },
        WirePhase { name: "decode".into(), self_ns: 31_000, count: 1 },
        WirePhase { name: "search".into(), self_ns: 4_400_000, count: 1 },
    ]
}

/// One request of every kind, plan requests under each priority.
fn request_samples() -> Vec<(&'static str, Request)> {
    let problem = encode(&scenarios::tiny(LevelScenario::B)).to_vec();
    vec![
        (
            "request/plan-high-profile",
            Request::Plan {
                trace_id: 0xDEAD_BEEF_0042_1177,
                profile: true,
                priority: Priority::High,
                problem: problem.clone(),
            },
        ),
        (
            "request/plan-normal",
            Request::Plan {
                trace_id: 0,
                profile: false,
                priority: Priority::Normal,
                problem: problem.clone(),
            },
        ),
        (
            "request/plan-low",
            Request::Plan { trace_id: 7, profile: false, priority: Priority::Low, problem },
        ),
        ("request/shutdown", Request::Shutdown),
        ("request/metrics", Request::Metrics),
        ("request/flight", Request::FlightRecorder),
    ]
}

/// One response of every kind, outcomes under each served-via path.
fn response_samples() -> Vec<(&'static str, Response)> {
    vec![
        (
            "response/outcome-computed-profiled",
            Response::Outcome {
                served_via: ServedVia::Computed,
                trace_id: 42,
                phases: phases_sample(),
                outcome: outcome_sample(true),
            },
        ),
        (
            "response/outcome-cache",
            Response::Outcome {
                served_via: ServedVia::Cache,
                trace_id: 71,
                phases: vec![],
                outcome: outcome_sample(true),
            },
        ),
        (
            "response/outcome-coalesced",
            Response::Outcome {
                served_via: ServedVia::Coalesced,
                trace_id: 0,
                phases: vec![],
                outcome: outcome_sample(false),
            },
        ),
        ("response/rejected", Response::Rejected("queue full".into())),
        ("response/error", Response::Error("bad magic".into())),
        ("response/bye", Response::Bye),
        (
            "response/metrics",
            Response::Metrics(
                "# sekitei-metrics v1\ncounter served 3\nhistogram latency_us count=1 sum=10 \
                 max=10\nbucket latency_us 10 10 11 1\n# end sekitei-metrics\n"
                    .into(),
            ),
        ),
        (
            "response/flight",
            Response::FlightRecorder("# sekitei-flight v1\n# end sekitei-flight\n".into()),
        ),
    ]
}

/// Every pinned encoding, in table order.
fn encodings() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for size in NetSize::ALL {
        for sc in LevelScenario::ALL {
            let bytes = encode(&scenarios::problem(size, sc)).to_vec();
            out.push((format!("SKT1/{}/{sc:?}", size.label()), bytes));
        }
    }
    let outcome = Planner::new(PlannerConfig::default())
        .plan(&scenarios::tiny(LevelScenario::C))
        .expect("Tiny/C compiles");
    let cert = outcome_to_wire(&outcome).certificate.expect("Tiny/C plans carry a certificate");
    out.push(("SKC1/Tiny/C".into(), cert));
    out.push(("SKO1/plan".into(), encode_outcome(&outcome_sample(true)).to_vec()));
    out.push(("SKO1/bound-only".into(), encode_outcome(&outcome_sample(false)).to_vec()));
    out.push(("SKP1".into(), encode_phases(&phases_sample()).to_vec()));
    out.push(("SKS1/header".into(), encode_snapshot_header(0x5EC1_7E10_F00D_CAFE).to_vec()));
    let record = WireSnapshotRecord {
        key: 0x9E37_79B9_7F4A_7C15,
        class: 2,
        rg_nodes: 5_000,
        payload: encode_outcome(&outcome_sample(true)).to_vec(),
    };
    out.push(("SKS1/record".into(), encode_snapshot_record(&record).to_vec()));
    for (label, r) in request_samples() {
        out.push((label.into(), encode_request(&r)));
    }
    for (label, r) in response_samples() {
        out.push((label.into(), encode_response(&r)));
    }
    out
}

#[test]
fn wire_bytes_match_their_recorded_digests() {
    let got: Vec<(String, usize, u64)> =
        encodings().into_iter().map(|(label, b)| (label, b.len(), fnv1a(&b))).collect();
    let want: Vec<(String, usize, u64)> =
        GOLDEN.iter().map(|&(l, n, d)| (l.to_string(), n, d)).collect();
    let table: String =
        got.iter().map(|(l, n, d)| format!("    (\"{l}\", {n}, {d:#018x}),\n")).collect();
    assert!(got == want, "wire bytes changed; now:\n{table}");
}

/// The envelope decoders are total: whatever the bytes, they return.
/// Runs as a seeded SplitMix64 property (failures reproduce exactly):
/// random byte strings with a biased tag byte, then every truncation and
/// every single-byte flip (each bit alone and all eight) of each golden
/// frame, each through both decoders.
#[test]
fn envelope_decoders_never_panic() {
    let decode = |b: &[u8]| {
        let _ = decode_request(b);
        let _ = decode_response(b);
    };
    let mut rng = SplitMix64::new(0x901D_E2E5);
    for _ in 0..4_096 {
        let len = rng.below(96) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        if let Some(tag) = bytes.first_mut() {
            if rng.below(2) == 0 {
                *tag = rng.below(8) as u8;
            }
        }
        decode(&bytes);
    }

    let requests = request_samples().into_iter().map(|(_, r)| encode_request(&r));
    let responses = response_samples().into_iter().map(|(_, r)| encode_response(&r));
    for frame in requests.chain(responses) {
        for cut in 0..frame.len() {
            decode(&frame[..cut]);
        }
        let mut flipped = frame.clone();
        for i in 0..frame.len() {
            for mask in [1u8, 2, 4, 8, 16, 32, 64, 128, 0xFF] {
                flipped[i] ^= mask;
                decode(&flipped);
                flipped[i] ^= mask;
            }
        }
    }
}
