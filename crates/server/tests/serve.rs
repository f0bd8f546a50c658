//! End-to-end serving tests: real sockets, a thread per connection, and
//! the actual planner behind them. Every test binds an ephemeral port and
//! tears the server down before asserting the join result.

use sekitei_model::{Expr, LevelScenario, NodeId};
use sekitei_planner::PlannerConfig;
use sekitei_server::{
    decode_response, encode_request, read_frame, request_plan, request_shutdown, request_stats,
    write_frame, ClientError, Connection, Priority, Request, Response, ServedVia, Server,
    ServerConfig, ShutdownHandle,
};
use sekitei_topology::scenarios;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn start(cfg: ServerConfig) -> (SocketAddr, ShutdownHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

fn small_cfg() -> ServerConfig {
    ServerConfig { workers: 2, ..ServerConfig::default() }
}

#[test]
fn tiny_b_roundtrips_to_a_seven_action_plan() {
    let (addr, _, join) = start(small_cfg());
    let (outcome, via) = request_plan(addr, &scenarios::tiny(LevelScenario::B)).unwrap();
    assert_eq!(via, ServedVia::Computed);
    let plan = outcome.plan.expect("Tiny/B is solvable");
    assert_eq!(plan.steps.len(), 7);
    assert!(!plan.degraded);
    assert!(plan.cost_lower_bound > 0.0);
    assert!(!outcome.stats.budget_exhausted);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn warm_repeat_is_a_cache_hit_with_identical_outcome() {
    let (addr, _, join) = start(small_cfg());
    let mut conn = Connection::connect(addr).unwrap();
    let p = scenarios::tiny(LevelScenario::C);
    let (cold, via_cold) = conn.plan(&p).unwrap();
    let (warm, via_warm) = conn.plan(&p).unwrap();
    assert_eq!(via_cold, ServedVia::Computed);
    assert_eq!(via_warm, ServedVia::Cache, "identical bytes must hit the outcome tier");
    assert_eq!(cold, warm, "cached outcome must be byte-identical");
    let stats = conn.stats().unwrap();
    assert_eq!(stats.served, 2);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn serves_64_concurrent_requests_without_rejections() {
    let (addr, _, join) = start(ServerConfig::default());
    let solvable = [LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..64)
            .map(|i| {
                // i % 8 draws 8 distinct problems: the scenario from i % 4,
                // the network from i / 4
                let sc = solvable[i % 4];
                s.spawn(move || {
                    let p = if i % 8 < 4 { scenarios::tiny(sc) } else { scenarios::small(sc) };
                    request_plan(addr, &p)
                })
            })
            .collect();
        for h in handles {
            let (outcome, _) = h.join().unwrap().expect("no request may fail under cap 128");
            assert!(outcome.plan.is_some());
        }
    });
    let stats = request_stats(addr).unwrap();
    assert_eq!(stats.served, 64);
    assert_eq!(stats.rejected, 0);
    // 64 requests over 8 distinct problems: every repeat is answered from
    // encoded bytes, a cache hit or a coalesced join
    assert!(stats.cache_hits + stats.coalesced >= 56, "stats: {stats}");
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn budget_exhausted_outcome_serves_warm_from_cache() {
    // node- and reject-budget exhaustion is deterministic, so the outcome
    // caches and the warm repeat is a byte-identical hit
    let cfg = ServerConfig {
        workers: 1,
        planner: PlannerConfig { max_nodes: 500, degrade: false, ..PlannerConfig::default() },
        ..ServerConfig::default()
    };
    let (addr, _, join) = start(cfg);
    let mut conn = Connection::connect(addr).unwrap();
    let p = scenarios::small(LevelScenario::A);
    let (cold, via_cold) = conn.plan(&p).unwrap();
    assert_eq!(via_cold, ServedVia::Computed);
    assert!(cold.stats.budget_exhausted, "Small/A must exhaust a 500-node budget");
    assert!(!cold.stats.deadline_hit);
    let (warm, via_warm) = conn.plan(&p).unwrap();
    assert!(via_warm.is_warm(), "budget-exhausted outcomes must hit the cache");
    assert_eq!(cold, warm, "cached outcome must be byte-identical");
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn deadline_tripped_outcome_is_never_cached() {
    // a 1 ms deadline trips on the wall clock, which must keep the
    // outcome out of the cache — the repeat is a fresh (cold) run
    let cfg = ServerConfig {
        workers: 1,
        planner: PlannerConfig {
            deadline: Some(Duration::from_millis(1)),
            degrade: false,
            ..PlannerConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, _, join) = start(cfg);
    let mut conn = Connection::connect(addr).unwrap();
    let p = scenarios::large(LevelScenario::A);
    let (cold, via_cold) = conn.plan(&p).unwrap();
    assert_eq!(via_cold, ServedVia::Computed);
    assert!(cold.stats.deadline_hit, "Large/A cannot finish in 1ms");
    let (_, via_warm) = conn.plan(&p).unwrap();
    assert!(!via_warm.is_warm(), "deadline-tripped outcomes must never replay from cache");
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

// debug builds search Large/A too slowly to surface even one rejected
// candidate inside the deadline, leaving degradation nothing to ship
#[cfg_attr(debug_assertions, ignore = "release-only deadline-timing test")]
#[test]
fn deadline_tripped_large_a_degrades_instead_of_erroring() {
    let cfg = ServerConfig {
        workers: 1,
        planner: PlannerConfig {
            deadline: Some(Duration::from_millis(600)),
            degrade: true,
            // the default reject budget ends Large/A inside the deadline;
            // a ten-times larger one keeps the search running past it
            max_candidate_rejects: 20_000,
            ..PlannerConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, _, join) = start(cfg);
    let (outcome, _) = request_plan(addr, &scenarios::large(LevelScenario::A)).unwrap();
    assert!(outcome.stats.deadline_hit, "Large/A cannot finish in 600ms");
    assert!(outcome.stats.budget_exhausted);
    let plan = outcome.plan.expect("degradation must ship a plan, not an error");
    assert!(plan.degraded);
    assert!(!plan.steps.is_empty());
    assert!(outcome.best_bound.is_some(), "tripped search must report its bound");
    let stats = request_stats(addr).unwrap();
    assert_eq!(stats.degraded, 1);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn zero_queue_cap_rejects_every_request() {
    let (addr, handle, join) = start(ServerConfig { queue_cap: 0, ..small_cfg() });
    for _ in 0..3 {
        match request_plan(addr, &scenarios::tiny(LevelScenario::B)) {
            Err(ClientError::Rejected(_)) => {}
            other => panic!("expected admission rejection, got {other:?}"),
        }
    }
    // every Normal plan is turned away — stop via the handle
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn malformed_problem_bytes_get_an_error_response() {
    let (addr, _, join) = start(small_cfg());
    let mut conn = Connection::connect(addr).unwrap();
    match conn.plan_bytes(b"not a SKT1 payload") {
        Err(ClientError::Server(msg)) => assert!(msg.contains("wire"), "msg: {msg}"),
        other => panic!("expected a server-side decode error, got {other:?}"),
    }
    // the connection survives a bad request and still serves good ones
    let (outcome, _) = conn.plan(&scenarios::tiny(LevelScenario::D)).unwrap();
    assert!(outcome.plan.is_some());
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

/// A plan frame whose problem nests one formula 10 000 deep (~11.7 KB):
/// decoding it recursively exhausted a worker's stack and aborted the
/// whole server. The depth cap turns it into an `Error` reply.
#[test]
fn deeply_nested_formula_gets_an_error_reply_and_the_server_keeps_serving() {
    let mut p = scenarios::tiny(LevelScenario::B);
    p.components[0].cost = Expr::c(-123.25);
    let bytes = sekitei_spec::encode(&p).to_vec();
    let leaf = [&[0u8][..], &(-123.25f64).to_be_bytes()].concat();
    let at = bytes.windows(leaf.len()).position(|w| w == leaf).expect("marker encoded");
    let negs = vec![8u8; 10_000]; // `Neg` tags above the leaf
    let hostile = [&bytes[..at], &negs, &bytes[at..]].concat();

    let (addr, _, join) = start(small_cfg());
    let mut conn = Connection::connect(addr).unwrap();
    match conn.plan_bytes(&hostile) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("nests deeper"), "msg: {msg}"),
        other => panic!("expected a server-side decode error, got {other:?}"),
    }
    let (outcome, _) = conn.plan(&scenarios::tiny(LevelScenario::B)).unwrap();
    assert_eq!(outcome.plan.expect("Tiny/B is solvable").steps.len(), 7);
    drop(conn);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

/// An SKT1 frame can carry a NaN resource amount, which the text
/// language cannot write; validation refuses it, so the server answers
/// `Error` instead of planning over it.
#[test]
fn nan_cpu_frame_gets_an_error_reply_and_the_next_request_is_served() {
    let mut p = scenarios::tiny(LevelScenario::B);
    p.network.set_node_capacity(NodeId(0), "cpu", f64::NAN);
    let (addr, _, join) = start(small_cfg());
    let mut conn = Connection::connect(addr).unwrap();
    match conn.plan_bytes(&sekitei_spec::encode(&p)) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("NaN `cpu`"), "msg: {msg}"),
        other => panic!("expected a server-side validation error, got {other:?}"),
    }
    let (outcome, _) = conn.plan(&scenarios::tiny(LevelScenario::B)).unwrap();
    assert_eq!(outcome.plan.expect("Tiny/B is solvable").steps.len(), 7);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn shutdown_returns_promptly_while_a_client_holds_an_idle_connection() {
    let (addr, _, join) = start(small_cfg());
    // a served request proves the connection has its thread, which then
    // idles blocked on its next read
    let mut idle = Connection::connect(addr).unwrap();
    idle.plan(&scenarios::tiny(LevelScenario::B)).unwrap();
    let t = Instant::now();
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(2), "run returned {took:?} after Shutdown");
    drop(idle);
}

#[test]
fn shutdown_handle_stops_an_idle_server() {
    let (_, handle, join) = start(small_cfg());
    assert!(!handle.is_shutdown());
    handle.shutdown();
    assert!(handle.is_shutdown());
    join.join().unwrap().unwrap();
}

#[test]
fn concurrent_identical_requests_coalesce_onto_one_search() {
    // Large/A under a 750ms deadline holds the leader in the search long
    // enough for the other three connections to join its waiter list:
    // exactly one search runs (one cache miss), three answers coalesce
    let cfg = ServerConfig {
        workers: 4,
        planner: PlannerConfig {
            deadline: Some(Duration::from_millis(750)),
            degrade: false,
            ..PlannerConfig::default()
        },
        ..ServerConfig::default()
    };
    let (addr, _, join) = start(cfg);
    let p = scenarios::large(LevelScenario::A);
    let barrier = std::sync::Barrier::new(4);
    let vias: Vec<ServedVia> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (p, barrier) = (&p, &barrier);
                s.spawn(move || {
                    let mut conn = Connection::connect(addr).unwrap();
                    barrier.wait();
                    let (_, via) = conn.plan(p).unwrap();
                    via
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let coalesced = vias.iter().filter(|v| **v == ServedVia::Coalesced).count();
    let computed = vias.iter().filter(|v| **v == ServedVia::Computed).count();
    assert_eq!(computed, 1, "exactly one leader computes: {vias:?}");
    assert_eq!(coalesced, 3, "the other three coalesce: {vias:?}");
    let stats = request_stats(addr).unwrap();
    assert_eq!(stats.cache_misses, 1, "one search for four requests");
    assert_eq!(stats.coalesced, 3);
    assert_eq!(stats.served, 4);
    assert_eq!(stats.class_cached, stats.cache_hits + stats.coalesced);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn low_priority_sheds_first_under_queue_pressure() {
    // one search permit, queue cap 4 → the Low shed threshold is 2. Three
    // distinct searches, each on its own connection, make the pressure:
    // one holds the permit until the 150 ms deadline cuts it, and two wait
    // for it. Their deadlines count from each frame's read, so the waiters
    // end as soon as they get the permit. Once the depth gauge reads 2, a
    // Low request on the active connection is shed while High and Normal
    // still serve.
    let planner = PlannerConfig {
        deadline: Some(Duration::from_millis(150)),
        max_candidate_rejects: usize::MAX,
        ..PlannerConfig::default()
    };
    let (addr, _, join) = start(ServerConfig { workers: 1, queue_cap: 4, planner, ..small_cfg() });
    let mut shrunk = scenarios::large(LevelScenario::A);
    for range in shrunk.sources[0].properties.values_mut() {
        range.hi /= 2.0;
    }
    let searches = [scenarios::large(LevelScenario::A), scenarios::small(LevelScenario::A), shrunk];
    let mut active = Connection::connect(addr).unwrap();
    // the active connection is served before the pressure builds
    let (_, via) = active.plan(&scenarios::tiny(LevelScenario::B)).unwrap();
    assert_eq!(via, ServedVia::Computed);
    std::thread::scope(|s| {
        for p in &searches {
            s.spawn(move || Connection::connect(addr).unwrap().plan(p).unwrap());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let parsed = sekitei_obs::parse_exposition(&active.metrics().unwrap()).unwrap();
            if parsed.gauges.get("queue_depth").copied().unwrap_or(0) >= 2 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "queue never reached depth 2");
            std::thread::sleep(Duration::from_millis(10));
        }

        let bytes = sekitei_spec::encode(&scenarios::tiny(LevelScenario::C));
        match active.plan_bytes_traced(&bytes, 0, false, Priority::Low) {
            Err(ClientError::Rejected(msg)) => assert!(msg.contains("shed"), "msg: {msg}"),
            other => panic!("low priority must shed under pressure, got {other:?}"),
        }
        // the same request at High (never shed) and Normal (threshold 4 > 2)
        // priority still serves on the same connection
        active.plan_bytes_traced(&bytes, 0, false, Priority::High).unwrap();
        active.plan_bytes_traced(&bytes, 0, false, Priority::Normal).unwrap();
    });

    let stats = active.stats().unwrap();
    assert_eq!(stats.queue_shed, 1, "stats: {stats}");
    let parsed = sekitei_obs::parse_exposition(&active.metrics().unwrap()).unwrap();
    assert_eq!(parsed.counters.get("queue_shed_low").copied(), Some(1));
    assert_eq!(parsed.counters.get("queue_shed_normal").copied(), Some(0));
    drop(active);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn normal_priority_sheds_at_the_queue_cap() {
    // one permit, queue cap 1, no cache: one search runs and one waits,
    // and a third connection still fits under the cap of workers +
    // queue_cap + 1, so its Normal plan meets the gate at depth 1 and is
    // shed there instead of being turned away at the door
    let planner = PlannerConfig {
        deadline: Some(Duration::from_millis(150)),
        max_candidate_rejects: usize::MAX,
        ..PlannerConfig::default()
    };
    let cfg = ServerConfig { workers: 1, queue_cap: 1, cache_cap: 0, planner, ..small_cfg() };
    let (addr, _, join) = start(cfg);
    let mut shrunk = scenarios::large(LevelScenario::A);
    for range in shrunk.sources[0].properties.values_mut() {
        range.hi /= 2.0;
    }
    let searches = [scenarios::large(LevelScenario::A), shrunk];
    // connect in order, so the server accepts the searches' connections first
    let conns: Vec<Connection> = (0..2).map(|_| Connection::connect(addr).unwrap()).collect();
    std::thread::scope(|s| {
        for (mut conn, p) in conns.into_iter().zip(&searches) {
            s.spawn(move || conn.plan(p).unwrap());
        }
        let mut third = Connection::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let parsed = sekitei_obs::parse_exposition(&third.metrics().unwrap()).unwrap();
            if parsed.gauges.get("queue_depth").copied().unwrap_or(0) >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "queue never reached depth 1");
            std::thread::sleep(Duration::from_millis(10));
        }
        match third.plan(&scenarios::tiny(LevelScenario::C)) {
            Err(ClientError::Rejected(msg)) => {
                assert!(msg.starts_with("queue pressure: "), "msg: {msg}")
            }
            other => panic!("a Normal plan at the queue cap must shed, got {other:?}"),
        }
        let parsed = sekitei_obs::parse_exposition(&third.metrics().unwrap()).unwrap();
        assert_eq!(parsed.counters.get("queue_shed_normal").copied(), Some(1));
        assert_eq!(parsed.counters.get("queue_shed_low").copied(), Some(0));
        assert_eq!(third.stats().unwrap().rejected, 0);
    });
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}

#[test]
fn idle_clients_do_not_hold_search_permits() {
    // one search permit and three clients idle after a reply: an idle
    // client costs a blocked thread, never the permit
    let (addr, _, join) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let idle: Vec<Connection> = (0..3)
        .map(|_| {
            let mut conn = Connection::connect(addr).unwrap();
            conn.plan(&scenarios::tiny(LevelScenario::B)).unwrap();
            conn
        })
        .collect();
    let t = Instant::now();
    let (outcome, via) = request_plan(addr, &scenarios::tiny(LevelScenario::C)).unwrap();
    let took = t.elapsed();
    assert_eq!(via, ServedVia::Computed);
    assert!(outcome.plan.is_some());
    assert!(took < Duration::from_secs(1), "a search behind idle clients took {took:?}");
    let t = Instant::now();
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(2), "run returned {took:?} after Shutdown");
    drop(idle);
}

#[test]
fn connections_past_the_cap_are_rejected() {
    // one permit plus a queue cap of one: three open connections at most
    let (addr, handle, join) = start(ServerConfig { workers: 1, queue_cap: 1, ..small_cfg() });
    let mut first = TcpStream::connect(addr).unwrap();
    write_frame(&mut first, &encode_request(&Request::Metrics)).unwrap();
    read_frame(&mut first).unwrap();
    let mut second = Connection::connect(addr).unwrap();
    second.metrics().unwrap();
    let mut third = Connection::connect(addr).unwrap();
    third.metrics().unwrap();

    let mut fourth = TcpStream::connect(addr).unwrap();
    match decode_response(&read_frame(&mut fourth).unwrap()).unwrap() {
        Response::Rejected(msg) => assert_eq!(msg, "queue full"),
        other => panic!("a fourth connection must be rejected, got {other:?}"),
    }
    // the server closes its end only after deregistering the connection,
    // so once the client reads EOF the slot is free
    first.shutdown(Shutdown::Write).unwrap();
    assert_eq!(first.read(&mut [0u8; 1]).unwrap(), 0);
    let (outcome, _) = request_plan(addr, &scenarios::tiny(LevelScenario::B)).unwrap();
    assert!(outcome.plan.is_some());
    assert_eq!(second.stats().unwrap().rejected, 1);
    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn persisted_cache_survives_restart_as_warm_hits() {
    let mut path = std::env::temp_dir();
    path.push(format!("sekitei_serve_persist_{}.sks", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = ServerConfig { cache_file: Some(path.clone()), ..small_cfg() };

    let (addr, _, join) = start(cfg.clone());
    let p = scenarios::tiny(LevelScenario::C);
    let (cold, via) = request_plan(addr, &p).unwrap();
    assert_eq!(via, ServedVia::Computed);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();

    // a brand-new process-equivalent: same cache file, same config — the
    // very first request must already be warm
    let (addr, _, join) = start(cfg);
    let mut conn = Connection::connect(addr).unwrap();
    let (warm, via) = conn.plan(&p).unwrap();
    assert_eq!(via, ServedVia::Cache, "restart must serve from the persisted cache");
    assert_eq!(cold, warm, "replayed outcome must be byte-identical");
    let stats = conn.stats().unwrap();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 0, "no recompute after restart");
    drop(conn);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_cache_file_cold_starts_after_config_change() {
    let mut path = std::env::temp_dir();
    path.push(format!("sekitei_serve_stale_{}.sks", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (addr, _, join) = start(ServerConfig { cache_file: Some(path.clone()), ..small_cfg() });
    let p = scenarios::tiny(LevelScenario::D);
    request_plan(addr, &p).unwrap();
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();

    // restart with a different planner config: the fingerprint no longer
    // matches, so nothing may replay — a stale answer would be wrong
    let cfg = ServerConfig {
        cache_file: Some(path.clone()),
        planner: PlannerConfig { max_nodes: 77_777, ..PlannerConfig::default() },
        ..small_cfg()
    };
    let (addr, _, join) = start(cfg);
    let mut conn = Connection::connect(addr).unwrap();
    let (_, via) = conn.plan(&p).unwrap();
    assert_eq!(via, ServedVia::Computed, "config change must invalidate the snapshot");
    let stats = conn.stats().unwrap();
    assert_eq!(stats.cache_misses, 1);
    drop(conn);
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn workers_share_one_cache_registry_and_flight_ring() {
    let (addr, _, join) =
        start(ServerConfig { workers: 2, cache_cap: 4, ..ServerConfig::default() });
    // one-shot requests: each opens its own connection and thread
    let solvable = [LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E];
    for sc in solvable {
        let (outcome, _) = request_plan(addr, &scenarios::tiny(sc)).unwrap();
        assert!(outcome.plan.is_some());
    }
    // a four-entry outcome tier holds all four fingerprints, whichever
    // thread computed them
    for sc in solvable {
        let (_, via) = request_plan(addr, &scenarios::tiny(sc)).unwrap();
        assert_eq!(via, ServedVia::Cache, "every repeat is an outcome-tier hit");
    }
    let stats = request_stats(addr).unwrap();
    assert_eq!(stats.served, 8, "stats cover every worker's requests: {stats}");
    assert_eq!(stats.cache_hits, 4);
    assert_eq!(stats.cache_misses, 4);

    let dump = sekitei_server::request_flight_recorder(addr).unwrap();
    let parsed = sekitei_server::parse_dump(&dump).unwrap();
    assert_eq!(parsed.records.len(), 8, "the flight dump covers every worker's requests");
    let seqs: Vec<u64> = parsed.records.iter().map(|r| r.seq).collect();
    let mut sorted = seqs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(seqs, sorted, "records are in sequence order");
    request_shutdown(addr).unwrap();
    join.join().unwrap().unwrap();
}
