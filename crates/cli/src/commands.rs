//! Subcommand implementations.

use sekitei_compile::compile;
use sekitei_model::{CppProblem, LevelScenario};
use sekitei_planner::{plan_metrics, Heuristic, PlanOutcome, Planner, PlannerConfig};
use sekitei_sim::validate_plan;
use sekitei_topology::scenarios::{self, NetSize};

const USAGE: &str = "usage:
  sekitei plan (<spec-file> | --scenario <size-level>) [--plrg-heuristic]
               [--no-replay-pruning] [--no-prune] [--max-nodes N]
               [--deadline-ms N] [--degrade] [--anytime] [--sls-seed N]
               [--sls-restarts N] [--validate] [--quiet] [--profile]
               [--trace-json FILE] [--emit-cert FILE]
  sekitei batch <spec-file>... [--threads N] [--no-prune] [--validate]
               [--quiet] [--profile] [--trace-json FILE] [--emit-cert FILE]
  sekitei serve [--addr HOST:PORT] [--workers N] [--queue-cap N]
               [--cache-cap N] [--cache-file FILE] [--max-nodes N]
               [--deadline-ms N] [--no-degrade] [--anytime] [--sls-seed N]
               [--sls-restarts N]
  sekitei request (<spec-file> | --stats | --metrics | --flight | --shutdown)
               [--addr HOST:PORT] [--profile] [--priority <high|normal|low>]
  sekitei loadgen [--addr HOST:PORT] [--requests N] [--connections N]
               [--seed N] [--zipf-s X] [--pipeline N] [--rate R] [--burst N]
               [--verify-every N] [--low-every N]
               [--corpus <tiny|small|large>] [--bench-json FILE]
  sekitei verify-cert <spec-file> <cert-file>
  sekitei check <spec-file>
  sekitei compile <spec-file> [--dump]
  sekitei scenario <tiny|small|large> <A|B|C|D|E> [--emit] [--validate]
  sekitei tradeoff <link-cost-weight>
  sekitei adapt <spec-file> --existing <Comp@node> [--existing ...]
               [--keep-cost X] [--migration-factor Y] [--validate]
  sekitei churn [--scenario <tiny|small|large>] [--level <A|B|C|D|E>]
               [--seed N] [--events N] [--trace FILE] [--emit-trace]
               [--max-nodes N] [--deadline-ms N] [--no-degrade] [--anytime]
               [--sls-seed N] [--sls-restarts N] [--keep-cost X]
               [--migration-factor Y] [--quiet]
               [--profile] [--trace-json FILE] [--emit-cert FILE]
  sekitei doctor <spec-file>
  sekitei suggest <spec-file> [--headroom H] [--apply]
  sekitei dot <spec-file> [--plan]
  sekitei encode <spec-file> <out.bin>
  sekitei decode <in.bin>";

/// Dispatch CLI arguments to a subcommand.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("plan") => cmd_plan(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("request") => cmd_request(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("verify-cert") => cmd_verify_cert(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("compile") => cmd_compile(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("tradeoff") => cmd_tradeoff(&args[1..]),
        Some("adapt") => cmd_adapt(&args[1..]),
        Some("churn") => cmd_churn(&args[1..]),
        Some("doctor") => cmd_doctor(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("suggest") => cmd_suggest(&args[1..]),
        Some("encode") => cmd_encode(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            outln!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    }
}

fn load(path: &str) -> Result<CppProblem, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    sekitei_spec::parse_problem(&src).map_err(|e| format!("{path}: {e}"))
}

/// Parse one of the planner flags that `plan`, `serve` and `churn` share
/// (`--max-nodes`, `--deadline-ms`, `--anytime`, `--sls-seed`,
/// `--sls-restarts`) at `args[*i]` into `cfg`; a flag that takes a value
/// leaves `*i` on it. `Ok(false)` when `args[*i]` is not one of them.
/// `--deadline-ms` is a wall-clock budget and forfeits run-to-run
/// reproducibility; `--max-nodes` bounds the search deterministically.
fn parse_planner_flag(
    cfg: &mut PlannerConfig,
    args: &[String],
    i: &mut usize,
) -> Result<bool, String> {
    fn value<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
        let flag = &args[*i];
        *i += 1;
        let v = args.get(*i).ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse().map_err(|_| format!("bad {flag} value `{v}`"))
    }
    match args[*i].as_str() {
        "--max-nodes" => cfg.max_nodes = value(args, i)?,
        "--deadline-ms" => {
            cfg.deadline = Some(std::time::Duration::from_millis(value(args, i)?));
        }
        "--anytime" => cfg.anytime = true,
        "--sls-seed" => cfg.sls_seed = value(args, i)?,
        "--sls-restarts" => cfg.sls_restarts = value(args, i)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Observability surface shared by `plan`, `batch` and `churn`: `--profile`
/// prints a per-phase breakdown on stderr, `--trace-json FILE` writes the
/// structured trace as JSON lines. Tracing stays entirely off unless one of
/// the two was requested.
#[derive(Default)]
struct ObsOpts {
    trace_json: Option<String>,
    profile: bool,
}

impl ObsOpts {
    fn active(&self) -> bool {
        self.profile || self.trace_json.is_some()
    }

    /// Turn tracing on (discarding anything a previous command in this
    /// process left in the rings, so the trace covers exactly this run).
    fn begin(&self) {
        if self.active() {
            sekitei_obs::enable();
            let _ = sekitei_obs::take_trace();
        }
    }

    /// Drain the trace, emit the requested outputs, and turn tracing off.
    /// `root` names the span whose subtree the profile table summarizes.
    fn finish(&self, root: &str) -> Result<(), String> {
        if !self.active() {
            return Ok(());
        }
        let trace = sekitei_obs::take_trace();
        sekitei_obs::disable();
        // a saturated ring silently truncates the trace — surface it
        trace.warn_if_dropped();
        if let Some(path) = &self.trace_json {
            std::fs::write(path, trace.to_json_lines())
                .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }
        if self.profile {
            eprint!("{}", trace.phase_table(root));
        }
        Ok(())
    }
}

/// Parse a combined `--scenario` value like `small-b` into its network size
/// and level scenario.
fn parse_size_level(v: &str) -> Result<(NetSize, LevelScenario), String> {
    let (size, level) = v
        .split_once('-')
        .ok_or_else(|| format!("bad --scenario `{v}` (expected <size>-<level>, e.g. small-b)"))?;
    let size = match size.to_ascii_lowercase().as_str() {
        "tiny" => NetSize::Tiny,
        "small" => NetSize::Small,
        "large" => NetSize::Large,
        other => return Err(format!("unknown network size `{other}` (use tiny|small|large)")),
    };
    Ok((size, parse_scenario(level)?))
}

fn report_outcome(
    problem: &CppProblem,
    outcome: &PlanOutcome,
    validate: bool,
    quiet: bool,
) -> Result<(), String> {
    let s = &outcome.stats;
    match &outcome.plan {
        Some(plan) => {
            out!("{plan}");
            let m = plan_metrics(problem, &outcome.task, plan);
            outln!(
                "reserved bandwidth: LAN {:.1}, WAN {:.1}; total CPU {:.1}",
                m.reserved_lan_bw,
                m.reserved_wan_bw,
                m.total_cpu
            );
            if let Some(gap) = s.optimality_gap {
                print_gap(gap, plan.certificate.as_ref().is_some_and(|c| c.bound.gap_proved()));
            }
            if validate {
                let report = validate_plan(problem, &outcome.task, plan);
                if report.ok {
                    outln!(
                        "simulation: OK (real cost {:.2} ≥ bound {:.2})",
                        report.total_cost,
                        plan.cost_lower_bound
                    );
                } else {
                    for v in &report.violations {
                        eprintln!("simulation violation: {v}");
                    }
                    return Err("plan failed simulation".into());
                }
            }
        }
        None => {
            outln!("no plan found");
            if let Some(b) = s.best_bound {
                outln!("(optimal cost ≥ {b:.2})");
            }
            if s.budget_exhausted {
                outln!("(search budget exhausted — the instance may still be solvable)");
            }
        }
    }
    if !quiet {
        outln!("stats: {s}");
    }
    Ok(())
}

/// Print the `optimality gap:` line. `proved` is the plan certificate's
/// [`sekitei_cert::BoundTrail::gap_proved`]; a gap it does not prove is
/// labelled advisory.
fn print_gap(gap: f64, proved: bool) {
    match (gap > 0.0, proved) {
        (true, true) => outln!("optimality gap: ≤ {gap:.2}"),
        (true, false) => outln!("optimality gap: ≤ {gap:.2} (advisory)"),
        (false, true) => outln!("optimality gap: 0.00 (proved)"),
        (false, false) => outln!("optimality gap: 0.00 (advisory)"),
    }
}

/// Write a plan's certificate to `path` in the SKC1 wire form. Errors when
/// the outcome carried no certificate (no plan was found, or the plan
/// predates certificate emission).
fn write_cert(path: &str, cert: Option<&sekitei_cert::PlanCertificate>) -> Result<(), String> {
    let cert = cert.ok_or_else(|| format!("no certificate to emit to `{path}` (no plan)"))?;
    let bytes = sekitei_cert::encode_certificate(cert);
    std::fs::write(path, &bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    outln!("wrote certificate ({} bytes) to {path}", bytes.len());
    Ok(())
}

/// Everything `plan` reads from its command line.
#[derive(Default)]
struct PlanArgs {
    cfg: PlannerConfig,
    validate: bool,
    quiet: bool,
    path: Option<String>,
    scenario: Option<(NetSize, LevelScenario)>,
    emit_cert: Option<String>,
    obs: ObsOpts,
}

fn parse_plan_args(args: &[String]) -> Result<PlanArgs, String> {
    let mut a = PlanArgs::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scenario" => {
                i += 1;
                let v = args.get(i).ok_or("--scenario needs a value like small-b")?;
                a.scenario = Some(parse_size_level(v)?);
            }
            "--emit-cert" => {
                i += 1;
                a.emit_cert = Some(args.get(i).ok_or("--emit-cert needs a file path")?.clone());
            }
            "--trace-json" => {
                i += 1;
                a.obs.trace_json =
                    Some(args.get(i).ok_or("--trace-json needs a file path")?.clone());
            }
            "--profile" => a.obs.profile = true,
            "--plrg-heuristic" => a.cfg.heuristic = Heuristic::PlrgMax,
            "--no-replay-pruning" => a.cfg.replay_pruning = false,
            // escape hatch for the search-quality pruning layer: orbit
            // symmetry breaking off
            "--no-prune" => a.cfg.symmetry = false,
            "--degrade" => a.cfg.degrade = true,
            "--validate" => a.validate = true,
            "--quiet" => a.quiet = true,
            _ if parse_planner_flag(&mut a.cfg, args, &mut i)? => {}
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            f if a.path.is_none() => a.path = Some(f.to_string()),
            f => return Err(format!("unexpected argument `{f}`\n{USAGE}")),
        }
        i += 1;
    }
    Ok(a)
}

fn cmd_plan(args: &[String]) -> Result<(), String> {
    let PlanArgs { cfg, validate, quiet, path, scenario, emit_cert, obs } = parse_plan_args(args)?;
    let problem = match (path, scenario) {
        (Some(p), None) => load(&p)?,
        (None, Some((size, level))) => scenarios::problem(size, level),
        (Some(_), Some(_)) => {
            return Err(format!("plan takes either a spec file or --scenario, not both\n{USAGE}"))
        }
        (None, None) => return Err(USAGE.into()),
    };
    obs.begin();
    let planned =
        sekitei_anytime::plan(&problem, &cfg).map(|a| a.outcome).map_err(|e| e.to_string());
    let emitted = obs.finish("plan");
    let outcome = planned?;
    emitted?;
    report_outcome(&problem, &outcome, validate, quiet)?;
    if let Some(path) = &emit_cert {
        write_cert(path, outcome.plan.as_ref().and_then(|p| p.certificate.as_ref()))?;
    }
    Ok(())
}

fn cmd_batch(args: &[String]) -> Result<(), String> {
    let mut files: Vec<String> = Vec::new();
    let mut threads: Option<usize> = None;
    let mut cfg = PlannerConfig::default();
    let mut quiet = false;
    let mut validate = false;
    let mut emit_cert: Option<String> = None;
    let mut obs = ObsOpts::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--threads" => {
                i += 1;
                let v = args.get(i).ok_or("--threads needs a value")?;
                threads = Some(v.parse().map_err(|_| format!("bad --threads value `{v}`"))?);
            }
            "--no-prune" => cfg.symmetry = false,
            "--quiet" => quiet = true,
            "--validate" => validate = true,
            "--emit-cert" => {
                i += 1;
                emit_cert = Some(args.get(i).ok_or("--emit-cert needs a file path")?.clone());
            }
            "--trace-json" => {
                i += 1;
                obs.trace_json = Some(args.get(i).ok_or("--trace-json needs a file path")?.clone());
            }
            "--profile" => obs.profile = true,
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            f => files.push(f.to_string()),
        }
        i += 1;
    }
    if files.is_empty() {
        return Err(format!("batch needs at least one spec file\n{USAGE}"));
    }
    let problems = files.iter().map(|f| load(f)).collect::<Result<Vec<_>, String>>()?;
    let planner = Planner::new(cfg);
    obs.begin();
    let outcomes = match threads {
        Some(t) => planner.plan_batch_with(&problems, t),
        None => planner.plan_batch(&problems),
    };
    // the profile table sums every instance's "plan" span into one breakdown
    obs.finish("plan")?;
    let mut failures = 0usize;
    for (idx, ((file, problem), outcome)) in files.iter().zip(&problems).zip(outcomes).enumerate() {
        outln!("=== {file} ===");
        match outcome {
            Ok(o) => {
                if let Err(e) = report_outcome(problem, &o, validate, quiet) {
                    eprintln!("{e}");
                    failures += 1;
                } else if let Some(base) = &emit_cert {
                    // one certificate per instance, suffixed by position
                    let path = format!("{base}.{idx}");
                    let cert = o.plan.as_ref().and_then(|p| p.certificate.as_ref());
                    if let Err(e) = write_cert(&path, cert) {
                        eprintln!("{e}");
                        failures += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        Err(format!("{failures} of {} instances failed", files.len()))
    } else {
        Ok(())
    }
}

/// Default serving address shared by `serve` and `request`.
const DEFAULT_ADDR: &str = "127.0.0.1:7421";

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use sekitei_server::{Server, ServerConfig};

    let mut addr = DEFAULT_ADDR.to_string();
    let mut cfg = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let need = |v: Option<&String>, flag: &str| {
            v.cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = need(args.get(i), "--addr")?;
            }
            "--workers" => {
                i += 1;
                let v = need(args.get(i), "--workers")?;
                cfg.workers = v.parse().map_err(|_| format!("bad --workers value `{v}`"))?;
            }
            "--cache-file" => {
                i += 1;
                cfg.cache_file = Some(need(args.get(i), "--cache-file")?.into());
            }
            "--queue-cap" => {
                i += 1;
                let v = need(args.get(i), "--queue-cap")?;
                cfg.queue_cap = v.parse().map_err(|_| format!("bad --queue-cap value `{v}`"))?;
            }
            "--cache-cap" => {
                i += 1;
                let v = need(args.get(i), "--cache-cap")?;
                cfg.cache_cap = v.parse().map_err(|_| format!("bad --cache-cap value `{v}`"))?;
            }
            "--no-degrade" => cfg.planner.degrade = false,
            _ if parse_planner_flag(&mut cfg.planner, args, &mut i)? => {}
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    let server =
        Server::bind(addr.as_str(), cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    outln!("sekitei serving on {local} (stop with `sekitei request --shutdown --addr {local}`)");
    server.run().map_err(|e| e.to_string())
}

fn cmd_request(args: &[String]) -> Result<(), String> {
    use sekitei_server::{
        request_flight_recorder, request_metrics, request_shutdown, request_stats, Connection,
    };

    let mut addr = DEFAULT_ADDR.to_string();
    let mut file: Option<String> = None;
    let mut stats = false;
    let mut metrics = false;
    let mut flight = false;
    let mut shutdown = false;
    let mut profile = false;
    let mut priority = sekitei_server::Priority::Normal;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = args.get(i).cloned().ok_or("--addr needs a value")?;
            }
            "--stats" => stats = true,
            "--metrics" => metrics = true,
            "--flight" => flight = true,
            "--shutdown" => shutdown = true,
            "--profile" => profile = true,
            "--priority" => {
                i += 1;
                priority = match args.get(i).map(String::as_str) {
                    Some("high") => sekitei_server::Priority::High,
                    Some("normal") => sekitei_server::Priority::Normal,
                    Some("low") => sekitei_server::Priority::Low,
                    Some(other) => {
                        return Err(format!("bad --priority `{other}` (use high|normal|low)"))
                    }
                    None => return Err("--priority needs a value".into()),
                };
            }
            f if f.starts_with("--") => return Err(format!("unknown flag `{f}`")),
            f => file = Some(f.to_string()),
        }
        i += 1;
    }
    match (file, stats, metrics, flight, shutdown) {
        (None, true, false, false, false) => {
            let s = request_stats(addr.as_str()).map_err(|e| e.to_string())?;
            outln!("{s}");
            Ok(())
        }
        (None, false, true, false, false) => {
            let text = request_metrics(addr.as_str()).map_err(|e| e.to_string())?;
            // validate before showing: a scrape the parser rejects is a
            // server bug worth failing loudly on
            sekitei_obs::parse_exposition(&text)
                .map_err(|e| format!("served exposition invalid: {e}"))?;
            out!("{text}");
            Ok(())
        }
        (None, false, false, true, false) => {
            let text = request_flight_recorder(addr.as_str()).map_err(|e| e.to_string())?;
            let dump = sekitei_server::parse_dump(&text)
                .map_err(|e| format!("served flight dump invalid: {e}"))?;
            out!("{text}");
            eprintln!(
                "flight recorder: {} records, {} exemplars, {} evicted",
                dump.records.len(),
                dump.exemplars.len(),
                dump.evicted
            );
            Ok(())
        }
        (None, false, false, false, true) => {
            request_shutdown(addr.as_str()).map_err(|e| e.to_string())?;
            outln!("server at {addr} shut down");
            Ok(())
        }
        (Some(path), false, false, false, false) => {
            let t_parse = std::time::Instant::now();
            let problem = load(&path)?;
            let parse_us = t_parse.elapsed().as_micros() as u64;

            let t_encode = std::time::Instant::now();
            let bytes = sekitei_spec::encode(&problem);
            let encode_us = t_encode.elapsed().as_micros() as u64;
            // fingerprint as trace id: the id shows up verbatim in the
            // server's flight records, so a tail-latency exemplar can be
            // tied back to this exact request
            let trace_id = sekitei_server::content_hash(&bytes).max(1);

            let t_connect = std::time::Instant::now();
            let mut conn = Connection::connect(addr.as_str()).map_err(|e| e.to_string())?;
            let connect_us = t_connect.elapsed().as_micros() as u64;

            let t_rtt = std::time::Instant::now();
            let served = conn
                .plan_bytes_traced(&bytes, trace_id, profile, priority)
                .map_err(|e| e.to_string())?;
            let rtt_us = t_rtt.elapsed().as_micros() as u64;

            report_wire_outcome(&served.outcome, served.served_via);
            if let Some(bytes) = &served.outcome.certificate {
                // the client compiles the task itself, so the check is
                // independent of everything the server claimed
                let task = compile(&problem).map_err(|e| e.to_string())?;
                let cert = sekitei_cert::decode_certificate(bytes)
                    .map_err(|e| format!("served certificate undecodable: {e}"))?;
                let rep = sekitei_cert::check_certificate(&task, &cert)
                    .map_err(|v| format!("served certificate INVALID: {v}"))?;
                outln!(
                    "certificate: verified ({} outcome, {} steps, {} ledger entries, gap {})",
                    rep.outcome,
                    rep.steps,
                    rep.ledger_entries,
                    if rep.gap_proved { "proved" } else { "advisory" },
                );
            }
            if profile {
                eprint!(
                    "{}",
                    stitched_profile(
                        trace_id,
                        &[
                            ("parse", parse_us),
                            ("encode", encode_us),
                            ("connect", connect_us),
                            ("exchange", rtt_us),
                        ],
                        rtt_us,
                        &served.phases,
                    )
                );
            }
            Ok(())
        }
        _ => Err(format!(
            "request needs exactly one of <spec-file>, --stats, --metrics, --flight, --shutdown\n{USAGE}"
        )),
    }
}

/// Render the client's own phases with the server's self-time table
/// stitched in under `exchange`, so one table covers the full request
/// path: wire + queueing on the client side, planning phases on the
/// server side.
fn stitched_profile(
    trace_id: u64,
    client: &[(&str, u64)],
    rtt_us: u64,
    server: &[sekitei_spec::WirePhase],
) -> String {
    let mut out = format!("profile for trace {trace_id:#018x} (client + server):\n");
    for (name, us) in client {
        out.push_str(&format!("  client {name:<12} {:>10.1} µs\n", *us as f64));
        if *name == "exchange" {
            let mut server_us_total = 0.0;
            for phase in server {
                let us = phase.self_ns as f64 / 1_000.0;
                server_us_total += us;
                out.push_str(&format!(
                    "    server {:<12} {us:>10.1} µs  ×{}\n",
                    phase.name, phase.count
                ));
            }
            if !server.is_empty() {
                let wire_us = rtt_us as f64 - server_us_total;
                out.push_str(&format!(
                    "    wire + framing   {:>10.1} µs  (exchange − server self-times)\n",
                    wire_us.max(0.0)
                ));
            }
        }
    }
    if server.is_empty() {
        out.push_str("  (server returned no phase table — is it older than the profile flag?)\n");
    }
    out
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    use sekitei_server::{loadgen, LoadgenConfig, ScenarioItem};
    use std::net::ToSocketAddrs;

    let mut addr = DEFAULT_ADDR.to_string();
    let mut cfg = LoadgenConfig::default();
    let mut corpus_size = NetSize::Tiny;
    let mut bench_json: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        let need = |v: Option<&String>, flag: &str| {
            v.cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                addr = need(args.get(i), "--addr")?;
            }
            "--requests" => {
                i += 1;
                let v = need(args.get(i), "--requests")?;
                cfg.requests = v.parse().map_err(|_| format!("bad --requests value `{v}`"))?;
            }
            "--connections" => {
                i += 1;
                let v = need(args.get(i), "--connections")?;
                cfg.connections =
                    v.parse().map_err(|_| format!("bad --connections value `{v}`"))?;
            }
            "--seed" => {
                i += 1;
                let v = need(args.get(i), "--seed")?;
                cfg.seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--zipf-s" => {
                i += 1;
                let v = need(args.get(i), "--zipf-s")?;
                cfg.zipf_s = v.parse().map_err(|_| format!("bad --zipf-s value `{v}`"))?;
            }
            "--pipeline" => {
                i += 1;
                let v = need(args.get(i), "--pipeline")?;
                cfg.pipeline = v.parse().map_err(|_| format!("bad --pipeline value `{v}`"))?;
            }
            "--rate" => {
                i += 1;
                let v = need(args.get(i), "--rate")?;
                cfg.rate_per_s = Some(v.parse().map_err(|_| format!("bad --rate value `{v}`"))?);
            }
            "--burst" => {
                i += 1;
                let v = need(args.get(i), "--burst")?;
                cfg.burst = v.parse().map_err(|_| format!("bad --burst value `{v}`"))?;
            }
            "--verify-every" => {
                i += 1;
                let v = need(args.get(i), "--verify-every")?;
                cfg.verify_every =
                    v.parse().map_err(|_| format!("bad --verify-every value `{v}`"))?;
            }
            "--low-every" => {
                i += 1;
                let v = need(args.get(i), "--low-every")?;
                cfg.low_every = v.parse().map_err(|_| format!("bad --low-every value `{v}`"))?;
            }
            "--corpus" => {
                i += 1;
                corpus_size = match need(args.get(i), "--corpus")?.as_str() {
                    "tiny" => NetSize::Tiny,
                    "small" => NetSize::Small,
                    "large" => NetSize::Large,
                    other => {
                        return Err(format!("unknown corpus `{other}` (use tiny|small|large)"))
                    }
                };
            }
            "--bench-json" => {
                i += 1;
                bench_json = Some(need(args.get(i), "--bench-json")?);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    // rank order = level order, so Zipf makes A the hot key
    let corpus: Vec<ScenarioItem> =
        [LevelScenario::A, LevelScenario::B, LevelScenario::C, LevelScenario::D, LevelScenario::E]
            .into_iter()
            .map(|sc| {
                ScenarioItem::new(
                    format!("{}/{sc:?}", corpus_size.label()),
                    scenarios::problem(corpus_size, sc),
                )
            })
            .collect();

    let sock = addr
        .as_str()
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve `{addr}`: {e}"))?
        .next()
        .ok_or_else(|| format!("`{addr}` resolves to no address"))?;
    let report = loadgen::run(&cfg, sock, &corpus).map_err(|e| e.to_string())?;
    out!("{}", report.deterministic);
    eprint!("{}", report.timing);
    if let Some(path) = bench_json {
        std::fs::write(&path, &report.bench_json)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Print a served outcome; mirrors [`report_outcome`] for wire-form data.
fn report_wire_outcome(outcome: &sekitei_spec::WireOutcome, served_via: sekitei_server::ServedVia) {
    let print_wire_gap = || {
        if let Some(gap) = outcome.optimality_gap {
            let cert = outcome.certificate.as_deref().map(sekitei_cert::decode_certificate);
            print_gap(gap, matches!(cert, Some(Ok(c)) if c.bound.gap_proved()));
        }
    };
    match &outcome.plan {
        Some(plan) => {
            outln!(
                "plan: {} actions, cost ≥ {:.2}{}",
                plan.steps.len(),
                plan.cost_lower_bound,
                if plan.degraded { " [degraded]" } else { "" }
            );
            for step in &plan.steps {
                outln!("  {} (cost ≥ {:.2})", step.name, step.cost_lb);
            }
            for (gvar, value) in &plan.source_values {
                outln!("  source var #{gvar} = {value}");
            }
            print_wire_gap();
        }
        None => {
            outln!("no plan found");
            if let Some(b) = outcome.best_bound {
                outln!("(optimal cost ≥ {b:.2})");
            }
            // parity with `plan`: older servers shipped a gap even after
            // dropping a sim-rejected plan — surface it rather than
            // silently discarding the field
            print_wire_gap();
            if outcome.stats.budget_exhausted {
                outln!("(search budget exhausted — the instance may still be solvable)");
            }
        }
    }
    let s = &outcome.stats;
    outln!(
        "stats: rg nodes {}, rejects {}, search {} µs, total {} µs{}{}{}",
        s.rg_nodes,
        s.candidate_rejects,
        s.search_time_us,
        s.total_time_us,
        if s.deadline_hit { " [deadline hit]" } else { "" },
        if s.budget_exhausted && !s.deadline_hit { " [budget exhausted]" } else { "" },
        match served_via {
            sekitei_server::ServedVia::Computed => "",
            sekitei_server::ServedVia::Cache => " [cache hit]",
            sekitei_server::ServedVia::Coalesced => " [coalesced]",
        },
    );
}

fn cmd_verify_cert(args: &[String]) -> Result<(), String> {
    use sekitei_cert::{check_certificate, decode_certificate};

    let (spec, cert_path) = match args {
        [s, c] => (s, c),
        _ => return Err(format!("verify-cert needs <spec-file> <cert-file>\n{USAGE}")),
    };
    // spec + compiler only — the checker shares no code with the search,
    // so a verify-cert pass is an independent audit of the plan
    let problem = load(spec)?;
    let task = compile(&problem).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(cert_path).map_err(|e| format!("cannot read `{cert_path}`: {e}"))?;
    let cert = decode_certificate(&bytes).map_err(|e| format!("{cert_path}: {e}"))?;
    let report = check_certificate(&task, &cert)
        .map_err(|v| format!("{cert_path}: certificate INVALID: {v}"))?;
    outln!(
        "{cert_path}: certificate OK — {} outcome, {} steps, {} ledger entries, cost ≥ {:.2}, gap {}",
        report.outcome,
        report.steps,
        report.ledger_entries,
        cert.bound.plan_cost,
        match cert.bound.claimed_gap {
            Some(g) if report.gap_proved => format!("≤ {g:.2} (proved)"),
            Some(g) => format!("≤ {g:.2} (advisory)"),
            None => "unbounded (feasibility only)".into(),
        }
    );
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let p = load(path)?;
    outln!(
        "{path}: OK — {} nodes, {} links, {} interfaces, {} components, {} sources, {} goals",
        p.network.num_nodes(),
        p.network.num_links(),
        p.interfaces.len(),
        p.components.len(),
        p.sources.len(),
        p.goals.len()
    );
    Ok(())
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let dump = args.iter().any(|a| a == "--dump");
    let p = load(path)?;
    let task = compile(&p).map_err(|e| e.to_string())?;
    outln!(
        "{} ground actions ({} built, {} level combinations pruned), {} propositions, {} variables, \
         {:?}",
        task.stats.actions,
        task.stats.built,
        task.stats.pruned,
        task.stats.props,
        task.stats.gvars,
        task.stats.compile_time
    );
    if dump {
        for a in &task.actions {
            outln!("  {} (cost ≥ {:.2})", a.name, a.cost);
        }
    }
    Ok(())
}

fn parse_scenario(s: &str) -> Result<LevelScenario, String> {
    match s {
        "A" | "a" => Ok(LevelScenario::A),
        "B" | "b" => Ok(LevelScenario::B),
        "C" | "c" => Ok(LevelScenario::C),
        "D" | "d" => Ok(LevelScenario::D),
        "E" | "e" => Ok(LevelScenario::E),
        other => Err(format!("unknown level scenario `{other}` (use A–E)")),
    }
}

fn cmd_scenario(args: &[String]) -> Result<(), String> {
    let size = match args.first().map(String::as_str) {
        Some("tiny") => NetSize::Tiny,
        Some("small") => NetSize::Small,
        Some("large") => NetSize::Large,
        other => return Err(format!("unknown network size `{other:?}`\n{USAGE}")),
    };
    let sc = parse_scenario(args.get(1).ok_or(USAGE)?)?;
    let problem = scenarios::problem(size, sc);
    if args.iter().any(|a| a == "--emit") {
        out!("{}", sekitei_spec::print_problem(&problem));
        return Ok(());
    }
    let validate = args.iter().any(|a| a == "--validate");
    let outcome = Planner::default().plan(&problem).map_err(|e| e.to_string())?;
    report_outcome(&problem, &outcome, validate, false)
}

fn cmd_tradeoff(args: &[String]) -> Result<(), String> {
    let w: f64 = args
        .first()
        .ok_or(USAGE)?
        .parse()
        .map_err(|_| "tradeoff needs a numeric link-cost weight")?;
    let problem = scenarios::tradeoff(w);
    let outcome = Planner::default().plan(&problem).map_err(|e| e.to_string())?;
    report_outcome(&problem, &outcome, false, false)
}

fn cmd_doctor(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let problem = load(path)?;
    let d = sekitei_planner::diagnose(&problem, &PlannerConfig::default())
        .map_err(|e| e.to_string())?;
    outln!("{d}");
    Ok(())
}

fn cmd_suggest(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let mut problem = load(path)?;
    let mut headroom = 1.0 / 9.0;
    let mut apply = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--headroom" => {
                i += 1;
                headroom = args
                    .get(i)
                    .ok_or("--headroom needs a value")?
                    .parse()
                    .map_err(|_| "bad --headroom value")?;
            }
            "--apply" => apply = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    let suggestions = sekitei_model::suggest_levels(&problem, headroom);
    if suggestions.is_empty() {
        outln!("no demand constraints found — nothing to suggest");
        return Ok(());
    }
    for s in &suggestions {
        let cuts: Vec<String> = s.cutpoints.iter().map(f64::to_string).collect();
        outln!("levels {}.{} [{}]", s.iface, s.prop, cuts.join(", "));
    }
    if apply {
        let n = sekitei_model::apply_suggestions(&mut problem, &suggestions);
        outln!("\n# applied to {n} interface properties; updated spec follows\n");
        out!("{}", sekitei_spec::print_problem(&problem));
    }
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or(USAGE)?;
    let problem = load(path)?;
    if args.iter().any(|a| a == "--plan") {
        let outcome = Planner::default().plan(&problem).map_err(|e| e.to_string())?;
        match &outcome.plan {
            Some(plan) => out!("{}", sekitei_planner::plan_dot(&problem, plan)),
            None => return Err("no plan found — nothing to draw".into()),
        }
    } else {
        out!("{}", sekitei_planner::network_dot(&problem));
    }
    Ok(())
}

fn cmd_adapt(args: &[String]) -> Result<(), String> {
    use sekitei_model::adapt::{adapt_problem, AdaptConfig};
    use sekitei_model::{ExistingDeployment, ExistingPlacement};

    let path = args.first().ok_or(USAGE)?;
    let problem = load(path)?;
    let mut cfg = AdaptConfig::default();
    let mut existing = ExistingDeployment::default();
    let mut validate = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--existing" => {
                i += 1;
                let spec = args.get(i).ok_or("--existing needs Comp@node")?;
                let (comp, node_name) =
                    spec.split_once('@').ok_or_else(|| format!("bad --existing `{spec}`"))?;
                let node = problem
                    .network
                    .node_by_name(node_name)
                    .ok_or_else(|| format!("unknown node `{node_name}`"))?;
                if problem.comp_id(comp).is_none() {
                    return Err(format!("unknown component `{comp}`"));
                }
                existing.placements.push(ExistingPlacement { component: comp.to_string(), node });
            }
            "--keep-cost" => {
                i += 1;
                cfg.keep_cost = args
                    .get(i)
                    .ok_or("--keep-cost needs a value")?
                    .parse()
                    .map_err(|_| "bad --keep-cost value")?;
            }
            "--migration-factor" => {
                i += 1;
                cfg.migration_factor = args
                    .get(i)
                    .ok_or("--migration-factor needs a value")?
                    .parse()
                    .map_err(|_| "bad --migration-factor value")?;
            }
            "--validate" => validate = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    if existing.placements.is_empty() {
        return Err("adapt needs at least one --existing Comp@node".into());
    }
    let adapted = adapt_problem(&problem, &existing, &cfg);
    let outcome = Planner::default().plan(&adapted).map_err(|e| e.to_string())?;
    report_outcome(&adapted, &outcome, validate, false)
}

fn cmd_churn(args: &[String]) -> Result<(), String> {
    use sekitei_churn::{engine, generate, parse_trace, render_trace, ChurnConfig};

    let mut size = NetSize::Tiny;
    let mut level = LevelScenario::C;
    let mut seed = 0u64;
    let mut events = 50usize;
    let mut trace_file: Option<String> = None;
    let mut emit_trace = false;
    let mut emit_cert: Option<String> = None;
    let mut quiet = false;
    let mut cfg = ChurnConfig::default();
    let mut obs = ObsOpts::default();
    let mut i = 0;
    while i < args.len() {
        let need = |v: Option<&String>, flag: &str| {
            v.cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match args[i].as_str() {
            "--scenario" => {
                i += 1;
                size = match need(args.get(i), "--scenario")?.as_str() {
                    "tiny" => NetSize::Tiny,
                    "small" => NetSize::Small,
                    "large" => NetSize::Large,
                    other => return Err(format!("unknown network size `{other}`")),
                };
            }
            "--level" => {
                i += 1;
                level = parse_scenario(&need(args.get(i), "--level")?)?;
            }
            "--seed" => {
                i += 1;
                let v = need(args.get(i), "--seed")?;
                seed = v.parse().map_err(|_| format!("bad --seed value `{v}`"))?;
            }
            "--events" => {
                i += 1;
                let v = need(args.get(i), "--events")?;
                events = v.parse().map_err(|_| format!("bad --events value `{v}`"))?;
            }
            "--trace" => {
                i += 1;
                trace_file = Some(need(args.get(i), "--trace")?);
            }
            "--emit-trace" => emit_trace = true,
            "--emit-cert" => {
                i += 1;
                emit_cert = Some(need(args.get(i), "--emit-cert")?);
            }
            "--no-degrade" => cfg.planner.degrade = false,
            "--keep-cost" => {
                i += 1;
                let v = need(args.get(i), "--keep-cost")?;
                cfg.adapt.keep_cost = v.parse().map_err(|_| "bad --keep-cost value")?;
            }
            "--migration-factor" => {
                i += 1;
                let v = need(args.get(i), "--migration-factor")?;
                cfg.adapt.migration_factor =
                    v.parse().map_err(|_| "bad --migration-factor value")?;
            }
            "--quiet" => quiet = true,
            "--trace-json" => {
                i += 1;
                obs.trace_json = Some(need(args.get(i), "--trace-json")?);
            }
            "--profile" => obs.profile = true,
            _ if parse_planner_flag(&mut cfg.planner, args, &mut i)? => {}
            other => return Err(format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    let problem = scenarios::problem(size, level);
    let trace = match &trace_file {
        Some(path) => {
            let src =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            parse_trace(&src, &problem.network).map_err(|e| e.to_string())?
        }
        None => {
            let profile = scenarios::churn_profile(size, &problem);
            generate(&problem.network, &profile, seed, events)
        }
    };
    if emit_trace {
        out!("{}", render_trace(&trace, &problem.network));
        return Ok(());
    }

    obs.begin();
    let ran = engine::run(&problem, &trace, &cfg).map_err(|e| e.to_string());
    // trace/profile go to a file and stderr — the deterministic stdout
    // report below is untouched by observability
    let emitted = obs.finish("churn_run");
    let report = ran?;
    emitted?;
    if !quiet {
        for r in &report.records {
            outln!("{}", r.render(&problem));
        }
    }
    out!("{}", report.summary.render());
    // wall-clock: real but not reproducible, so stderr only
    eprint!("{}", report.summary.render_timing());
    if let Some(path) = &emit_cert {
        // the initial deployment's certificate; repairs carry their own
        // (re-bound) certificates in the per-event records
        write_cert(path, report.initial_certificate.as_ref())?;
    }
    Ok(())
}

fn cmd_encode(args: &[String]) -> Result<(), String> {
    let (src, dst) = match args {
        [s, d, ..] => (s, d),
        _ => return Err(USAGE.into()),
    };
    let p = load(src)?;
    let bytes = sekitei_spec::encode(&p);
    std::fs::write(dst, &bytes).map_err(|e| format!("cannot write `{dst}`: {e}"))?;
    outln!("wrote {} bytes to {dst}", bytes.len());
    Ok(())
}

fn cmd_decode(args: &[String]) -> Result<(), String> {
    let src = args.first().ok_or(USAGE)?;
    let bytes = std::fs::read(src).map_err(|e| format!("cannot read `{src}`: {e}"))?;
    let p = sekitei_spec::decode(&bytes).map_err(|e| e.to_string())?;
    out!("{}", sekitei_spec::print_problem(&p));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// Tracing state is process-global: tests that enable it must not
    /// overlap, or one test's drain steals another's records.
    static OBS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn help_and_unknown() {
        assert!(dispatch(&s(&["help"])).is_ok());
        assert!(dispatch(&[]).is_ok());
        assert!(dispatch(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn scenario_tiny_plans() {
        dispatch(&s(&["scenario", "tiny", "C", "--validate"])).unwrap();
        dispatch(&s(&["scenario", "tiny", "A"])).unwrap();
        assert!(dispatch(&s(&["scenario", "tiny", "Q"])).is_err());
        assert!(dispatch(&s(&["scenario", "galactic", "C"])).is_err());
    }

    #[test]
    fn scenario_emit_reparses() {
        // --emit goes to stdout; at least ensure it doesn't error
        dispatch(&s(&["scenario", "tiny", "D", "--emit"])).unwrap();
    }

    #[test]
    fn tradeoff_runs() {
        dispatch(&s(&["tradeoff", "0.5"])).unwrap();
        assert!(dispatch(&s(&["tradeoff", "cheap"])).is_err());
    }

    #[test]
    fn plan_file_roundtrip() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_test.spec");
        let bin_path = dir.join("sekitei_cli_test.bin");
        let p = scenarios::tiny(LevelScenario::C);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(&[s(&["check"]), vec![sp.clone()]].concat()).unwrap();
        dispatch(&[s(&["plan"]), vec![sp.clone()], s(&["--validate", "--quiet"])].concat())
            .unwrap();
        dispatch(&[s(&["compile"]), vec![sp.clone()]].concat()).unwrap();
        let bp = bin_path.to_str().unwrap().to_string();
        dispatch(&[s(&["encode"]), vec![sp, bp.clone()]].concat()).unwrap();
        dispatch(&[s(&["decode"]), vec![bp]].concat()).unwrap();
    }

    #[test]
    fn no_prune_escape_hatch() {
        // `--no-prune` must parse on both plan and batch and still solve
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_noprune.spec");
        let p = scenarios::tiny(LevelScenario::B);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(
            &[s(&["plan"]), vec![sp.clone()], s(&["--no-prune", "--validate", "--quiet"])].concat(),
        )
        .unwrap();
        dispatch(&[s(&["batch"]), vec![sp], s(&["--no-prune", "--quiet"])].concat()).unwrap();
        // and the flag actually flips the config off
        let cfg = parse_plan_args(&s(&["--no-prune"])).unwrap().cfg;
        assert!(!cfg.symmetry);
        let cfg = parse_plan_args(&[]).unwrap().cfg;
        assert!(cfg.symmetry, "pruning defaults on");
    }

    #[test]
    fn suggest_command() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_suggest.spec");
        let p = scenarios::tiny(LevelScenario::A);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(&[s(&["suggest"]), vec![sp.clone()]].concat()).unwrap();
        dispatch(
            &[s(&["suggest"]), vec![sp.clone()], s(&["--headroom", "0.2", "--apply"])].concat(),
        )
        .unwrap();
        assert!(dispatch(&[s(&["suggest"]), vec![sp], s(&["--headroom", "x"])].concat()).is_err());
    }

    #[test]
    fn dot_command() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_dot.spec");
        let p = scenarios::tiny(LevelScenario::C);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(&[s(&["dot"]), vec![sp.clone()]].concat()).unwrap();
        dispatch(&[s(&["dot"]), vec![sp], s(&["--plan"])].concat()).unwrap();
        // unsolvable plan dot errors cleanly
        let mut q = scenarios::tiny(LevelScenario::A);
        q.sources.clear();
        let qp = dir.join("sekitei_cli_dot_bad.spec");
        std::fs::write(&qp, sekitei_spec::print_problem(&q)).unwrap();
        assert!(dispatch(
            &[s(&["dot"]), vec![qp.to_str().unwrap().into()], s(&["--plan"])].concat()
        )
        .is_err());
    }

    #[test]
    fn doctor_command() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_doctor.spec");
        // unsolvable: strip the source
        let mut p = scenarios::tiny(LevelScenario::C);
        p.sources.clear();
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(&[s(&["doctor"]), vec![sp]].concat()).unwrap();
        assert!(dispatch(&s(&["doctor", "/nonexistent.spec"])).is_err());
    }

    #[test]
    fn adapt_command() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_adapt.spec");
        let p = scenarios::tiny(LevelScenario::C);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&["adapt"]),
                vec![sp.clone()],
                s(&["--existing", "Splitter@n0", "--existing", "Client@n1", "--validate"]),
            ]
            .concat(),
        )
        .unwrap();
        // error paths
        assert!(dispatch(&[s(&["adapt"]), vec![sp.clone()]].concat()).is_err());
        assert!(dispatch(
            &[s(&["adapt"]), vec![sp.clone()], s(&["--existing", "Ghost@n0"])].concat()
        )
        .is_err());
        assert!(dispatch(&[s(&["adapt"]), vec![sp], s(&["--existing", "Splitter@mars"])].concat())
            .is_err());
    }

    #[test]
    fn churn_command() {
        dispatch(&s(&["churn", "--scenario", "tiny", "--seed", "7", "--events", "10", "--quiet"]))
            .unwrap();
        dispatch(&s(&["churn", "--seed", "3", "--events", "5", "--emit-trace"])).unwrap();
        // replay a hand-written trace file
        let dir = std::env::temp_dir();
        let trace_path = dir.join("sekitei_cli_churn.trace");
        std::fs::write(&trace_path, "@10 link n0 n1 lbw 60\n@20 link n0 n1 lbw 70\n").unwrap();
        dispatch(
            &[
                s(&["churn", "--scenario", "tiny", "--trace"]),
                vec![trace_path.to_str().unwrap().into()],
                s(&["--max-nodes", "100000", "--keep-cost", "0.4"]),
            ]
            .concat(),
        )
        .unwrap();
        // error paths
        assert!(dispatch(&s(&["churn", "--scenario", "galactic"])).is_err());
        assert!(dispatch(&s(&["churn", "--seed", "many"])).is_err());
        assert!(dispatch(&s(&["churn", "--trace", "/nonexistent.trace"])).is_err());
        assert!(dispatch(&s(&["churn", "--frob"])).is_err());
    }

    #[test]
    fn batch_command() {
        let dir = std::env::temp_dir();
        let mut sps = Vec::new();
        for (i, sc) in [LevelScenario::B, LevelScenario::C, LevelScenario::A].iter().enumerate() {
            let spec_path = dir.join(format!("sekitei_cli_batch_{i}.spec"));
            let p = scenarios::tiny(*sc);
            std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
            sps.push(spec_path.to_str().unwrap().to_string());
        }
        // A finds no plan but that is a reported outcome, not a failure
        dispatch(&[s(&["batch"]), sps.clone(), s(&["--quiet"])].concat()).unwrap();
        dispatch(&[s(&["batch"]), sps.clone(), s(&["--threads", "2", "--quiet"])].concat())
            .unwrap();
        assert!(dispatch(&s(&["batch"])).is_err());
        assert!(dispatch(&[s(&["batch"]), sps.clone(), s(&["--threads"])].concat()).is_err());
        assert!(dispatch(&[s(&["batch"]), sps, s(&["--frob"])].concat()).is_err());
        assert!(dispatch(&s(&["batch", "/nonexistent/x.spec"])).is_err());
    }

    #[test]
    fn serve_and_request_roundtrip() {
        use sekitei_server::{Server, ServerConfig};
        let server =
            Server::bind("127.0.0.1:0", ServerConfig { workers: 2, ..Default::default() }).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let join = std::thread::spawn(move || server.run());

        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_request.spec");
        let p = scenarios::tiny(LevelScenario::B);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(&[s(&["request"]), vec![sp.clone()], s(&["--addr", &addr])].concat()).unwrap();
        // warm repeat goes through the cache-hit path
        dispatch(&[s(&["request"]), vec![sp], s(&["--addr", &addr])].concat()).unwrap();
        dispatch(&[s(&["request", "--stats", "--addr"]), vec![addr.clone()]].concat()).unwrap();
        // request wants exactly one mode
        assert!(dispatch(
            &[s(&["request", "--stats", "--shutdown", "--addr"]), vec![addr.clone()]].concat()
        )
        .is_err());
        assert!(dispatch(&s(&["request"])).is_err());
        assert!(dispatch(&s(&["request", "--frob"])).is_err());
        dispatch(&[s(&["request", "--shutdown", "--addr"]), vec![addr]].concat()).unwrap();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn serve_flag_errors() {
        assert!(dispatch(&s(&["serve", "--workers", "many"])).is_err());
        assert!(dispatch(&s(&["serve", "--queue-cap", "-1"])).is_err());
        assert!(dispatch(&s(&["serve", "--addr"])).is_err());
        assert!(dispatch(&s(&["serve", "--frob"])).is_err());
    }

    #[test]
    fn plan_deadline_flags() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_deadline.spec");
        let p = scenarios::tiny(LevelScenario::B);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&["plan"]),
                vec![sp.clone()],
                s(&["--deadline-ms", "60000", "--degrade", "--quiet"]),
            ]
            .concat(),
        )
        .unwrap();
        assert!(
            dispatch(&[s(&["plan"]), vec![sp], s(&["--deadline-ms", "soon"])].concat()).is_err()
        );
    }

    #[test]
    fn plan_scenario_flag() {
        dispatch(&s(&["plan", "--scenario", "tiny-c", "--quiet"])).unwrap();
        dispatch(&s(&["plan", "--scenario", "TINY-C", "--quiet"])).unwrap();
        assert!(dispatch(&s(&["plan", "--scenario", "galactic-c"])).is_err());
        assert!(dispatch(&s(&["plan", "--scenario", "tiny-q"])).is_err());
        assert!(dispatch(&s(&["plan", "--scenario", "tinyc"])).is_err());
        assert!(dispatch(&s(&["plan", "--scenario"])).is_err());
        // a spec file and --scenario are mutually exclusive
        assert!(dispatch(&s(&["plan", "x.spec", "--scenario", "tiny-c"])).is_err());
        // two positional arguments are rejected
        assert!(dispatch(&s(&["plan", "x.spec", "y.spec"])).is_err());
    }

    #[test]
    fn plan_profile_and_trace_json() {
        let _g = OBS_LOCK.lock().unwrap();
        let path = std::env::temp_dir().join("sekitei_cli_plan_trace.jsonl");
        let tp = path.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&["plan", "--scenario", "small-b", "--quiet", "--profile", "--trace-json"]),
                vec![tp],
            ]
            .concat(),
        )
        .unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        for line in trace.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "bad JSON line: {line}");
        }
        for needle in [
            "\"name\":\"plan\"",
            "\"name\":\"compile\"",
            "\"name\":\"plrg\"",
            "\"name\":\"slrg\"",
            "\"name\":\"rg\"",
            "\"type\":\"meta\"",
        ] {
            assert!(trace.contains(needle), "trace missing {needle}");
        }
        // at least one span nests under a parent span
        assert!(trace
            .lines()
            .any(|l| l.contains("\"type\":\"span\"") && !l.contains("\"parent\":0,")));
        assert!(dispatch(&s(&["plan", "--scenario", "tiny-c", "--trace-json"])).is_err());
    }

    #[test]
    fn batch_profile_and_trace_json() {
        let _g = OBS_LOCK.lock().unwrap();
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_batch_obs.spec");
        let p = scenarios::tiny(LevelScenario::C);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        let trace_path = dir.join("sekitei_cli_batch_trace.jsonl");
        let tp = trace_path.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&["batch"]),
                vec![sp.clone(), sp],
                s(&["--quiet", "--profile", "--trace-json"]),
                vec![tp],
            ]
            .concat(),
        )
        .unwrap();
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        // two instances → two top-level plan spans
        assert!(trace.matches("\"name\":\"plan\"").count() >= 2);
    }

    #[test]
    fn churn_trace_json() {
        let _g = OBS_LOCK.lock().unwrap();
        let path = std::env::temp_dir().join("sekitei_cli_churn_trace.jsonl");
        let tp = path.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&[
                    "churn",
                    "--scenario",
                    "tiny",
                    "--seed",
                    "7",
                    "--events",
                    "10",
                    "--quiet",
                    "--profile",
                    "--trace-json",
                ]),
                vec![tp],
            ]
            .concat(),
        )
        .unwrap();
        let trace = std::fs::read_to_string(&path).unwrap();
        assert!(trace.contains("\"name\":\"churn_run\""));
        assert!(trace.contains("\"name\":\"churn_event\""));
        assert!(trace.contains("\"type\":\"meta\""));
    }

    #[test]
    fn plan_flags() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_flags.spec");
        let p = scenarios::tiny(LevelScenario::B);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&["plan"]),
                vec![sp.clone()],
                s(&["--plrg-heuristic", "--max-nodes", "100000", "--quiet"]),
            ]
            .concat(),
        )
        .unwrap();
        assert!(dispatch(&[s(&["plan"]), vec![sp], s(&["--bogus"])].concat()).is_err());
        assert!(dispatch(&s(&["plan", "/nonexistent/x.spec"])).is_err());
    }

    #[test]
    fn verify_cert_roundtrip() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_cert.spec");
        let p = scenarios::tiny(LevelScenario::C);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();
        let cert_path = dir.join("sekitei_cli_cert.skc1");
        let cp = cert_path.to_str().unwrap().to_string();

        dispatch(
            &[s(&["plan"]), vec![sp.clone()], s(&["--quiet", "--emit-cert"]), vec![cp.clone()]]
                .concat(),
        )
        .unwrap();
        dispatch(&[s(&["verify-cert"]), vec![sp.clone(), cp.clone()]].concat()).unwrap();

        // a single flipped byte must be caught with a nonzero exit
        let mut bytes = std::fs::read(&cert_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        let bad_path = dir.join("sekitei_cli_cert_bad.skc1");
        std::fs::write(&bad_path, &bytes).unwrap();
        let bp = bad_path.to_str().unwrap().to_string();
        assert!(dispatch(&[s(&["verify-cert"]), vec![sp.clone(), bp]].concat()).is_err());

        // a certificate for a different problem fails the fingerprint
        let other_path = dir.join("sekitei_cli_cert_other.spec");
        std::fs::write(
            &other_path,
            sekitei_spec::print_problem(&scenarios::tiny(LevelScenario::D)),
        )
        .unwrap();
        let op = other_path.to_str().unwrap().to_string();
        assert!(dispatch(&[s(&["verify-cert"]), vec![op, cp.clone()]].concat()).is_err());

        // argument errors
        assert!(dispatch(&s(&["verify-cert"])).is_err());
        assert!(dispatch(&[s(&["verify-cert"]), vec![sp.clone()]].concat()).is_err());
        assert!(dispatch(&[s(&["verify-cert"]), vec![sp, "/nonexistent.skc1".into()]].concat())
            .is_err());
    }

    #[test]
    fn emit_cert_on_batch_and_churn() {
        let dir = std::env::temp_dir();
        let spec_path = dir.join("sekitei_cli_cert_batch.spec");
        let p = scenarios::tiny(LevelScenario::C);
        std::fs::write(&spec_path, sekitei_spec::print_problem(&p)).unwrap();
        let sp = spec_path.to_str().unwrap().to_string();

        // batch writes one certificate per instance, suffixed by position
        let base = dir.join("sekitei_cli_cert_batch.skc1");
        let bp = base.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&["batch"]),
                vec![sp.clone(), sp.clone()],
                s(&["--quiet", "--emit-cert"]),
                vec![bp.clone()],
            ]
            .concat(),
        )
        .unwrap();
        for i in 0..2 {
            let each = format!("{bp}.{i}");
            dispatch(&[s(&["verify-cert"]), vec![sp.clone(), each]].concat()).unwrap();
        }

        // churn emits the initial deployment's certificate (defaults run
        // the tiny/C scenario, which `sp` holds the spec of)
        let churn_cert = dir.join("sekitei_cli_cert_churn.skc1");
        let chp = churn_cert.to_str().unwrap().to_string();
        dispatch(
            &[
                s(&["churn", "--scenario", "tiny", "--seed", "7", "--events", "5", "--quiet"]),
                s(&["--emit-cert"]),
                vec![chp.clone()],
            ]
            .concat(),
        )
        .unwrap();
        dispatch(&[s(&["verify-cert"]), vec![sp, chp]].concat()).unwrap();

        // an unsolvable instance has no certificate to emit
        let bad_spec = dir.join("sekitei_cli_cert_unsolvable.spec");
        let mut q = scenarios::tiny(LevelScenario::A);
        q.sources.clear();
        std::fs::write(&bad_spec, sekitei_spec::print_problem(&q)).unwrap();
        let qp = bad_spec.to_str().unwrap().to_string();
        let none = dir.join("sekitei_cli_cert_none.skc1");
        assert!(dispatch(
            &[
                s(&["plan"]),
                vec![qp],
                s(&["--quiet", "--emit-cert"]),
                vec![none.to_str().unwrap().into()]
            ]
            .concat()
        )
        .is_err());
    }

    #[test]
    fn planner_flag_errors() {
        // the planner flags `plan`, `serve` and `churn` share reject a
        // missing and a junk value with the same texts on every command;
        // every command fails before planning, serving or churning
        let prefixes: [&[&str]; 3] = [&["plan", "--scenario", "tiny-c"], &["serve"], &["churn"]];
        for prefix in prefixes {
            for flag in ["--max-nodes", "--deadline-ms", "--sls-seed", "--sls-restarts"] {
                let missing = dispatch(&s(&[prefix, &[flag]].concat())).unwrap_err();
                assert_eq!(missing, format!("{flag} needs a value"), "{prefix:?}");
                let junk = dispatch(&s(&[prefix, &[flag, "many"]].concat())).unwrap_err();
                assert_eq!(junk, format!("bad {flag} value `many`"), "{prefix:?}");
            }
        }
        // no command takes `--search-threads`: one search runs on one thread
        let prefixes: [&[&str]; 4] =
            [&["plan", "--scenario", "tiny-c"], &["batch"], &["serve"], &["churn"]];
        for prefix in prefixes {
            let err = dispatch(&s(&[prefix, &["--search-threads", "2"]].concat())).unwrap_err();
            assert_eq!(err, "unknown flag `--search-threads`", "{prefix:?}");
        }
    }
}
