//! Compact binary wire format for [`CppProblem`]s.
//!
//! Used to ship problem instances between processes (e.g. a deployment
//! service handing work to planner workers) without paying text parsing on
//! the hot path. The format is versioned with a magic header; decoding
//! validates the problem before returning it.

use crate::error::SpecError;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use sekitei_model::resource::Elasticity;
use sekitei_model::resource::Locus;
use sekitei_model::{
    AssignOp, CmpOp, ComponentSpec, Cond, CppProblem, Effect, Expr, Goal, InterfaceSpec, Interval,
    LevelSpec, LinkClass, Network, NodeId, Placement, PrePlacement, ResourceDef, SpecVar,
    StreamSource,
};

const MAGIC: &[u8; 4] = b"SKT1";

/// Encode a problem to bytes.
pub fn encode(p: &CppProblem) -> Bytes {
    let mut b = BytesMut::with_capacity(4096);
    b.put_slice(MAGIC);

    b.put_u32(p.resources.len() as u32);
    for r in &p.resources {
        put_str(&mut b, &r.name);
        b.put_u8(match r.locus {
            Locus::Node => 0,
            Locus::Link => 1,
        });
        b.put_u8(r.consumable as u8);
        b.put_u8(match r.elasticity {
            Elasticity::Degradable => 0,
            Elasticity::Upgradable => 1,
            Elasticity::Rigid => 2,
        });
        put_levels(&mut b, &r.levels);
    }

    b.put_u32(p.interfaces.len() as u32);
    for i in &p.interfaces {
        put_str(&mut b, &i.name);
        b.put_u32(i.properties.len() as u32);
        for prop in &i.properties {
            put_str(&mut b, prop);
        }
        b.put_u8(i.degradable as u8);
        b.put_u32(i.cross_conditions.len() as u32);
        for c in &i.cross_conditions {
            put_cond(&mut b, c);
        }
        b.put_u32(i.cross_effects.len() as u32);
        for e in &i.cross_effects {
            put_effect(&mut b, e);
        }
        put_expr(&mut b, &i.cross_cost);
        b.put_u32(i.levels.len() as u32);
        for (prop, ls) in &i.levels {
            put_str(&mut b, prop);
            put_levels(&mut b, ls);
        }
    }

    b.put_u32(p.components.len() as u32);
    for c in &p.components {
        put_str(&mut b, &c.name);
        put_strs(&mut b, &c.requires);
        put_strs(&mut b, &c.implements);
        b.put_u32(c.conditions.len() as u32);
        for cd in &c.conditions {
            put_cond(&mut b, cd);
        }
        b.put_u32(c.effects.len() as u32);
        for e in &c.effects {
            put_effect(&mut b, e);
        }
        put_expr(&mut b, &c.cost);
        match &c.placement {
            Placement::Anywhere => b.put_u8(0),
            Placement::Only(nodes) => {
                b.put_u8(1);
                put_strs(&mut b, nodes);
            }
        }
    }

    // network
    b.put_u32(p.network.num_nodes() as u32);
    for (_, n) in p.network.nodes() {
        put_str(&mut b, &n.name);
        b.put_u32(n.resources.len() as u32);
        for (k, v) in &n.resources {
            put_str(&mut b, k);
            b.put_f64(*v);
        }
    }
    b.put_u32(p.network.num_links() as u32);
    for (_, l) in p.network.links() {
        b.put_u32(l.a.0);
        b.put_u32(l.b.0);
        b.put_u8(match l.class {
            LinkClass::Lan => 0,
            LinkClass::Wan => 1,
            LinkClass::Other => 2,
        });
        b.put_u32(l.resources.len() as u32);
        for (k, v) in &l.resources {
            put_str(&mut b, k);
            b.put_f64(*v);
        }
    }

    b.put_u32(p.sources.len() as u32);
    for s in &p.sources {
        put_str(&mut b, &s.iface);
        b.put_u32(s.node.0);
        b.put_u32(s.properties.len() as u32);
        for (k, iv) in &s.properties {
            put_str(&mut b, k);
            b.put_f64(iv.lo);
            b.put_f64(iv.hi);
        }
    }
    b.put_u32(p.pre_placed.len() as u32);
    for pp in &p.pre_placed {
        put_str(&mut b, &pp.component);
        b.put_u32(pp.node.0);
    }
    b.put_u32(p.goals.len() as u32);
    for g in &p.goals {
        put_str(&mut b, &g.component);
        b.put_u32(g.node.0);
    }
    b.freeze()
}

/// Decode and validate a problem from bytes.
pub fn decode(mut buf: &[u8]) -> Result<CppProblem, SpecError> {
    let b = &mut buf;
    let mut magic = [0u8; 4];
    take(b, &mut magic)?;
    if &magic != MAGIC {
        return Err(SpecError::wire("bad magic"));
    }

    let mut resources = Vec::new();
    for _ in 0..get_u32(b)? {
        let name = get_str(b)?;
        let locus = match get_u8(b)? {
            0 => Locus::Node,
            1 => Locus::Link,
            x => return Err(SpecError::wire(format!("bad locus {x}"))),
        };
        let consumable = get_u8(b)? != 0;
        let elasticity = match get_u8(b)? {
            0 => Elasticity::Degradable,
            1 => Elasticity::Upgradable,
            2 => Elasticity::Rigid,
            x => return Err(SpecError::wire(format!("bad elasticity {x}"))),
        };
        let levels = get_levels(b)?;
        resources.push(ResourceDef { name, locus, consumable, levels, elasticity });
    }

    let mut interfaces = Vec::new();
    for _ in 0..get_u32(b)? {
        let name = get_str(b)?;
        let mut properties = Vec::new();
        for _ in 0..get_u32(b)? {
            properties.push(get_str(b)?);
        }
        let degradable = get_u8(b)? != 0;
        let mut cross_conditions = Vec::new();
        for _ in 0..get_u32(b)? {
            cross_conditions.push(get_cond(b)?);
        }
        let mut cross_effects = Vec::new();
        for _ in 0..get_u32(b)? {
            cross_effects.push(get_effect(b)?);
        }
        let cross_cost = get_expr(b)?;
        let mut levels = std::collections::BTreeMap::new();
        for _ in 0..get_u32(b)? {
            let prop = get_str(b)?;
            levels.insert(prop, get_levels(b)?);
        }
        interfaces.push(InterfaceSpec {
            name,
            properties,
            degradable,
            cross_conditions,
            cross_effects,
            cross_cost,
            levels,
        });
    }

    let mut components = Vec::new();
    for _ in 0..get_u32(b)? {
        let name = get_str(b)?;
        let requires = get_strs(b)?;
        let implements = get_strs(b)?;
        let mut conditions = Vec::new();
        for _ in 0..get_u32(b)? {
            conditions.push(get_cond(b)?);
        }
        let mut effects = Vec::new();
        for _ in 0..get_u32(b)? {
            effects.push(get_effect(b)?);
        }
        let cost = get_expr(b)?;
        let placement = match get_u8(b)? {
            0 => Placement::Anywhere,
            1 => Placement::Only(get_strs(b)?),
            x => return Err(SpecError::wire(format!("bad placement {x}"))),
        };
        components.push(ComponentSpec {
            name,
            requires,
            implements,
            conditions,
            effects,
            cost,
            placement,
        });
    }

    let mut network = Network::new();
    for _ in 0..get_u32(b)? {
        let name = get_str(b)?;
        let mut res = Vec::new();
        for _ in 0..get_u32(b)? {
            let k = get_str(b)?;
            let v = get_f64(b)?;
            res.push((k, v));
        }
        network.add_node(name, res);
    }
    for _ in 0..get_u32(b)? {
        let a = NodeId(get_u32(b)?);
        let bb = NodeId(get_u32(b)?);
        let class = match get_u8(b)? {
            0 => LinkClass::Lan,
            1 => LinkClass::Wan,
            2 => LinkClass::Other,
            x => return Err(SpecError::wire(format!("bad link class {x}"))),
        };
        let mut res = Vec::new();
        for _ in 0..get_u32(b)? {
            let k = get_str(b)?;
            let v = get_f64(b)?;
            res.push((k, v));
        }
        if a.index() >= network.num_nodes() || bb.index() >= network.num_nodes() || a == bb {
            return Err(SpecError::wire("bad link endpoints"));
        }
        network.add_link(a, bb, class, res);
    }

    let mut sources = Vec::new();
    for _ in 0..get_u32(b)? {
        let iface = get_str(b)?;
        let node = NodeId(get_u32(b)?);
        let mut properties = std::collections::BTreeMap::new();
        for _ in 0..get_u32(b)? {
            let k = get_str(b)?;
            let lo = get_f64(b)?;
            let hi = get_f64(b)?;
            properties.insert(k, Interval::new(lo, hi));
        }
        sources.push(StreamSource { iface, node, properties });
    }
    let mut pre_placed = Vec::new();
    for _ in 0..get_u32(b)? {
        let component = get_str(b)?;
        let node = NodeId(get_u32(b)?);
        pre_placed.push(PrePlacement { component, node });
    }
    let mut goals = Vec::new();
    for _ in 0..get_u32(b)? {
        let component = get_str(b)?;
        let node = NodeId(get_u32(b)?);
        goals.push(Goal { component, node });
    }
    if !b.is_empty() {
        return Err(SpecError::wire("trailing bytes after problem"));
    }

    let problem =
        CppProblem { network, resources, interfaces, components, sources, pre_placed, goals };
    problem.validate()?;
    Ok(problem)
}

// --------------------------------------------------------------- outcomes

/// Magic header of the outcome wire form (planner → client direction).
const OUTCOME_MAGIC: &[u8; 4] = b"SKO1";

/// Semantic kind of a plan step, reduced to what crosses the process
/// boundary. The spec crate sits below the compiler, so it cannot name
/// `ActionKind` — the serving layer maps kinds down to this trichotomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireStepKind {
    /// A component placement.
    Place,
    /// An interface crossing a link.
    Cross,
    /// Anything a future domain adds.
    Other,
}

/// One step of a plan in wire form.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStep {
    /// Rendered ground-action name.
    pub name: String,
    /// Semantic kind.
    pub kind: WireStepKind,
    /// The step's lower-bound cost contribution.
    pub cost_lb: f64,
}

/// A plan in wire form: steps, bound, concrete source bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePlan {
    /// Steps in execution order.
    pub steps: Vec<WireStep>,
    /// Lower bound on the plan cost.
    pub cost_lower_bound: f64,
    /// True when this plan came from the graceful-degradation path.
    pub degraded: bool,
    /// Concrete value chosen per stream-source variable, identified by its
    /// ground-variable index (stable across identical compiles of the same
    /// problem).
    pub source_values: Vec<(u32, f64)>,
}

/// Planner run statistics in wire form (Table 2 columns plus budgets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Ground actions after leveling and pruning.
    pub total_actions: u64,
    /// PLRG proposition nodes.
    pub plrg_props: u64,
    /// PLRG action nodes.
    pub plrg_actions: u64,
    /// SLRG set nodes generated.
    pub slrg_nodes: u64,
    /// RG nodes created.
    pub rg_nodes: u64,
    /// RG nodes still open at exit.
    pub rg_open_left: u64,
    /// RG nodes pruned by optimistic-map replay.
    pub replay_prunes: u64,
    /// Candidate plans rejected at terminal validation.
    pub candidate_rejects: u64,
    /// Total wall time in microseconds (including compilation).
    pub total_time_us: u64,
    /// Search-only wall time in microseconds.
    pub search_time_us: u64,
    /// True if a search budget was exhausted.
    pub budget_exhausted: bool,
    /// True if specifically the wall-clock deadline tripped.
    pub deadline_hit: bool,
}

/// A planning outcome in wire form — the response payload of the serving
/// protocol.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOutcome {
    /// The plan, if one was found (possibly degraded).
    pub plan: Option<WirePlan>,
    /// Admissible lower bound on the optimal cost when no optimal plan was
    /// returned.
    pub best_bound: Option<f64>,
    /// Optimality gap of the returned plan against the best admissible
    /// bound (`0.0` when the plan is proved optimal; present whenever the
    /// planner could bound it — anytime incumbents and degraded plans).
    pub optimality_gap: Option<f64>,
    /// Run statistics.
    pub stats: WireStats,
    /// The plan's machine-checkable certificate in its opaque `SKC1` byte
    /// form (`sekitei-cert` speaks the encoding; the spec crate ships it
    /// verbatim). Present whenever `plan` is — exact, cached, degraded and
    /// anytime responses all carry one.
    pub certificate: Option<Vec<u8>>,
}

/// Encode an outcome to bytes.
pub fn encode_outcome(o: &WireOutcome) -> Bytes {
    let mut b = BytesMut::with_capacity(256);
    b.put_slice(OUTCOME_MAGIC);
    match &o.plan {
        None => b.put_u8(0),
        Some(p) => {
            b.put_u8(1);
            b.put_u32(p.steps.len() as u32);
            for s in &p.steps {
                put_str(&mut b, &s.name);
                b.put_u8(match s.kind {
                    WireStepKind::Place => 0,
                    WireStepKind::Cross => 1,
                    WireStepKind::Other => 2,
                });
                b.put_f64(s.cost_lb);
            }
            b.put_f64(p.cost_lower_bound);
            b.put_u8(p.degraded as u8);
            b.put_u32(p.source_values.len() as u32);
            for &(v, x) in &p.source_values {
                b.put_u32(v);
                b.put_f64(x);
            }
        }
    }
    match o.best_bound {
        None => b.put_u8(0),
        Some(x) => {
            b.put_u8(1);
            b.put_f64(x);
        }
    }
    let st = &o.stats;
    for v in [
        st.total_actions,
        st.plrg_props,
        st.plrg_actions,
        st.slrg_nodes,
        st.rg_nodes,
        st.rg_open_left,
        st.replay_prunes,
        st.candidate_rejects,
        st.total_time_us,
        st.search_time_us,
    ] {
        b.put_u64(v);
    }
    b.put_u8(st.budget_exhausted as u8);
    b.put_u8(st.deadline_hit as u8);
    match o.optimality_gap {
        None => b.put_u8(0),
        Some(x) => {
            b.put_u8(1);
            b.put_f64(x);
        }
    }
    match &o.certificate {
        None => b.put_u8(0),
        Some(c) => {
            b.put_u8(1);
            b.put_u32(c.len() as u32);
            b.put_slice(c);
        }
    }
    b.freeze()
}

/// Decode an outcome from bytes.
pub fn decode_outcome(mut buf: &[u8]) -> Result<WireOutcome, SpecError> {
    let b = &mut buf;
    let mut magic = [0u8; 4];
    take(b, &mut magic)?;
    if &magic != OUTCOME_MAGIC {
        return Err(SpecError::wire("bad outcome magic"));
    }
    let plan = match get_u8(b)? {
        0 => None,
        1 => {
            let n = get_u32(b)? as usize;
            if n > 1 << 20 {
                return Err(SpecError::wire("plan too long"));
            }
            let mut steps = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = get_str(b)?;
                let kind = match get_u8(b)? {
                    0 => WireStepKind::Place,
                    1 => WireStepKind::Cross,
                    2 => WireStepKind::Other,
                    x => return Err(SpecError::wire(format!("bad step kind {x}"))),
                };
                let cost_lb = get_f64(b)?;
                steps.push(WireStep { name, kind, cost_lb });
            }
            let cost_lower_bound = get_f64(b)?;
            let degraded = get_u8(b)? != 0;
            let ns = get_u32(b)? as usize;
            if ns > 1 << 20 {
                return Err(SpecError::wire("too many sources"));
            }
            let mut source_values = Vec::with_capacity(ns.min(1024));
            for _ in 0..ns {
                let v = get_u32(b)?;
                let x = get_f64(b)?;
                source_values.push((v, x));
            }
            Some(WirePlan { steps, cost_lower_bound, degraded, source_values })
        }
        x => return Err(SpecError::wire(format!("bad plan tag {x}"))),
    };
    let best_bound = match get_u8(b)? {
        0 => None,
        1 => Some(get_f64(b)?),
        x => return Err(SpecError::wire(format!("bad bound tag {x}"))),
    };
    let mut words = [0u64; 10];
    for w in &mut words {
        *w = get_u64(b)?;
    }
    let budget_exhausted = get_u8(b)? != 0;
    let deadline_hit = get_u8(b)? != 0;
    let optimality_gap = match get_u8(b)? {
        0 => None,
        1 => Some(get_f64(b)?),
        x => return Err(SpecError::wire(format!("bad gap tag {x}"))),
    };
    let certificate = match get_u8(b)? {
        0 => None,
        1 => {
            let n = get_u32(b)? as usize;
            if n > 1 << 22 {
                return Err(SpecError::wire("certificate too long"));
            }
            let mut c = vec![0u8; n];
            take(b, &mut c)?;
            Some(c)
        }
        x => return Err(SpecError::wire(format!("bad certificate tag {x}"))),
    };
    if !b.is_empty() {
        return Err(SpecError::wire("trailing bytes after outcome"));
    }
    Ok(WireOutcome {
        plan,
        best_bound,
        optimality_gap,
        certificate,
        stats: WireStats {
            total_actions: words[0],
            plrg_props: words[1],
            plrg_actions: words[2],
            slrg_nodes: words[3],
            rg_nodes: words[4],
            rg_open_left: words[5],
            replay_prunes: words[6],
            candidate_rejects: words[7],
            total_time_us: words[8],
            search_time_us: words[9],
            budget_exhausted,
            deadline_hit,
        },
    })
}

// ----------------------------------------------------------- phase tables

/// Magic header of the phase-table wire form (server → client direction).
const PHASES_MAGIC: &[u8; 4] = b"SKP1";

/// Hard cap on phase rows: the server emits one row per pipeline stage
/// (queue wait, decode, compile, search, validate, encode, …), so
/// anything past this is a malformed or hostile frame.
const MAX_PHASES: usize = 64;

/// One row of a server-side self-time table: how long one named phase of
/// request handling took, exclusive of nested phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WirePhase {
    /// Phase name (e.g. `"search"`, `"queue_wait"`).
    pub name: String,
    /// Self time in nanoseconds.
    pub self_ns: u64,
    /// Number of slices aggregated into this row (0 allowed for phases
    /// that were skipped but still reported).
    pub count: u64,
}

/// Encode a per-phase self-time table. Riding next to an `SKO1` outcome
/// in the serving protocol, this lets `sekitei request --profile` stitch
/// the server's phase breakdown into the client's own trace.
pub fn encode_phases(phases: &[WirePhase]) -> Bytes {
    let mut b = BytesMut::with_capacity(16 + phases.len() * 32);
    b.put_slice(PHASES_MAGIC);
    b.put_u32(phases.len() as u32);
    for p in phases {
        put_str(&mut b, &p.name);
        b.put_u64(p.self_ns);
        b.put_u64(p.count);
    }
    b.freeze()
}

/// Decode a phase table; strict (trailing bytes and oversized row counts
/// are rejected).
pub fn decode_phases(mut buf: &[u8]) -> Result<Vec<WirePhase>, SpecError> {
    let b = &mut buf;
    let mut magic = [0u8; 4];
    take(b, &mut magic)?;
    if &magic != PHASES_MAGIC {
        return Err(SpecError::wire("bad phase-table magic"));
    }
    let n = get_u32(b)? as usize;
    if n > MAX_PHASES {
        return Err(SpecError::wire(format!("phase table too long ({n} rows)")));
    }
    let mut phases = Vec::with_capacity(n);
    for _ in 0..n {
        let name = get_str(b)?;
        let self_ns = get_u64(b)?;
        let count = get_u64(b)?;
        phases.push(WirePhase { name, self_ns, count });
    }
    if !b.is_empty() {
        return Err(SpecError::wire("trailing bytes after phase table"));
    }
    Ok(phases)
}

// --------------------------------------------------------- cache snapshots

/// Magic header of the outcome-cache snapshot file format.
const SNAPSHOT_MAGIC: &[u8; 4] = b"SKS1";

/// Current snapshot format version. Bumping this invalidates every file
/// written by an older binary (loaders cold-start instead of guessing).
const SNAPSHOT_VERSION: u32 = 1;

/// Byte length of a snapshot file header: magic + version + fingerprint.
pub const SNAPSHOT_HEADER_LEN: usize = 4 + 4 + 8;

/// Hard cap on one cached outcome payload; mirrors the certificate cap
/// and keeps a corrupt length field from allocating gigabytes.
const MAX_SNAPSHOT_PAYLOAD: usize = 1 << 22;

/// One record of an append-only outcome-cache snapshot: the content
/// fingerprint of the problem, the outcome class (as its stable wire
/// ordinal), the reachability-graph node count, and the encoded `SKO1`
/// bytes exactly as they would be served from the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSnapshotRecord {
    /// Content hash of the problem bytes (the cache key).
    pub key: u64,
    /// Outcome-class ordinal (0..=5, matching the serving layer's
    /// six-way class partition).
    pub class: u8,
    /// Reachability-graph nodes expanded when the outcome was computed.
    pub rg_nodes: u64,
    /// Encoded `SKO1` outcome bytes.
    pub payload: Vec<u8>,
}

/// FNV-1a over a byte slice; the per-record checksum primitive. Kept
/// private — callers only see it through encode/decode.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode a snapshot file header binding the file to one server build:
/// `fingerprint` hashes the planner configuration and crate version, so
/// a cache written under different search settings is never replayed.
pub fn encode_snapshot_header(fingerprint: u64) -> Bytes {
    let mut b = BytesMut::with_capacity(SNAPSHOT_HEADER_LEN);
    b.put_slice(SNAPSHOT_MAGIC);
    b.put_u32(SNAPSHOT_VERSION);
    b.put_u64(fingerprint);
    b.freeze()
}

/// Decode a snapshot file header, returning the embedded configuration
/// fingerprint. Strict: bad magic or an unknown version is an error
/// (loaders treat either as a cold start).
pub fn decode_snapshot_header(buf: &[u8]) -> Result<u64, SpecError> {
    if buf.len() < SNAPSHOT_HEADER_LEN {
        return Err(SpecError::wire("snapshot header truncated"));
    }
    let mut b = &buf[..SNAPSHOT_HEADER_LEN];
    let mut magic = [0u8; 4];
    take(&mut b, &mut magic)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(SpecError::wire("bad snapshot magic"));
    }
    let version = get_u32(&mut b)?;
    if version != SNAPSHOT_VERSION {
        return Err(SpecError::wire(format!("unsupported snapshot version {version}")));
    }
    get_u64(&mut b)
}

/// Encode one snapshot record with a trailing FNV-1a checksum over the
/// record body, so torn appends and bit flips are detected per record.
pub fn encode_snapshot_record(r: &WireSnapshotRecord) -> Bytes {
    let mut b = BytesMut::with_capacity(29 + r.payload.len() + 8);
    b.put_u64(r.key);
    b.put_u8(r.class);
    b.put_u64(r.rg_nodes);
    b.put_u32(r.payload.len() as u32);
    b.put_slice(&r.payload);
    let sum = fnv1a(&b);
    b.put_u64(sum);
    b.freeze()
}

/// Decode one snapshot record from the front of `buf`, returning the
/// record and the number of bytes consumed so callers can walk an
/// append-only file record by record. Strict per record: a bad class,
/// an oversized or non-`SKO1` payload, or a checksum mismatch is an
/// error — the loader treats the first failure as the end of the valid
/// prefix.
pub fn decode_snapshot_record(buf: &[u8]) -> Result<(WireSnapshotRecord, usize), SpecError> {
    let b = &mut &buf[..];
    let key = get_u64(b)?;
    let class = get_u8(b)?;
    if class > 5 {
        return Err(SpecError::wire(format!("bad snapshot class {class}")));
    }
    let rg_nodes = get_u64(b)?;
    let len = get_u32(b)? as usize;
    if len > MAX_SNAPSHOT_PAYLOAD {
        return Err(SpecError::wire(format!("snapshot payload too large ({len} bytes)")));
    }
    if b.remaining() < len {
        return Err(SpecError::wire("snapshot payload truncated"));
    }
    let payload = b[..len].to_vec();
    if payload.len() < 4 || &payload[..4] != OUTCOME_MAGIC {
        return Err(SpecError::wire("snapshot payload is not an SKO1 outcome"));
    }
    *b = &b[len..];
    let body_len = 8 + 1 + 8 + 4 + len;
    let stored = get_u64(b)?;
    if stored != fnv1a(&buf[..body_len]) {
        return Err(SpecError::wire("snapshot record checksum mismatch"));
    }
    Ok((WireSnapshotRecord { key, class, rg_nodes, payload }, body_len + 8))
}

// ------------------------------------------------------------- primitives

fn put_str(b: &mut BytesMut, s: &str) {
    b.put_u32(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn put_strs(b: &mut BytesMut, ss: &[String]) {
    b.put_u32(ss.len() as u32);
    for s in ss {
        put_str(b, s);
    }
}

fn put_levels(b: &mut BytesMut, ls: &LevelSpec) {
    b.put_u32(ls.cutpoints().len() as u32);
    for &c in ls.cutpoints() {
        b.put_f64(c);
    }
}

fn put_var(b: &mut BytesMut, v: &SpecVar) {
    match v {
        SpecVar::Iface { iface, prop } => {
            b.put_u8(0);
            put_str(b, iface);
            put_str(b, prop);
        }
        SpecVar::Node { res } => {
            b.put_u8(1);
            put_str(b, res);
        }
        SpecVar::Link { res } => {
            b.put_u8(2);
            put_str(b, res);
        }
    }
}

fn put_expr(b: &mut BytesMut, e: &Expr<SpecVar>) {
    match e {
        Expr::Const(c) => {
            b.put_u8(0);
            b.put_f64(*c);
        }
        Expr::Var(v) => {
            b.put_u8(1);
            put_var(b, v);
        }
        Expr::Add(x, y) => bin(b, 2, x, y),
        Expr::Sub(x, y) => bin(b, 3, x, y),
        Expr::Mul(x, y) => bin(b, 4, x, y),
        Expr::Div(x, y) => bin(b, 5, x, y),
        Expr::Min(x, y) => bin(b, 6, x, y),
        Expr::Max(x, y) => bin(b, 7, x, y),
        Expr::Neg(x) => {
            b.put_u8(8);
            put_expr(b, x);
        }
    }
}

fn bin(b: &mut BytesMut, tag: u8, x: &Expr<SpecVar>, y: &Expr<SpecVar>) {
    b.put_u8(tag);
    put_expr(b, x);
    put_expr(b, y);
}

fn put_cond(b: &mut BytesMut, c: &Cond<SpecVar>) {
    put_expr(b, &c.lhs);
    b.put_u8(match c.op {
        CmpOp::Le => 0,
        CmpOp::Lt => 1,
        CmpOp::Ge => 2,
        CmpOp::Gt => 3,
        CmpOp::Eq => 4,
    });
    put_expr(b, &c.rhs);
}

fn put_effect(b: &mut BytesMut, e: &Effect<SpecVar>) {
    put_var(b, &e.target);
    b.put_u8(match e.op {
        AssignOp::Set => 0,
        AssignOp::Sub => 1,
        AssignOp::Add => 2,
    });
    put_expr(b, &e.value);
}

fn take(b: &mut &[u8], out: &mut [u8]) -> Result<(), SpecError> {
    if b.remaining() < out.len() {
        return Err(SpecError::wire("unexpected end of input"));
    }
    b.copy_to_slice(out);
    Ok(())
}

fn get_u8(b: &mut &[u8]) -> Result<u8, SpecError> {
    if b.remaining() < 1 {
        return Err(SpecError::wire("unexpected end of input"));
    }
    Ok(b.get_u8())
}

fn get_u32(b: &mut &[u8]) -> Result<u32, SpecError> {
    if b.remaining() < 4 {
        return Err(SpecError::wire("unexpected end of input"));
    }
    Ok(b.get_u32())
}

fn get_u64(b: &mut &[u8]) -> Result<u64, SpecError> {
    if b.remaining() < 8 {
        return Err(SpecError::wire("unexpected end of input"));
    }
    Ok(b.get_u64())
}

fn get_f64(b: &mut &[u8]) -> Result<f64, SpecError> {
    if b.remaining() < 8 {
        return Err(SpecError::wire("unexpected end of input"));
    }
    Ok(b.get_f64())
}

fn get_str(b: &mut &[u8]) -> Result<String, SpecError> {
    let len = get_u32(b)? as usize;
    if len > 1 << 20 {
        return Err(SpecError::wire("string too long"));
    }
    if b.remaining() < len {
        return Err(SpecError::wire("unexpected end of input"));
    }
    let mut bytes = vec![0u8; len];
    b.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| SpecError::wire("invalid utf-8"))
}

fn get_strs(b: &mut &[u8]) -> Result<Vec<String>, SpecError> {
    let n = get_u32(b)? as usize;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(get_str(b)?);
    }
    Ok(out)
}

fn get_levels(b: &mut &[u8]) -> Result<LevelSpec, SpecError> {
    let n = get_u32(b)? as usize;
    let mut cuts = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        cuts.push(get_f64(b)?);
    }
    LevelSpec::new(cuts).map_err(|e| SpecError::wire(e.to_string()))
}

fn get_var(b: &mut &[u8]) -> Result<SpecVar, SpecError> {
    Ok(match get_u8(b)? {
        0 => {
            let iface = get_str(b)?;
            let prop = get_str(b)?;
            SpecVar::Iface { iface, prop }
        }
        1 => SpecVar::Node { res: get_str(b)? },
        2 => SpecVar::Link { res: get_str(b)? },
        x => return Err(SpecError::wire(format!("bad var tag {x}"))),
    })
}

fn get_expr(b: &mut &[u8]) -> Result<Expr<SpecVar>, SpecError> {
    Ok(match get_u8(b)? {
        0 => Expr::Const(get_f64(b)?),
        1 => Expr::Var(get_var(b)?),
        2 => Expr::Add(Box::new(get_expr(b)?), Box::new(get_expr(b)?)),
        3 => Expr::Sub(Box::new(get_expr(b)?), Box::new(get_expr(b)?)),
        4 => Expr::Mul(Box::new(get_expr(b)?), Box::new(get_expr(b)?)),
        5 => Expr::Div(Box::new(get_expr(b)?), Box::new(get_expr(b)?)),
        6 => Expr::Min(Box::new(get_expr(b)?), Box::new(get_expr(b)?)),
        7 => Expr::Max(Box::new(get_expr(b)?), Box::new(get_expr(b)?)),
        8 => Expr::Neg(Box::new(get_expr(b)?)),
        x => return Err(SpecError::wire(format!("bad expr tag {x}"))),
    })
}

fn get_cond(b: &mut &[u8]) -> Result<Cond<SpecVar>, SpecError> {
    let lhs = get_expr(b)?;
    let op = match get_u8(b)? {
        0 => CmpOp::Le,
        1 => CmpOp::Lt,
        2 => CmpOp::Ge,
        3 => CmpOp::Gt,
        4 => CmpOp::Eq,
        x => return Err(SpecError::wire(format!("bad cmp tag {x}"))),
    };
    let rhs = get_expr(b)?;
    Ok(Cond::new(lhs, op, rhs))
}

fn get_effect(b: &mut &[u8]) -> Result<Effect<SpecVar>, SpecError> {
    let target = get_var(b)?;
    let op = match get_u8(b)? {
        0 => AssignOp::Set,
        1 => AssignOp::Sub,
        2 => AssignOp::Add,
        x => return Err(SpecError::wire(format!("bad assign tag {x}"))),
    };
    let value = get_expr(b)?;
    Ok(Effect::new(target, op, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sekitei_model::LevelScenario;
    use sekitei_topology::scenarios;

    #[test]
    fn roundtrip_all_canonical_problems() {
        let problems = vec![
            scenarios::tiny(LevelScenario::A),
            scenarios::tiny(LevelScenario::E),
            scenarios::small(LevelScenario::C),
            scenarios::tradeoff(0.5),
        ];
        for p in problems {
            let bytes = encode(&p);
            let q = decode(&bytes).unwrap();
            assert_eq!(p.resources, q.resources);
            assert_eq!(p.interfaces, q.interfaces);
            assert_eq!(p.components, q.components);
            assert_eq!(p.sources, q.sources);
            assert_eq!(p.pre_placed, q.pre_placed);
            assert_eq!(p.goals, q.goals);
            assert_eq!(p.network.num_nodes(), q.network.num_nodes());
            assert_eq!(p.network.num_links(), q.network.num_links());
        }
    }

    #[test]
    fn roundtrip_large_is_compact() {
        let p = scenarios::large(LevelScenario::D);
        let bytes = encode(&p);
        // 93-node network with full domain fits comfortably under 32 KiB
        assert!(bytes.len() < 32 * 1024, "{} bytes", bytes.len());
        let q = decode(&bytes).unwrap();
        assert_eq!(q.network.num_nodes(), 93);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(decode(b"XXXX123"), Err(SpecError::Wire(_))));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let p = scenarios::tiny(LevelScenario::C);
        let bytes = encode(&p);
        // every strict prefix must fail cleanly, never panic
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = encode(&scenarios::tiny(LevelScenario::B)).to_vec();
        bytes.extend_from_slice(b"garbage");
        let err = decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing bytes"), "{err}");
    }

    fn sample_outcome(with_plan: bool) -> WireOutcome {
        WireOutcome {
            plan: with_plan.then(|| WirePlan {
                steps: vec![
                    WireStep {
                        name: "place(Splitter,n0)[M=1]".into(),
                        kind: WireStepKind::Place,
                        cost_lb: 1.0,
                    },
                    WireStep {
                        name: "cross(Z,n0→n1)".into(),
                        kind: WireStepKind::Cross,
                        cost_lb: 0.35,
                    },
                ],
                cost_lower_bound: 1.35,
                degraded: true,
                source_values: vec![(7, 92.5)],
            }),
            best_bound: Some(1.25),
            optimality_gap: Some(0.1),
            stats: WireStats {
                total_actions: 96,
                plrg_props: 40,
                plrg_actions: 96,
                slrg_nodes: 200,
                rg_nodes: 5000,
                rg_open_left: 120,
                replay_prunes: 300,
                candidate_rejects: 2,
                total_time_us: 1234,
                search_time_us: 1000,
                budget_exhausted: true,
                deadline_hit: true,
            },
            certificate: with_plan.then(|| b"SKC1-opaque-blob".to_vec()),
        }
    }

    #[test]
    fn outcome_roundtrip_identity() {
        for with_plan in [true, false] {
            let o = sample_outcome(with_plan);
            let bytes = encode_outcome(&o);
            let q = decode_outcome(&bytes).unwrap();
            assert_eq!(o, q);
            // encode→decode→encode is the identity on bytes
            assert_eq!(bytes, encode_outcome(&q));
        }
    }

    #[test]
    fn outcome_rejects_bad_magic() {
        assert!(matches!(decode_outcome(b"SKT1\x00\x00"), Err(SpecError::Wire(_))));
        assert!(matches!(decode_outcome(b""), Err(SpecError::Wire(_))));
    }

    #[test]
    fn outcome_rejects_truncation_everywhere() {
        let bytes = encode_outcome(&sample_outcome(true));
        for cut in 0..bytes.len() {
            assert!(decode_outcome(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    #[test]
    fn outcome_rejects_trailing_bytes() {
        let mut bytes = encode_outcome(&sample_outcome(true)).to_vec();
        bytes.push(0);
        assert!(decode_outcome(&bytes).is_err());
    }

    #[test]
    fn phase_table_roundtrip_and_rejections() {
        let phases = vec![
            WirePhase { name: "queue_wait".into(), self_ns: 1200, count: 1 },
            WirePhase { name: "search".into(), self_ns: 81_000, count: 1 },
            WirePhase { name: "encode".into(), self_ns: 0, count: 0 },
        ];
        let bytes = encode_phases(&phases);
        assert_eq!(decode_phases(&bytes).unwrap(), phases);
        // Empty tables are legal (profile not requested / nothing timed).
        assert_eq!(decode_phases(&encode_phases(&[])).unwrap(), vec![]);
        // Strictness: truncation, trailing bytes, bad magic, runaway count.
        for cut in 0..bytes.len() {
            assert!(decode_phases(&bytes[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
        let mut trailing = bytes.to_vec();
        trailing.push(0);
        assert!(decode_phases(&trailing).is_err());
        assert!(decode_phases(b"SKO1\x00\x00\x00\x00").is_err());
        let mut huge = b"SKP1".to_vec();
        huge.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_phases(&huge).is_err());
    }

    #[test]
    fn rejects_corrupt_tags() {
        let p = scenarios::tiny(LevelScenario::C);
        let bytes = encode(&p).to_vec();
        // flip a byte in the middle; must error or produce a validated
        // problem — never panic
        for i in (4..bytes.len()).step_by(97) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0xFF;
            let _ = decode(&corrupt);
        }
    }

    fn sample_snapshot_record(seed: u64) -> WireSnapshotRecord {
        WireSnapshotRecord {
            key: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            class: (seed % 6) as u8,
            rg_nodes: seed * 31,
            payload: encode_outcome(&sample_outcome(seed.is_multiple_of(2))).to_vec(),
        }
    }

    #[test]
    fn snapshot_header_roundtrip_and_rejections() {
        let bytes = encode_snapshot_header(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(bytes.len(), SNAPSHOT_HEADER_LEN);
        assert_eq!(decode_snapshot_header(&bytes).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        for cut in 0..bytes.len() {
            assert!(decode_snapshot_header(&bytes[..cut]).is_err());
        }
        let mut bad_magic = bytes.to_vec();
        bad_magic[0] = b'X';
        assert!(decode_snapshot_header(&bad_magic).is_err());
        let mut bad_version = bytes.to_vec();
        bad_version[7] = 99;
        assert!(decode_snapshot_header(&bad_version).is_err());
    }

    #[test]
    fn snapshot_record_roundtrip_reports_consumed_length() {
        let records: Vec<_> = (1..=4).map(sample_snapshot_record).collect();
        let mut file = Vec::new();
        for r in &records {
            file.extend_from_slice(&encode_snapshot_record(r));
        }
        let mut rest = &file[..];
        for want in &records {
            let (got, used) = decode_snapshot_record(rest).unwrap();
            assert_eq!(&got, want);
            rest = &rest[used..];
        }
        assert!(rest.is_empty());
    }

    #[test]
    fn snapshot_record_rejects_truncation_and_bad_fields() {
        let bytes = encode_snapshot_record(&sample_snapshot_record(3));
        for cut in 0..bytes.len() {
            assert!(decode_snapshot_record(&bytes[..cut]).is_err(), "prefix {cut} decoded");
        }
        // class out of range
        let mut bad = bytes.to_vec();
        bad[8] = 6;
        assert!(decode_snapshot_record(&bad).is_err());
        // payload that is not SKO1
        let not_sko = WireSnapshotRecord { key: 1, class: 0, rg_nodes: 0, payload: vec![0; 16] };
        assert!(decode_snapshot_record(&encode_snapshot_record(&not_sko)).is_err());
    }

    #[test]
    fn snapshot_record_seeded_corruption_never_passes_checksum() {
        // xorshift-style seeded sweep: flip one byte at a pseudo-random
        // offset each round; every corruption must be rejected, never
        // panic, and never decode to a different record silently.
        let r = sample_snapshot_record(7);
        let bytes = encode_snapshot_record(&r).to_vec();
        let mut state: u64 = 0x1234_5678_9ABC_DEF0;
        for _ in 0..256 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pos = (state % bytes.len() as u64) as usize;
            let bit = 1u8 << (state >> 32 & 7);
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= bit;
            match decode_snapshot_record(&corrupt) {
                Err(_) => {}
                Ok((got, used)) => {
                    // only reachable if the flip cancelled out, which a
                    // single-bit flip cannot do
                    panic!("corrupt record decoded: {got:?} ({used} bytes)");
                }
            }
        }
    }
}
