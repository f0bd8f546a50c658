//! Compact binary wire format for [`CppProblem`]s.
//!
//! Used to ship problem instances between processes (e.g. a deployment
//! service handing work to planner workers) without paying text parsing on
//! the hot path. The format is versioned with a magic header; decoding
//! validates the problem before returning it. Every format here is built
//! on [`sekitei_model::codec`]; the encoders return [`Bytes`].

use crate::error::SpecError;
use crate::MAX_EXPR_DEPTH;
use bytes::Bytes;
use sekitei_model::codec::{fnv1a, DecodeError, Reader, Writer};
use sekitei_model::resource::Elasticity;
use sekitei_model::resource::Locus;
use sekitei_model::{
    AssignOp, CmpOp, ComponentSpec, Cond, CppProblem, Effect, Expr, Goal, InterfaceSpec, Interval,
    LevelSpec, LinkClass, Network, NodeId, Placement, PrePlacement, ResourceDef, SpecVar,
    StreamSource,
};

const MAGIC: &[u8; 4] = b"SKT1";

/// Cap on every string and every list count in `SKT1`, `SKO1` and `SKP1`.
const MAX_LEN: usize = 1 << 20;

/// Encode a problem to bytes.
pub fn encode(p: &CppProblem) -> Bytes {
    let mut w = Writer::with_capacity(4096);
    w.bytes(MAGIC);
    w.list(&p.resources, |w, r| {
        w.str(&r.name);
        w.u8(match r.locus {
            Locus::Node => 0,
            Locus::Link => 1,
        });
        w.u8(r.consumable as u8);
        w.u8(match r.elasticity {
            Elasticity::Degradable => 0,
            Elasticity::Upgradable => 1,
            Elasticity::Rigid => 2,
        });
        put_levels(w, &r.levels);
    });
    w.list(&p.interfaces, |w, i| {
        w.str(&i.name);
        w.list(&i.properties, |w, prop| w.str(prop));
        w.u8(i.degradable as u8);
        w.list(&i.cross_conditions, put_cond);
        w.list(&i.cross_effects, put_effect);
        put_expr(w, &i.cross_cost);
        w.list(&i.levels, |w, (prop, ls)| {
            w.str(prop);
            put_levels(w, ls);
        });
    });
    w.list(&p.components, |w, c| {
        w.str(&c.name);
        w.list(&c.requires, |w, s| w.str(s));
        w.list(&c.implements, |w, s| w.str(s));
        w.list(&c.conditions, put_cond);
        w.list(&c.effects, put_effect);
        put_expr(w, &c.cost);
        match &c.placement {
            Placement::Anywhere => w.u8(0),
            Placement::Only(nodes) => {
                w.u8(1);
                w.list(nodes, |w, s| w.str(s));
            }
        }
    });
    w.list(p.network.nodes(), |w, (_, n)| {
        w.str(&n.name);
        w.list(&n.resources, put_amount);
    });
    w.list(p.network.links(), |w, (_, l)| {
        w.u32(l.a.0);
        w.u32(l.b.0);
        w.u8(match l.class {
            LinkClass::Lan => 0,
            LinkClass::Wan => 1,
            LinkClass::Other => 2,
        });
        w.list(&l.resources, put_amount);
    });
    w.list(&p.sources, |w, s| {
        w.str(&s.iface);
        w.u32(s.node.0);
        w.list(&s.properties, |w, (k, iv)| {
            w.str(k);
            w.f64(iv.lo);
            w.f64(iv.hi);
        });
    });
    w.list(&p.pre_placed, |w, pp| {
        w.str(&pp.component);
        w.u32(pp.node.0);
    });
    w.list(&p.goals, |w, g| {
        w.str(&g.component);
        w.u32(g.node.0);
    });
    w.into_vec().into()
}

/// Decode and validate a problem from bytes.
pub fn decode(buf: &[u8]) -> Result<CppProblem, SpecError> {
    let problem = get_problem(Reader::new(buf))?;
    problem.validate()?;
    Ok(problem)
}

fn get_problem(mut r: Reader<'_>) -> Result<CppProblem, DecodeError> {
    r.magic(MAGIC)?;
    let resources = r.list(MAX_LEN, |r| {
        Ok(ResourceDef {
            name: r.str(MAX_LEN)?,
            locus: r.tag("locus", &[Locus::Node, Locus::Link])?,
            consumable: r.u8()? != 0,
            elasticity: r.tag(
                "elasticity",
                &[Elasticity::Degradable, Elasticity::Upgradable, Elasticity::Rigid],
            )?,
            levels: get_levels(r)?,
        })
    })?;
    let interfaces = r.list(MAX_LEN, |r| {
        Ok(InterfaceSpec {
            name: r.str(MAX_LEN)?,
            properties: names(r)?,
            degradable: r.u8()? != 0,
            cross_conditions: r.list(MAX_LEN, get_cond)?,
            cross_effects: r.list(MAX_LEN, get_effect)?,
            cross_cost: get_expr(r, 1)?,
            levels: r
                .list(MAX_LEN, |r| Ok((r.str(MAX_LEN)?, get_levels(r)?)))?
                .into_iter()
                .collect(),
        })
    })?;
    let components = r.list(MAX_LEN, |r| {
        Ok(ComponentSpec {
            name: r.str(MAX_LEN)?,
            requires: names(r)?,
            implements: names(r)?,
            conditions: r.list(MAX_LEN, get_cond)?,
            effects: r.list(MAX_LEN, get_effect)?,
            cost: get_expr(r, 1)?,
            placement: match r.u8()? {
                0 => Placement::Anywhere,
                1 => Placement::Only(names(r)?),
                tag => return Err(DecodeError::BadTag { field: "placement", tag }),
            },
        })
    })?;

    let mut network = Network::new();
    for (name, res) in r.list(MAX_LEN, |r| Ok((r.str(MAX_LEN)?, r.list(MAX_LEN, get_amount)?)))? {
        network.add_node(name, res);
    }
    let links = r.list(MAX_LEN, |r| {
        Ok((
            NodeId(r.u32()?),
            NodeId(r.u32()?),
            r.tag("link class", &[LinkClass::Lan, LinkClass::Wan, LinkClass::Other])?,
            r.list(MAX_LEN, get_amount)?,
        ))
    })?;
    for (a, b, class, res) in links {
        if a.index() >= network.num_nodes() || b.index() >= network.num_nodes() || a == b {
            return Err(DecodeError::Invalid("bad link endpoints".into()));
        }
        network.add_link(a, b, class, res);
    }

    let sources = r.list(MAX_LEN, |r| {
        Ok(StreamSource {
            iface: r.str(MAX_LEN)?,
            node: NodeId(r.u32()?),
            properties: r
                .list(MAX_LEN, |r| Ok((r.str(MAX_LEN)?, Interval::new(r.f64()?, r.f64()?))))?
                .into_iter()
                .collect(),
        })
    })?;
    let pre_placed = r.list(MAX_LEN, |r| {
        Ok(PrePlacement { component: r.str(MAX_LEN)?, node: NodeId(r.u32()?) })
    })?;
    let goals =
        r.list(MAX_LEN, |r| Ok(Goal { component: r.str(MAX_LEN)?, node: NodeId(r.u32()?) }))?;
    r.finish()?;
    Ok(CppProblem { network, resources, interfaces, components, sources, pre_placed, goals })
}

// --------------------------------------------------------------- outcomes

/// Magic header of the outcome wire form (planner → client direction).
const OUTCOME_MAGIC: &[u8; 4] = b"SKO1";

/// Cap on the certificate an outcome carries, and on one cached outcome
/// in an `SKS1` record.
const MAX_BLOB: usize = 1 << 22;

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
    let mut w = Writer::with_capacity(256);
    w.bytes(OUTCOME_MAGIC);
    match &o.plan {
        None => w.u8(0),
        Some(p) => {
            w.u8(1);
            w.list(&p.steps, |w, s| {
                w.str(&s.name);
                w.u8(match s.kind {
                    WireStepKind::Place => 0,
                    WireStepKind::Cross => 1,
                    WireStepKind::Other => 2,
                });
                w.f64(s.cost_lb);
            });
            w.f64(p.cost_lower_bound);
            w.u8(p.degraded as u8);
            w.list(&p.source_values, |w, &(v, x)| {
                w.u32(v);
                w.f64(x);
            });
        }
    }
    w.opt_f64(o.best_bound);
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
        w.u64(v);
    }
    w.u8(st.budget_exhausted as u8);
    w.u8(st.deadline_hit as u8);
    w.opt_f64(o.optimality_gap);
    match &o.certificate {
        None => w.u8(0),
        Some(c) => {
            w.u8(1);
            w.prefixed(c);
        }
    }
    w.into_vec().into()
}

/// Decode an outcome from bytes.
pub fn decode_outcome(buf: &[u8]) -> Result<WireOutcome, SpecError> {
    let mut r = Reader::new(buf);
    r.magic(OUTCOME_MAGIC)?;
    let plan = match r.u8()? {
        0 => None,
        1 => Some(WirePlan {
            steps: r.list(MAX_LEN, |r| {
                Ok(WireStep {
                    name: r.str(MAX_LEN)?,
                    kind: r.tag(
                        "step kind",
                        &[WireStepKind::Place, WireStepKind::Cross, WireStepKind::Other],
                    )?,
                    cost_lb: r.f64()?,
                })
            })?,
            cost_lower_bound: r.f64()?,
            degraded: r.u8()? != 0,
            source_values: r.list(MAX_LEN, |r| Ok((r.u32()?, r.f64()?)))?,
        }),
        tag => return Err(DecodeError::BadTag { field: "plan", tag }.into()),
    };
    let best_bound = r.opt_f64()?;
    let mut words = [0u64; 10];
    for w in &mut words {
        *w = r.u64()?;
    }
    let budget_exhausted = r.u8()? != 0;
    let deadline_hit = r.u8()? != 0;
    let optimality_gap = r.opt_f64()?;
    let certificate = match r.u8()? {
        0 => None,
        1 => Some(r.prefixed(MAX_BLOB)?.to_vec()),
        tag => return Err(DecodeError::BadTag { field: "certificate", tag }.into()),
    };
    r.finish()?;
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
    let mut w = Writer::with_capacity(16 + phases.len() * 32);
    w.bytes(PHASES_MAGIC);
    w.list(phases, |w, p| {
        w.str(&p.name);
        w.u64(p.self_ns);
        w.u64(p.count);
    });
    w.into_vec().into()
}

/// Decode a phase table; strict (trailing bytes and oversized row counts
/// are rejected).
pub fn decode_phases(buf: &[u8]) -> Result<Vec<WirePhase>, SpecError> {
    let mut r = Reader::new(buf);
    r.magic(PHASES_MAGIC)?;
    let phases = r.list(MAX_PHASES, |r| {
        Ok(WirePhase { name: r.str(MAX_LEN)?, self_ns: r.u64()?, count: r.u64()? })
    })?;
    r.finish()?;
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

/// Encode a snapshot file header binding the file to one server build:
/// `fingerprint` hashes the planner configuration and crate version, so
/// a cache written under different search settings is never replayed.
pub fn encode_snapshot_header(fingerprint: u64) -> Bytes {
    let mut w = Writer::with_capacity(SNAPSHOT_HEADER_LEN);
    w.bytes(SNAPSHOT_MAGIC);
    w.u32(SNAPSHOT_VERSION);
    w.u64(fingerprint);
    w.into_vec().into()
}

/// Decode a snapshot file header, returning the embedded configuration
/// fingerprint; the records that follow it are left unread. Strict: bad
/// magic or an unknown version is an error (loaders treat either as a
/// cold start).
pub fn decode_snapshot_header(buf: &[u8]) -> Result<u64, SpecError> {
    let mut r = Reader::new(buf);
    r.magic(SNAPSHOT_MAGIC)?;
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SpecError::wire(format!("unsupported snapshot version {version}")));
    }
    Ok(r.u64()?)
}

/// Encode one snapshot record with a trailing FNV-1a checksum over the
/// record body, so torn appends and bit flips are detected per record.
pub fn encode_snapshot_record(r: &WireSnapshotRecord) -> Bytes {
    let mut w = Writer::with_capacity(29 + r.payload.len() + 8);
    w.u64(r.key);
    w.u8(r.class);
    w.u64(r.rg_nodes);
    w.prefixed(&r.payload);
    let sum = fnv1a(w.as_slice());
    w.u64(sum);
    w.into_vec().into()
}

/// Decode one snapshot record from the front of `buf`, returning the
/// record and the number of bytes consumed so callers can walk an
/// append-only file record by record. Strict per record: a bad class,
/// an oversized or non-`SKO1` payload, or a checksum mismatch is an
/// error — the loader treats the first failure as the end of the valid
/// prefix.
pub fn decode_snapshot_record(buf: &[u8]) -> Result<(WireSnapshotRecord, usize), SpecError> {
    let mut r = Reader::new(buf);
    let key = r.u64()?;
    let class = r.u8()?;
    if class > 5 {
        return Err(SpecError::wire(format!("bad snapshot class {class}")));
    }
    let rg_nodes = r.u64()?;
    let payload = r.prefixed(MAX_BLOB)?;
    if !payload.starts_with(OUTCOME_MAGIC) {
        return Err(SpecError::wire("snapshot payload is not an SKO1 outcome"));
    }
    let body = &buf[..r.position()];
    if r.u64()? != fnv1a(body) {
        return Err(SpecError::wire("snapshot record checksum mismatch"));
    }
    let record = WireSnapshotRecord { key, class, rg_nodes, payload: payload.to_vec() };
    Ok((record, r.position()))
}

// ---------------------------------------------------------- formula parts

fn names(r: &mut Reader<'_>) -> Result<Vec<String>, DecodeError> {
    r.list(MAX_LEN, |r| r.str(MAX_LEN))
}

fn put_amount(w: &mut Writer, (k, v): (&String, &f64)) {
    w.str(k);
    w.f64(*v);
}

fn get_amount(r: &mut Reader<'_>) -> Result<(String, f64), DecodeError> {
    Ok((r.str(MAX_LEN)?, r.f64()?))
}

fn put_levels(w: &mut Writer, ls: &LevelSpec) {
    w.list(ls.cutpoints(), |w, &c| w.f64(c));
}

fn get_levels(r: &mut Reader<'_>) -> Result<LevelSpec, DecodeError> {
    let cuts = r.list(MAX_LEN, |r| r.f64())?;
    LevelSpec::new(cuts).map_err(|e| DecodeError::Invalid(e.to_string()))
}

fn put_var(w: &mut Writer, v: &SpecVar) {
    match v {
        SpecVar::Iface { iface, prop } => {
            w.u8(0);
            w.str(iface);
            w.str(prop);
        }
        SpecVar::Node { res } => {
            w.u8(1);
            w.str(res);
        }
        SpecVar::Link { res } => {
            w.u8(2);
            w.str(res);
        }
    }
}

fn get_var(r: &mut Reader<'_>) -> Result<SpecVar, DecodeError> {
    Ok(match r.u8()? {
        0 => SpecVar::Iface { iface: r.str(MAX_LEN)?, prop: r.str(MAX_LEN)? },
        1 => SpecVar::Node { res: r.str(MAX_LEN)? },
        2 => SpecVar::Link { res: r.str(MAX_LEN)? },
        tag => return Err(DecodeError::BadTag { field: "var", tag }),
    })
}

fn put_expr(w: &mut Writer, e: &Expr<SpecVar>) {
    match e {
        Expr::Const(c) => {
            w.u8(0);
            w.f64(*c);
        }
        Expr::Var(v) => {
            w.u8(1);
            put_var(w, v);
        }
        Expr::Add(x, y) => bin(w, 2, x, y),
        Expr::Sub(x, y) => bin(w, 3, x, y),
        Expr::Mul(x, y) => bin(w, 4, x, y),
        Expr::Div(x, y) => bin(w, 5, x, y),
        Expr::Min(x, y) => bin(w, 6, x, y),
        Expr::Max(x, y) => bin(w, 7, x, y),
        Expr::Neg(x) => {
            w.u8(8);
            put_expr(w, x);
        }
    }
}

fn bin(w: &mut Writer, tag: u8, x: &Expr<SpecVar>, y: &Expr<SpecVar>) {
    w.u8(tag);
    put_expr(w, x);
    put_expr(w, y);
}

/// Decode the formula whose root sits at `depth` (1 for a whole formula),
/// refusing any node deeper than [`MAX_EXPR_DEPTH`].
fn get_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr<SpecVar>, DecodeError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(DecodeError::Invalid(format!(
            "formula nests deeper than {MAX_EXPR_DEPTH} levels"
        )));
    }
    let sub = |r: &mut Reader<'_>| get_expr(r, depth + 1).map(Box::new);
    Ok(match r.u8()? {
        0 => Expr::Const(r.f64()?),
        1 => Expr::Var(get_var(r)?),
        2 => Expr::Add(sub(r)?, sub(r)?),
        3 => Expr::Sub(sub(r)?, sub(r)?),
        4 => Expr::Mul(sub(r)?, sub(r)?),
        5 => Expr::Div(sub(r)?, sub(r)?),
        6 => Expr::Min(sub(r)?, sub(r)?),
        7 => Expr::Max(sub(r)?, sub(r)?),
        8 => Expr::Neg(sub(r)?),
        tag => return Err(DecodeError::BadTag { field: "expr", tag }),
    })
}

fn put_cond(w: &mut Writer, c: &Cond<SpecVar>) {
    put_expr(w, &c.lhs);
    w.u8(match c.op {
        CmpOp::Le => 0,
        CmpOp::Lt => 1,
        CmpOp::Ge => 2,
        CmpOp::Gt => 3,
        CmpOp::Eq => 4,
    });
    put_expr(w, &c.rhs);
}

fn get_cond(r: &mut Reader<'_>) -> Result<Cond<SpecVar>, DecodeError> {
    let lhs = get_expr(r, 1)?;
    let op = r.tag("cmp", &[CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt, CmpOp::Eq])?;
    Ok(Cond::new(lhs, op, get_expr(r, 1)?))
}

fn put_effect(w: &mut Writer, e: &Effect<SpecVar>) {
    put_var(w, &e.target);
    w.u8(match e.op {
        AssignOp::Set => 0,
        AssignOp::Sub => 1,
        AssignOp::Add => 2,
    });
    put_expr(w, &e.value);
}

fn get_effect(r: &mut Reader<'_>) -> Result<Effect<SpecVar>, DecodeError> {
    let target = get_var(r)?;
    let op = r.tag("assign", &[AssignOp::Set, AssignOp::Sub, AssignOp::Add])?;
    Ok(Effect::new(target, op, get_expr(r, 1)?))
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

    /// Tiny/B's SKT1 bytes with its first component's cost replaced by
    /// the encoded formula `formula`.
    fn with_cost(formula: &[u8]) -> Vec<u8> {
        let mut p = scenarios::tiny(LevelScenario::B);
        p.components[0].cost = Expr::c(-123.25);
        let bytes = encode(&p).to_vec();
        let leaf = [&[0u8][..], &(-123.25f64).to_be_bytes()].concat();
        let at = bytes.windows(leaf.len()).position(|w| w == leaf).expect("marker encoded");
        [&bytes[..at], formula, &bytes[at + leaf.len()..]].concat()
    }

    #[test]
    fn rejects_formulas_deeper_than_the_cap() {
        let leaf = [&[0u8][..], &1.0f64.to_be_bytes()].concat();
        // depth-`d` trees: a unary chain, a left-deep sum and a right-deep sum
        let neg = |d: usize| [vec![8u8; d - 1], leaf.clone()].concat();
        let left = |d: usize| [vec![2u8; d - 1], leaf.repeat(d)].concat();
        let right = |d: usize| [[&[2u8][..], &leaf].concat().repeat(d - 1), leaf.clone()].concat();
        for tree in [neg(MAX_EXPR_DEPTH), left(MAX_EXPR_DEPTH), right(MAX_EXPR_DEPTH)] {
            let p = decode(&with_cost(&tree)).expect("a formula at the cap decodes");
            assert_eq!(encode(&p).to_vec(), with_cost(&tree));
        }
        for d in [MAX_EXPR_DEPTH + 1, 10_000] {
            for tree in [neg(d), left(d), right(d)] {
                let err = decode(&with_cost(&tree)).unwrap_err();
                assert!(err.to_string().contains("nests deeper"), "depth {d}: {err}");
            }
        }
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
