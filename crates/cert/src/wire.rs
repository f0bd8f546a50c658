//! `SKC1` — the certificate wire encoding.
//!
//! A self-describing big-endian byte format on [`sekitei_model::codec`],
//! like the `SKO1` outcome framing: fixed magic, explicit lengths, option
//! tags, and hard rejection of trailing bytes. The blob travels opaquely
//! inside `SKO1` responses and in `--emit-cert` files; both ends speak
//! only this module.

use crate::{
    BoundTrail, CertStep, CertViolation, GapBasis, GoalWitness, OutcomeClass, PlanCertificate,
    PrecondWitness, Provenance,
};
use sekitei_model::codec::{DecodeError, Reader, Writer};
use sekitei_model::{ActionId, GVarId, PropId};

/// Leading magic of every encoded certificate.
pub const CERT_MAGIC: &[u8; 4] = b"SKC1";

/// Upper bound on any single length field, to bound allocation on
/// malformed input before the payload is validated.
const MAX_LEN: usize = 1 << 22;

impl From<DecodeError> for CertViolation {
    fn from(e: DecodeError) -> Self {
        CertViolation::Malformed(e.to_string())
    }
}

fn put_provenance(w: &mut Writer, p: Provenance) {
    match p {
        Provenance::Init => w.u8(0),
        Provenance::Step(k) => {
            w.u8(1);
            w.u32(k);
        }
    }
}

fn get_provenance(r: &mut Reader<'_>) -> Result<Provenance, DecodeError> {
    match r.u8()? {
        0 => Ok(Provenance::Init),
        1 => Ok(Provenance::Step(r.u32()?)),
        tag => Err(DecodeError::BadTag { field: "provenance", tag }),
    }
}

/// Serialize a certificate to its `SKC1` byte form.
pub fn encode_certificate(cert: &PlanCertificate) -> Vec<u8> {
    let mut w = Writer::with_capacity(256);
    w.bytes(CERT_MAGIC);
    w.u32(cert.version);
    w.u64(cert.task_fingerprint);
    w.u8(match cert.outcome {
        OutcomeClass::Exact => 0,
        OutcomeClass::Degraded => 1,
        OutcomeClass::AnytimeIncumbent => 2,
        OutcomeClass::ChurnRepair => 3,
    });
    w.list(&cert.steps, |w, s| {
        w.u32(s.action.index() as u32);
        w.str(&s.name);
        w.list(&s.preconds, |w, p| {
            w.u32(p.prop.index() as u32);
            put_provenance(w, p.by);
        });
        w.list(&s.writes, put_value);
    });
    w.list(&cert.sources, put_value);
    w.list(&cert.goals, |w, g| {
        w.u32(g.prop.index() as u32);
        put_provenance(w, g.by);
    });
    let b = &cert.bound;
    w.f64(b.plan_cost);
    w.opt_f64(b.root_bound);
    w.opt_f64(b.frontier_bound);
    w.u8(match b.gap_basis {
        GapBasis::Proved => 0,
        GapBasis::RootBound => 1,
        GapBasis::FrontierBound => 2,
        GapBasis::Unbounded => 3,
    });
    w.opt_f64(b.claimed_gap);
    let mut flags = 0u8;
    for (bit, on) in [
        b.incumbent_cutoff,
        b.budget_exhausted,
        b.deadline_hit,
        b.drain_mode,
        b.dominance,
        b.symmetry,
    ]
    .into_iter()
    .enumerate()
    {
        if on {
            flags |= 1 << bit;
        }
    }
    w.u8(flags);
    w.into_vec()
}

fn put_value(w: &mut Writer, &(v, x): &(GVarId, f64)) {
    w.u32(v.index() as u32);
    w.f64(x);
}

fn get_value(r: &mut Reader<'_>) -> Result<(GVarId, f64), DecodeError> {
    Ok((GVarId::from_index(r.u32()? as usize), r.f64()?))
}

/// Deserialize an `SKC1` certificate, rejecting malformed or trailing bytes.
pub fn decode_certificate(bytes: &[u8]) -> Result<PlanCertificate, CertViolation> {
    let mut r = Reader::new(bytes);
    r.magic(CERT_MAGIC)?;
    let version = r.u32()?;
    let task_fingerprint = r.u64()?;
    let outcome = r.tag(
        "outcome class",
        &[
            OutcomeClass::Exact,
            OutcomeClass::Degraded,
            OutcomeClass::AnytimeIncumbent,
            OutcomeClass::ChurnRepair,
        ],
    )?;
    let steps = r.list(MAX_LEN, |r| {
        Ok(CertStep {
            action: ActionId::from_index(r.u32()? as usize),
            name: r.str(MAX_LEN)?,
            preconds: r.list(MAX_LEN, |r| {
                Ok(PrecondWitness {
                    prop: PropId::from_index(r.u32()? as usize),
                    by: get_provenance(r)?,
                })
            })?,
            writes: r.list(MAX_LEN, get_value)?,
        })
    })?;
    let sources = r.list(MAX_LEN, get_value)?;
    let goals = r.list(MAX_LEN, |r| {
        Ok(GoalWitness { prop: PropId::from_index(r.u32()? as usize), by: get_provenance(r)? })
    })?;
    let plan_cost = r.f64()?;
    let root_bound = r.opt_f64()?;
    let frontier_bound = r.opt_f64()?;
    let gap_basis = r.tag(
        "gap basis",
        &[GapBasis::Proved, GapBasis::RootBound, GapBasis::FrontierBound, GapBasis::Unbounded],
    )?;
    let claimed_gap = r.opt_f64()?;
    let flags = r.u8()?;
    if flags & !0x3f != 0 {
        return Err(CertViolation::Malformed(format!("unknown flag bits {flags:#x}")));
    }
    r.finish()?;
    Ok(PlanCertificate {
        version,
        task_fingerprint,
        outcome,
        steps,
        sources,
        goals,
        bound: BoundTrail {
            plan_cost,
            root_bound,
            frontier_bound,
            gap_basis,
            claimed_gap,
            incumbent_cutoff: flags & 1 != 0,
            budget_exhausted: flags & 2 != 0,
            deadline_hit: flags & 4 != 0,
            drain_mode: flags & 8 != 0,
            dominance: flags & 16 != 0,
            symmetry: flags & 32 != 0,
        },
    })
}
