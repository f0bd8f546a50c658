//! # sekitei-cert
//!
//! Proof-carrying plans: every plan the system ships can carry a compact
//! [`PlanCertificate`] that an *independent* checker re-validates against
//! the compiled [`PlanningTask`](sekitei_compile::PlanningTask) in
//! microseconds — no re-search, no trust in the planner, the server cache,
//! or the churn adaptation layer (after Hill et al., *"Proof-Carrying
//! Plans: a Resource Logic for AI Planning"*).
//!
//! A certificate contains four things:
//!
//! 1. **Precondition witnesses** — for every step, each propositional
//!    precondition names the earlier step (or the initial state) that
//!    established it. Ground propositions are monotone (actions only add),
//!    so an earlier adder is a complete justification.
//! 2. **A resource ledger** — per step, the post-value of every ground
//!    variable the action wrote, produced *as the plan's sources were
//!    bound* by the planner's concretization. The checker re-executes the
//!    plan at the certified source values and confirms every claimed cell,
//!    every numeric condition, and non-negativity at every prefix.
//! 3. **A goal witness** — the step (or initial state) establishing each
//!    goal proposition.
//! 4. **A [`BoundTrail`]** — the admissible bounds (root heuristic,
//!    search-frontier minimum) and the search-mode flags (budget exits,
//!    incumbent cutoff, pruning switches) needed to interpret the claimed
//!    optimality gap. The checker verifies the gap arithmetic against the
//!    recorded basis and refuses a proved-optimal basis on a search that
//!    was cut short; the bounds themselves are the one thing taken from
//!    the search, and [`CheckReport::gap_proved`] says when they are sound
//!    (a frontier bound recorded under the legacy lossy drain mode is
//!    advisory only).
//!
//! The checker ([`check_certificate`]) deliberately shares **no code with
//! the search**: it is a self-contained forward executor over
//! `spec`/`compile`/`model` types, small enough to audit by eye, and fast
//! enough (&lt; 1 ms on Large-scenario plans) to run on every cached,
//! degraded, anytime, or churn-repaired outcome.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod check;
mod emit;
pub mod wire;

pub use check::{check_certificate, CheckReport};
pub use emit::{certify_by_execution, emit, rebind};
pub use wire::{decode_certificate, encode_certificate};

use sekitei_model::{ActionId, GVarId, PropId};

/// Certificate format version (bumped on any incompatible change to the
/// structure or its wire form).
pub const CERT_VERSION: u32 = 1;

/// Which serving path produced the certified plan. Cached outcomes replay
/// the class of the run that populated the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeClass {
    /// The exact search's greedy-validated optimal exit.
    Exact,
    /// The graceful-degradation path: a budget tripped and the cheapest
    /// interval-feasible candidate was re-bound at relaxed source values.
    Degraded,
    /// The anytime portfolio's stochastic-local-search incumbent.
    AnytimeIncumbent,
    /// A churn repair re-certified against the mutated network.
    ChurnRepair,
}

impl std::fmt::Display for OutcomeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OutcomeClass::Exact => "exact",
            OutcomeClass::Degraded => "degraded",
            OutcomeClass::AnytimeIncumbent => "anytime-incumbent",
            OutcomeClass::ChurnRepair => "churn-repair",
        })
    }
}

/// Where a propositional fact needed by a step (or by the goal) came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// True in the initial state.
    Init,
    /// Added by the plan step at this position.
    Step(u32),
}

/// One precondition of one step, with its justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrecondWitness {
    /// The ground proposition required.
    pub prop: PropId,
    /// Where it was established.
    pub by: Provenance,
}

/// One goal proposition with its justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoalWitness {
    /// The goal proposition.
    pub prop: PropId,
    /// Where it was established.
    pub by: Provenance,
}

/// The resource ledger of a concrete plan execution: for each step, the
/// post-value of every ground variable the action wrote, in effect order.
///
/// Produced by the planner's concretization *as it binds* source values
/// (every candidate execution records its writes on the way through), then
/// carried verbatim into the certificate — the checker recomputes each
/// cell independently and rejects on any mismatch.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResourceLedger {
    /// One row per plan step.
    pub rows: Vec<LedgerRow>,
}

/// The writes of one plan step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LedgerRow {
    /// `(variable, post-value)` per effect, in the action's effect order.
    pub writes: Vec<(GVarId, f64)>,
}

impl ResourceLedger {
    /// Total number of ledger cells across all rows.
    pub fn entries(&self) -> usize {
        self.rows.iter().map(|r| r.writes.len()).sum()
    }
}

/// One certified plan step: the ground action, its precondition
/// witnesses, and its row of the resource ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct CertStep {
    /// The ground action (index into the compiled task's action table).
    pub action: ActionId,
    /// The action's rendered name — redundant with `action` against the
    /// issuing task (the checker verifies they agree), but what allows a
    /// certificate to be re-bound onto a *recompiled* task whose indices
    /// shifted (churn re-certification, see [`rebind`]).
    pub name: String,
    /// Justification for every propositional precondition.
    pub preconds: Vec<PrecondWitness>,
    /// `(variable, claimed post-value)` per effect, in effect order.
    pub writes: Vec<(GVarId, f64)>,
}

/// How the claimed optimality gap is justified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapBasis {
    /// The search ran to a proven-optimal exit: the gap is exactly zero.
    Proved,
    /// Measured against the root heuristic bound `h(goal)` — admissible by
    /// construction, independent of where a deadline landed (the anytime
    /// portfolio's deterministic rule).
    RootBound,
    /// Measured against the minimum `f` over the search's unexplored
    /// frontier at exit, which is admissible: the search pops nodes in `f`
    /// order and prunes no tail it could still complete. **Advisory only**
    /// on a certificate whose trail records the legacy lossy drain mode
    /// ([`BoundTrail::drain_mode`]).
    FrontierBound,
    /// No usable bound survived the run: no gap may be claimed.
    Unbounded,
}

/// The admissible-bound trail justifying a certificate's claimed
/// optimality gap, plus the search-mode flags needed to interpret it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundTrail {
    /// The certified plan's cost lower bound (must equal the sum of the
    /// certified actions' costs — the checker recomputes it).
    pub plan_cost: f64,
    /// Root heuristic `h(goal)` when the search seeded a root.
    pub root_bound: Option<f64>,
    /// Minimum `f` over the unexplored frontier at search exit, when the
    /// search stopped before exhausting the space.
    pub frontier_bound: Option<f64>,
    /// The gap's justification; selects which bound the checker verifies
    /// the arithmetic against.
    pub gap_basis: GapBasis,
    /// The claimed gap: `max(0, plan_cost − basis bound)`, `Some(0.0)`
    /// for proved-optimal plans, `None` iff `gap_basis` is
    /// [`GapBasis::Unbounded`].
    pub claimed_gap: Option<f64>,
    /// The exact search stopped because the frontier minimum strictly
    /// exceeded a shared anytime incumbent cost.
    pub incumbent_cutoff: bool,
    /// A node/reject budget was exhausted before the space was.
    pub budget_exhausted: bool,
    /// Specifically the wall-clock deadline tripped the search.
    pub deadline_hit: bool,
    /// Legacy: the search's lossy drain mode engaged, dropping nodes by
    /// g-aware duplicate detection and coarse signature symmetry, so a
    /// frontier bound recorded here does **not** prove a gap — see
    /// [`CheckReport::gap_proved`]. The planner no longer has a drain mode
    /// and writes `false`; the flag decodes certificates issued before.
    pub drain_mode: bool,
    /// Legacy: drain-mode duplicate detection was enabled. The planner
    /// writes `false`; the flag decodes certificates issued before.
    pub dominance: bool,
    /// Orbit symmetry breaking was enabled (exactness-preserving — does
    /// not weaken the bound).
    pub symmetry: bool,
}

impl BoundTrail {
    /// True when the gap claim rests on a sound admissible bound: a
    /// proved-optimal exit from a search that ran to its end, the root
    /// heuristic, or a frontier bound from a run that never engaged lossy
    /// drain-mode pruning. False means the gap is advisory. The checker
    /// reports this as [`CheckReport::gap_proved`] once it has verified the
    /// claim's arithmetic, and refuses a `Proved` basis this says is not.
    pub fn gap_proved(&self) -> bool {
        match self.gap_basis {
            GapBasis::Proved => !(self.budget_exhausted || self.deadline_hit || self.drain_mode),
            GapBasis::RootBound => true,
            GapBasis::FrontierBound => !self.drain_mode,
            GapBasis::Unbounded => false,
        }
    }
}

/// A machine-checkable certificate for one deployment plan.
///
/// Self-contained: the action list *is* the plan, the sources *are* the
/// concrete binding, so `(problem spec, certificate)` suffices to re-derive
/// and re-validate everything — see [`check_certificate`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCertificate {
    /// Format version ([`CERT_VERSION`]).
    pub version: u32,
    /// [`PlanningTask::fingerprint`](sekitei_compile::PlanningTask::fingerprint)
    /// of the compiled task this certificate was issued against.
    pub task_fingerprint: u64,
    /// Which serving path produced the plan.
    pub outcome: OutcomeClass,
    /// The certified steps, in execution order.
    pub steps: Vec<CertStep>,
    /// Concrete value bound per stream-source variable.
    pub sources: Vec<(GVarId, f64)>,
    /// Justification for every goal proposition.
    pub goals: Vec<GoalWitness>,
    /// The bound trail.
    pub bound: BoundTrail,
}

impl PlanCertificate {
    /// Number of ledger cells across all steps.
    pub fn ledger_entries(&self) -> usize {
        self.steps.iter().map(|s| s.writes.len()).sum()
    }
}

/// Why a certificate was rejected. Every variant renders a line-precise
/// reason (step index, proposition/variable name, claimed vs recomputed
/// value) — `sekitei verify-cert` prints it verbatim and exits nonzero.
#[derive(Debug, Clone, PartialEq)]
pub enum CertViolation {
    /// The bytes or structure are not a well-formed certificate.
    Malformed(String),
    /// The certificate was issued against a different compiled task.
    FingerprintMismatch {
        /// Fingerprint of the task being checked against.
        expected: u64,
        /// Fingerprint recorded in the certificate.
        actual: u64,
    },
    /// A step names an action the task does not have.
    UnknownAction {
        /// Step position.
        step: usize,
        /// The action name recorded in the certificate.
        name: String,
    },
    /// A step's action index and recorded name disagree.
    ActionNameMismatch {
        /// Step position.
        step: usize,
        /// Name recorded in the certificate.
        cert: String,
        /// Name of the indexed action in the task.
        task: String,
    },
    /// A step's precondition has no witness.
    MissingPrecondWitness {
        /// Step position.
        step: usize,
        /// The unjustified proposition.
        prop: String,
    },
    /// A witness does not justify its proposition.
    BadWitness {
        /// Step position (`usize::MAX` for goal witnesses).
        step: usize,
        /// The proposition.
        prop: String,
        /// Why the witness fails.
        reason: String,
    },
    /// A step reads a variable never produced.
    UndefinedRead {
        /// Step position.
        step: usize,
        /// The variable.
        var: String,
    },
    /// A numeric condition fails at the certified source values.
    ConditionFailed {
        /// Step position.
        step: usize,
        /// Condition index within the action.
        cond: usize,
        /// Rendered condition.
        text: String,
    },
    /// A resource goes negative — the prefix non-negativity invariant
    /// breaks at this step.
    ResourceNegative {
        /// Step position.
        step: usize,
        /// The variable.
        var: String,
        /// The (negative) post-value the execution reaches.
        value: f64,
    },
    /// A ledger cell's claimed post-value differs from the recomputed one.
    LedgerMismatch {
        /// Step position.
        step: usize,
        /// The variable.
        var: String,
        /// Value claimed by the certificate.
        claimed: f64,
        /// Value the independent execution yields.
        actual: f64,
    },
    /// A ledger row has the wrong shape (missing, surplus, or reordered
    /// writes — e.g. a truncated ledger).
    LedgerShape {
        /// Step position.
        step: usize,
        /// What is wrong.
        detail: String,
    },
    /// A certified source value lies outside the source's availability.
    SourceOutOfRange {
        /// The source variable.
        var: String,
        /// The certified value.
        value: f64,
    },
    /// A goal proposition has no witness.
    GoalUnwitnessed {
        /// The goal proposition.
        prop: String,
    },
    /// The certified plan cost does not equal the sum of step costs.
    CostMismatch {
        /// Cost claimed by the bound trail.
        claimed: f64,
        /// Sum of the certified actions' costs.
        actual: f64,
    },
    /// The claimed gap is smaller than the recorded bounds justify.
    GapUnderstated {
        /// Gap claimed by the certificate.
        claimed: f64,
        /// Gap the recorded basis bound justifies.
        justified: f64,
    },
    /// The gap claim is not derivable from the recorded bound trail.
    GapInconsistent {
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for CertViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertViolation::Malformed(m) => write!(f, "malformed certificate: {m}"),
            CertViolation::FingerprintMismatch { expected, actual } => write!(
                f,
                "task fingerprint mismatch: certificate issued against \
                 {actual:#018x}, checking against {expected:#018x}"
            ),
            CertViolation::UnknownAction { step, name } => {
                write!(f, "step {step}: task has no action `{name}`")
            }
            CertViolation::ActionNameMismatch { step, cert, task } => {
                write!(f, "step {step}: certificate says `{cert}`, task action is `{task}`")
            }
            CertViolation::MissingPrecondWitness { step, prop } => {
                write!(f, "step {step}: precondition `{prop}` has no witness")
            }
            CertViolation::BadWitness { step, prop, reason } => {
                if *step == usize::MAX {
                    write!(f, "goal witness for `{prop}`: {reason}")
                } else {
                    write!(f, "step {step}: witness for `{prop}`: {reason}")
                }
            }
            CertViolation::UndefinedRead { step, var } => {
                write!(f, "step {step}: read of undefined `{var}`")
            }
            CertViolation::ConditionFailed { step, cond, text } => {
                write!(f, "step {step}: condition #{cond} `{text}` fails at certified values")
            }
            CertViolation::ResourceNegative { step, var, value } => {
                write!(f, "step {step}: `{var}` goes negative ({value})")
            }
            CertViolation::LedgerMismatch { step, var, claimed, actual } => write!(
                f,
                "step {step}: ledger claims `{var}` = {claimed}, execution yields {actual}"
            ),
            CertViolation::LedgerShape { step, detail } => {
                write!(f, "step {step}: ledger row malformed: {detail}")
            }
            CertViolation::SourceOutOfRange { var, value } => {
                write!(f, "source `{var}` = {value} outside its availability")
            }
            CertViolation::GoalUnwitnessed { prop } => {
                write!(f, "goal `{prop}` has no witness")
            }
            CertViolation::CostMismatch { claimed, actual } => {
                write!(f, "plan cost mismatch: trail claims {claimed}, step costs sum to {actual}")
            }
            CertViolation::GapUnderstated { claimed, justified } => write!(
                f,
                "optimality gap understated: claims ≤ {claimed}, bounds justify only ≤ {justified}"
            ),
            CertViolation::GapInconsistent { detail } => {
                write!(f, "bound trail inconsistent: {detail}")
            }
        }
    }
}

impl std::error::Error for CertViolation {}
