//! Recorded outcomes of every pool instance (`expected_costs.tsv`).
//!
//! One line per instance key: `key<TAB>class<TAB>cost`, with class
//! `exact` (cost is the instance's optimal cost), `degraded` (the cost of
//! the budget-exhausted plan the recording run returned) or `none`. The
//! optimal cost belongs to the instance, so any later search must match
//! it exactly; a degraded or missing answer may improve on the record but
//! a plan may never go missing.

use std::collections::HashMap;

const RECORD: &str = include_str!("../expected_costs.tsv");

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    Exact(f64),
    Degraded(f64),
    NoPlan,
}

pub struct Table(HashMap<&'static str, Expected>);

impl Table {
    pub fn load() -> Table {
        let mut map = HashMap::new();
        for line in RECORD.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let mut f = line.split('\t');
            let (key, class, cost) = (f.next().unwrap(), f.next(), f.next());
            let cost = cost.and_then(|c| c.parse::<f64>().ok());
            let e = match (class, cost) {
                (Some("exact"), Some(c)) => Expected::Exact(c),
                (Some("degraded"), Some(c)) => Expected::Degraded(c),
                (Some("none"), _) => Expected::NoPlan,
                _ => panic!("malformed expected_costs.tsv line: {line}"),
            };
            map.insert(key, e);
        }
        Table(map)
    }

    /// Check one outcome (`None` = no plan; `Some((cost, exact))`).
    pub fn check(&self, key: &str, got: Option<(f64, bool)>) -> Result<(), String> {
        let want = *self.0.get(key).ok_or_else(|| format!("{key}: no recorded outcome"))?;
        let same = |a: f64, b: f64| (a - b).abs() <= 1e-6 * a.abs().max(1.0);
        match (want, got) {
            (Expected::Exact(w), Some((c, true))) if !same(w, c) => {
                Err(format!("{key}: exact cost {c} differs from the optimal cost {w}"))
            }
            (Expected::Degraded(w), Some((c, true))) if c > w + 1e-6 * w.abs().max(1.0) => {
                Err(format!("{key}: exact cost {c} exceeds a known plan of cost {w}"))
            }
            (Expected::Exact(_) | Expected::Degraded(_), None) => {
                Err(format!("{key}: no plan, but one is known"))
            }
            _ => Ok(()),
        }
    }
}

/// One recorded line for an outcome.
pub fn line(key: &str, got: Option<(f64, bool)>) -> String {
    match got {
        Some((c, true)) => format!("{key}\texact\t{c}"),
        Some((c, false)) => format!("{key}\tdegraded\t{c}"),
        None => format!("{key}\tnone\t-"),
    }
}
