//! Regenerates Table 2 — the scalability evaluation: for each network size
//! (Tiny / Small / Large) and level scenario (A–E), the plan's cost lower
//! bound, its action count, the reserved LAN bandwidth, and the planner's
//! work (ground actions, of which the goal-relevant ones are built,
//! PLRG/SLRG/RG sizes, wall time).
//!
//! Rows are independent planning runs, so by default they execute through
//! [`Planner::plan_batch`] on scoped worker threads (results are
//! deterministic either way); pass `--sequential` for clean per-row timing
//! measurements.

use sekitei_model::{CppProblem, LevelScenario};
use sekitei_planner::{plan_metrics, PlanOutcome, Planner, PlannerConfig};
use sekitei_topology::scenarios::{self, NetSize};

fn format_row(size: NetSize, sc: LevelScenario, p: &CppProblem, o: &PlanOutcome) -> String {
    let s = &o.stats;
    let work = format!(
        "{:>9}{:>8}{:>8}/{:<6}{:>8}{:>9}/{:<7}{:>7.0}/{:<7.0}",
        s.total_actions,
        s.compile.built,
        s.plrg_props,
        s.plrg_actions,
        s.slrg_nodes,
        s.rg_nodes,
        s.rg_open_left,
        s.total_time.as_secs_f64() * 1e3,
        s.search_time.as_secs_f64() * 1e3,
    );
    match &o.plan {
        Some(plan) => {
            let m = plan_metrics(p, &o.task, plan);
            let lan = if m.reserved_lan_bw > 0.0 {
                format!("{:.1}", m.reserved_lan_bw)
            } else {
                "N/A".to_string()
            };
            format!(
                "{:<7}{:<4}{:>12.1}{:>9}{:>10}{}",
                size.label(),
                sc.label(),
                plan.cost_lower_bound,
                plan.len(),
                lan,
                work
            )
        }
        None => format!(
            "{:<7}{:<4}{:>12}{:>9}{:>10}{}{}",
            size.label(),
            sc.label(),
            "-",
            "no plan",
            "-",
            work,
            if s.budget_exhausted { "  (budget)" } else { "" }
        ),
    }
}

fn main() {
    let sequential = std::env::args().any(|a| a == "--sequential");
    let grid: Vec<(NetSize, LevelScenario)> = NetSize::ALL
        .into_iter()
        .flat_map(|size| LevelScenario::ALL.into_iter().map(move |sc| (size, sc)))
        .collect();

    println!(
        "{:<7}{:<4}{:>12}{:>9}{:>10}{:>9}{:>8}{:>15}{:>8}{:>17}{:>15}",
        "Net",
        "Sc",
        "lower-bound",
        "actions",
        "LAN bw",
        "#acts",
        "built",
        "PLRG p/a",
        "SLRG",
        "RG created/open",
        "time tot/search"
    );

    let problems: Vec<CppProblem> =
        grid.iter().map(|&(size, sc)| scenarios::problem(size, sc)).collect();
    let planner = Planner::new(PlannerConfig::default());
    let t0 = std::time::Instant::now();
    let outcomes = if sequential {
        planner.plan_batch_with(&problems, 1)
    } else {
        planner.plan_batch(&problems)
    };
    let wall = t0.elapsed();

    for ((&(size, sc), p), o) in grid.iter().zip(&problems).zip(&outcomes) {
        println!("{}", format_row(size, sc, p, o.as_ref().expect("scenario grids compile")));
    }
    println!(
        "\ngrid wall time: {:.0} ms ({})",
        wall.as_secs_f64() * 1e3,
        if sequential { "sequential".to_string() } else { "parallel batch".to_string() }
    );
    println!(
        "\nPaper reference (Table 2): B finds shortest plans (bounds 7/10/11 = action\n\
         counts, LAN reservation 100); C-E find the cost-optimal 13-action plans\n\
         reserving 65 units; A fails everywhere; work grows with levels (E >> D)."
    );
}
