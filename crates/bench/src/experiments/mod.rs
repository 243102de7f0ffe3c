//! The experiment suite E1–E14. See `EXPERIMENTS.md` for the index and
//! the recorded outcomes.

pub mod e10_continuous;
pub mod e11_rule_ablation;
pub mod e12_chaos;
pub mod e13_multiplex;
pub mod e14_edos;
pub mod e1_pushing_selections;
pub mod e2_delegation_crossover;
pub mod e3_transit_stop;
pub mod e4_transfer_sharing;
pub mod e5_sc_relocation;
pub mod e6_push_over_sc;
pub mod e7_pick_policies;
pub mod e8_optimizer;
pub mod e9_scalability;
#[cfg(test)]
mod search_identity;

use crate::report::Report;

/// An experiment entry: id + runner.
pub type Experiment = (&'static str, fn() -> Report);

/// All experiments, in order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("e1", e1_pushing_selections::run as fn() -> Report),
        ("e2", e2_delegation_crossover::run),
        ("e3", e3_transit_stop::run),
        ("e4", e4_transfer_sharing::run),
        ("e5", e5_sc_relocation::run),
        ("e6", e6_push_over_sc::run),
        ("e7", e7_pick_policies::run),
        ("e8", e8_optimizer::run),
        ("e9", e9_scalability::run),
        ("e10", e10_continuous::run),
        ("e11", e11_rule_ablation::run),
        ("e12", e12_chaos::run),
        ("e13", e13_multiplex::run),
        ("e14", e14_edos::run),
    ]
}

#[cfg(test)]
mod tests {
    /// Every experiment runs, produces a non-empty table, and every sweep
    /// row carries its own reconciling [`axml_obs::RunReport`] — the
    /// per-row history the `--json` export publishes. This is the smoke
    /// test keeping the whole harness green.
    #[test]
    fn all_experiments_run() {
        for (id, run) in super::all() {
            let r = run();
            assert!(!r.rows.is_empty(), "{id} produced no rows");
            assert!(!r.to_string().is_empty());
            assert_eq!(
                r.rows.len(),
                r.row_runs.len(),
                "{id}: row_runs parallel to rows"
            );
            for (i, (row, run)) in r.rows_with_runs().enumerate() {
                let run = run.unwrap_or_else(|| panic!("{id} row {i} ({row:?}) has no run"));
                assert!(
                    run.reconciled,
                    "{id} row {i} ({:?}): run {:?} does not reconcile",
                    row[0], run.title
                );
            }
            assert!(r.run.is_some(), "{id} has no representative run");
        }
    }
}
