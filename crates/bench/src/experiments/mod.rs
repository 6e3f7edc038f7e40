//! One module per table/figure of the paper (see DESIGN.md §4).
//!
//! Every experiment returns [`Table`]s; the `tables` binary prints them
//! and EXPERIMENTS.md records representative runs.

pub mod ablation;
pub mod e1;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod figures;
pub mod obs;
pub mod t1;
pub mod t2;

use crate::table::Table;

/// All experiment ids, in document order.
pub const ALL: &[&str] = &[
    "t1", "t2", "f1", "f2", "f3", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e12",
    "e13", "e14", "e15", "a1", "a2", "obs",
];

/// Runs one experiment by id, returning its tables.
///
/// # Panics
///
/// Panics on an unknown id (the `tables` binary validates first).
pub fn run(id: &str) -> Vec<Table> {
    match id {
        "t1" => t1::run(),
        "t2" => t2::run(),
        "f1" => figures::run_f1(),
        "f2" => figures::run_f2(),
        "f3" => figures::run_f3(),
        "e1" => e1::run(),
        "e2" => e2::run(),
        "e3" => e3::run(),
        "e4" => e4::run(),
        "e5" => e5::run(),
        "e6" => e6::run(),
        "e7" => e7::run(),
        "e8" => e8::run(),
        "e9" => e9::run(),
        "e12" => e12::run(),
        "e13" => e13::run(),
        "e14" => e14::run(),
        "e15" => e15::run(),
        "a1" => ablation::run_a1(),
        "a2" => ablation::run_a2(),
        "obs" => obs::run(),
        other => panic!("unknown experiment id {other:?} (known: {ALL:?})"),
    }
}

/// `true` iff `id` names a known experiment.
pub fn is_known(id: &str) -> bool {
    ALL.contains(&id)
}

/// Held by every test that starts daemons, one at a time: E12 counts
/// the daemons' threads before and after its sweeps, and another
/// test's daemons starting or stopping in between would move the count.
#[cfg(test)]
pub(crate) fn daemons_alone() -> std::sync::MutexGuard<'static, ()> {
    static DAEMONS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    DAEMONS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_experiment_runs_and_produces_rows() {
        let _alone = daemons_alone();
        for id in ALL {
            let tables = run(id);
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.is_empty(), "{id} produced an empty table");
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run("zz");
    }
}
