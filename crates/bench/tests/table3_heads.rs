//! The pinned Table III logistic heads (`crates/bench/table3_heads.csv`).

use bench::heads::{head_rows, pinned, table3_strategies, HeadRow, CLASSICAL, PIN_SEEDS, SOLVER};

/// Slack on "no worse than the pinned Adam objective".
const OBJECTIVE_SLACK: f64 = 1e-9;
/// The solver's stopping tolerance on ‖∇‖∞.
const GRAD_TOL: f64 = 1e-6;

fn find<'a>(rows: &'a [HeadRow], seed: u64, model: &str, solver: &str) -> &'a HeadRow {
    rows.iter()
        .find(|r| r.seed == seed && r.model == model && r.solver == solver)
        .unwrap_or_else(|| panic!("no pinned row {seed}/{model}/{solver}"))
}

fn assert_converged_and_no_worse_than_adam(row: &HeadRow, adam: &HeadRow) {
    assert!(
        row.objective <= adam.objective + OBJECTIVE_SLACK,
        "{} seed {}: objective {} > Adam's {}",
        row.model,
        row.seed,
        row.objective,
        adam.objective
    );
    assert!(
        row.grad_inf <= GRAD_TOL,
        "{} seed {}: ‖g‖∞ = {}",
        row.model,
        row.seed,
        row.grad_inf
    );
}

/// Every pinned row of the current solver reaches the gradient tolerance
/// and an objective no worse than the Adam row it replaced.
#[test]
fn pinned_rows_cover_table3_and_beat_adam() {
    let rows = pinned();
    let mut models = vec![CLASSICAL];
    models.extend(table3_strategies().iter().map(|(n, _)| *n));
    for seed in PIN_SEEDS {
        for &model in &models {
            let adam = find(&rows, seed, model, "adam");
            assert_converged_and_no_worse_than_adam(find(&rows, seed, model, SOLVER), adam);
        }
    }
}

/// A smoke-size regeneration: three strategies on seed 1 reproduce their
/// pinned rows and still beat Adam's objective at the gradient tolerance.
/// The 2-order hybrid's 1677 columns hold 139 distinct up to sign, so its
/// head is fitted on the reduced design.
#[test]
fn smoke_regeneration_matches_the_pins() {
    let rows = pinned();
    let models = [
        "Observable 1-local",
        "Hybrid 1-order + 1-local",
        "Hybrid 2-order + 1-local",
    ];
    for row in head_rows(1, &models) {
        assert_converged_and_no_worse_than_adam(&row, find(&rows, 1, &row.model, "adam"));
        let pin = find(&rows, 1, &row.model, SOLVER);
        for (name, got, want) in [
            ("objective", row.objective, pin.objective),
            ("train loss", row.train_loss, pin.train_loss),
            ("train acc", row.train_acc, pin.train_acc),
            ("test loss", row.test_loss, pin.test_loss),
            ("test acc", row.test_acc, pin.test_acc),
        ] {
            assert!(
                (got - want).abs() <= 1e-9,
                "{} {name}: regenerated {got} vs pinned {want}",
                row.model
            );
        }
    }
}
