//! Regenerates `crates/bench/table3_heads.csv`'s rows for the current
//! logistic head: every logistic-head row of Table III (the raw-feature
//! baseline and each post-variational strategy) on each pinned seed.
//! Prints the CSV header and one line per row to stdout; append the lines
//! to the artifact to pin them beside the rows of earlier solvers.
//!
//! Run: `cargo run --release -p bench --bin exp_table3_heads`

use bench::heads::{all_head_rows, CSV_HEADER, PIN_SEEDS};

fn main() {
    println!("{CSV_HEADER}");
    for seed in PIN_SEEDS {
        for row in all_head_rows(seed) {
            println!("{}", row.to_csv());
        }
    }
}
