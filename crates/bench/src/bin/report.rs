//! Regenerate every table and figure in one run (the source of
//! EXPERIMENTS.md's measured columns).
fn main() {
    branchlab_bench::artifact_main("report", |options, suite| {
        print!("{}", branchlab_bench::render_report(options, suite));
    });
}
