//! The bytes `report --scale test --seed 1989` prints are pinned: the
//! fixture was rendered by the release build before the natural pass
//! moved to pc-indexed tables, and any change to what the suite scores
//! or how the report renders it must show up here.

use branchlab_bench::{render_report, suite, Options};

const GOLDEN: &str = include_str!("fixtures/report_test_seed1989.txt");

#[test]
fn report_at_test_scale_matches_the_pinned_bytes() {
    let options = Options::parse(["--scale", "test", "--seed", "1989"].map(String::from)).unwrap();
    let suite = suite(&options);
    assert!(suite.is_complete(), "{:?}", suite.failures);
    let report = render_report(&options, &suite);
    if let Some((i, (got, want))) = report
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!("line {}: got\n{got}\nwant\n{want}", i + 1);
    }
    assert_eq!(report, GOLDEN);
}
