//! The bytes `report --scale test --seed 1989` prints are pinned: the
//! fixture was rendered by the release build before the natural pass
//! moved to pc-indexed tables, and any change to what the suite scores
//! or how the report renders it must show up here.
//!
//! So are the `predictors` sections of the same run's
//! `--telemetry-out` manifest — per benchmark, every scheme's scoring
//! and the SBTB/CBTB per-site counters — recorded from `report` before
//! the engines' probe sinks were deleted. Only the wall-clock `phases`
//! and the run's config and git header are left out.

use std::path::PathBuf;

use branchlab::telemetry::json::parse;
use branchlab::telemetry::JsonValue;
use branchlab_bench::{render_report, suite, write_telemetry, Options};

const GOLDEN: &str = include_str!("fixtures/report_test_seed1989.txt");
const PREDICTORS_GOLDEN: &str = include_str!("fixtures/manifest_predictors_test_seed1989.json");

/// The first line on which `got` and `want` differ, if any.
fn first_difference<'a>(got: &'a str, want: &'a str) -> Option<(usize, &'a str, &'a str)> {
    got.lines()
        .zip(want.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
        .map(|(i, (got, want))| (i + 1, got, want))
}

#[test]
fn report_at_test_scale_matches_the_pinned_bytes() {
    let options = Options::parse(["--scale", "test", "--seed", "1989"].map(String::from)).unwrap();
    let suite = suite(&options);
    assert!(suite.is_complete(), "{:?}", suite.failures);
    let report = render_report(&options, &suite);
    if let Some((line, got, want)) = first_difference(&report, GOLDEN) {
        panic!("line {line}: got\n{got}\nwant\n{want}");
    }
    assert_eq!(report, GOLDEN);
}

#[test]
fn manifest_predictors_at_test_scale_match_the_pinned_json() {
    let options = Options::parse(["--scale", "test", "--seed", "1989"].map(String::from)).unwrap();
    let suite = suite(&options);
    assert!(suite.is_complete(), "{:?}", suite.failures);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("manifest-golden");
    let manifest = write_telemetry("report", &options, &suite, &dir).unwrap();
    let manifest = parse(&std::fs::read_to_string(manifest).unwrap()).unwrap();
    let predictors = manifest
        .get("benchmarks")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|b| {
            let field = |key| (key, b.get(key).unwrap().clone());
            JsonValue::obj(vec![field("name"), field("predictors")])
        })
        .collect();
    let got = JsonValue::Arr(predictors).to_json_pretty();
    std::fs::remove_dir_all(&dir).ok();
    if let Some((line, got, want)) = first_difference(&got, PREDICTORS_GOLDEN) {
        panic!("line {line}: got\n{got}\nwant\n{want}");
    }
    assert_eq!(got, PREDICTORS_GOLDEN);
}
