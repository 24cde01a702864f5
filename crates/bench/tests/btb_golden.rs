//! `BENCH_btb.json`, which EXPERIMENTS.md cites, is `btb_bench`'s
//! output at its defaults (scale small, seed 1989, `dispatch` and
//! `router`). The file carries no timing, so a fresh run must
//! reproduce it byte for byte; regenerate it only for an intended
//! change to the BTB study.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../BENCH_btb.json");

#[test]
fn btb_bench_reproduces_the_committed_artifact() {
    let out = std::env::temp_dir().join(format!("branchlab-btb-{}.json", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_btb_bench"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run btb_bench");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let got = std::fs::read_to_string(&out).expect("btb_bench wrote --out");
    std::fs::remove_file(&out).ok();
    if let Some((i, (got, want))) = got
        .lines()
        .zip(GOLDEN.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!("line {}: got\n{got}\nwant\n{want}", i + 1);
    }
    assert_eq!(got, GOLDEN);
}
