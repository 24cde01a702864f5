//! JSONL suite checkpoints.
//!
//! [`run_suite_supervised`](crate::run_suite_supervised) appends one
//! line per *completed* benchmark as it finishes, so a crashed or
//! partially failed run can be resumed (`--resume`) without re-running
//! what already succeeded. A line carries everything the tables and
//! figures need — exec stats, branch mix, all six predictor scorings,
//! code-expansion points — but not phase spans or per-site probes,
//! which are observability extras and come back empty after a restore.
//!
//! Each line carries an FNV-1a `hash` of its record, as spill records
//! and trace files do, so a damaged line cannot restore wrong numbers.
//! Loading is deliberately forgiving: a torn final line (the process
//! died mid-append), a line whose hash does not match, or an unknown
//! benchmark name is skipped, not fatal — a checkpoint must never be
//! able to wedge the harness that reads it.

use std::io::{self, Write};
use std::path::Path;

use branchlab_fsem::ExpansionPoint;
use branchlab_interp::ExecStats;
use branchlab_predict::PredStats;
use branchlab_telemetry::{JsonValue, SiteProbe};
use branchlab_trace::{hash_bytes, BranchMix};

use crate::harness::BenchResult;

/// Checkpoint line format version; bumped on incompatible change, and
/// mismatched lines are skipped on load.
pub const CHECKPOINT_VERSION: u64 = 2;

fn stats_json(s: &ExecStats) -> JsonValue {
    JsonValue::obj(vec![
        ("insts", s.insts.into()),
        ("branches", s.branches.into()),
        ("cond_branches", s.cond_branches.into()),
        ("taken_cond", s.taken_cond.into()),
        ("uncond_direct", s.uncond_direct.into()),
        ("uncond_indirect", s.uncond_indirect.into()),
        ("calls", s.calls.into()),
    ])
}

fn mix_json(m: &BranchMix) -> JsonValue {
    JsonValue::obj(vec![
        ("cond_taken", m.cond_taken.into()),
        ("cond_not_taken", m.cond_not_taken.into()),
        ("uncond_known", m.uncond_known.into()),
        ("uncond_unknown", m.uncond_unknown.into()),
    ])
}

fn pred_json(p: &PredStats) -> JsonValue {
    JsonValue::obj(vec![
        ("events", p.events.into()),
        ("correct", p.correct.into()),
        ("cond_events", p.cond_events.into()),
        ("cond_correct", p.cond_correct.into()),
        ("btb_lookups", p.btb_lookups.into()),
        ("btb_misses", p.btb_misses.into()),
    ])
}

fn expansion_json(e: &ExpansionPoint) -> JsonValue {
    JsonValue::obj(vec![
        ("slots", u64::from(e.slots).into()),
        ("natural_size", e.natural_size.into()),
        ("base_size", e.base_size.into()),
        ("fs_size", e.fs_size.into()),
        ("slot_insts", e.slot_insts.into()),
    ])
}

/// One checkpoint line for `result` (without trailing newline).
#[must_use]
pub fn to_line(result: &BenchResult) -> String {
    let mut line = vec![
        ("v", CHECKPOINT_VERSION.into()),
        ("hash", record_hash(result).into()),
    ];
    line.extend(record_fields(result));
    JsonValue::obj(line).to_json()
}

/// FNV-1a over `result`'s serialized record: what a line's `hash` covers.
fn record_hash(result: &BenchResult) -> String {
    let record = JsonValue::obj(record_fields(result)).to_json();
    format!("{:016x}", hash_bytes(record.as_bytes()))
}

/// The fields a checkpoint line records for `result`.
fn record_fields(result: &BenchResult) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("bench", result.name.into()),
        ("source_lines", result.source_lines.into()),
        ("runs", result.runs.into()),
        ("stats", stats_json(&result.stats)),
        ("mix", mix_json(&result.mix)),
        ("sbtb", pred_json(&result.sbtb)),
        ("cbtb", pred_json(&result.cbtb)),
        ("fs", pred_json(&result.fs)),
        ("always_taken", pred_json(&result.always_taken)),
        ("always_not_taken", pred_json(&result.always_not_taken)),
        ("btfn", pred_json(&result.btfn)),
        (
            "expansion",
            JsonValue::Arr(result.expansion.iter().map(expansion_json).collect()),
        ),
    ]
}

/// Append one benchmark record to an open checkpoint stream.
///
/// # Errors
/// Propagates write errors.
pub fn append(w: &mut impl Write, result: &BenchResult) -> io::Result<()> {
    writeln!(w, "{}", to_line(result))
}

/// A crash-safe JSONL checkpoint file.
///
/// Plain `O_APPEND` + `flush` leaves two windows where a kill can
/// poison a later `--resume`: a torn final line (tolerated by
/// [`load`], but the record is lost) and a page-cache-only write that
/// never reaches disk at all. `CheckpointFile` closes both: every
/// append rewrites the full line set to `<path>.tmp`, fsyncs it, and
/// renames it over `path`, so the on-disk checkpoint atomically steps
/// from one complete, durable state to the next. Checkpoints are a few
/// KiB and append once per *benchmark*, so the rewrite is noise next
/// to the run it records.
#[derive(Debug)]
pub struct CheckpointFile {
    path: std::path::PathBuf,
    lines: Vec<String>,
}

impl CheckpointFile {
    /// Open `path`, carrying over any lines a previous run left there
    /// (a missing file is an empty checkpoint). Pre-existing torn or
    /// alien lines are kept verbatim — [`load`] skips them — so
    /// opening never destroys bytes it didn't write.
    ///
    /// # Errors
    /// Propagates read errors other than "not found".
    pub fn open(path: &Path) -> io::Result<Self> {
        let lines = match std::fs::read_to_string(path) {
            Ok(text) => text.lines().map(String::from).collect(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        Ok(CheckpointFile {
            path: path.to_path_buf(),
            lines,
        })
    }

    /// Append `result` and atomically publish the updated checkpoint.
    ///
    /// # Errors
    /// Propagates write/fsync/rename errors; on error the previous
    /// on-disk checkpoint is still intact.
    pub fn append_result(&mut self, result: &BenchResult) -> io::Result<()> {
        self.lines.push(to_line(result));
        self.write_atomic()
    }

    /// Records currently held (including carried-over ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Is the checkpoint empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    fn write_atomic(&self) -> io::Result<()> {
        let tmp = self.path.with_extension("jsonl.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            for line in &self.lines {
                writeln!(file, "{line}")?;
            }
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable where possible; failure here
        // only narrows the crash window, it doesn't corrupt anything.
        if let Some(parent) = self.path.parent() {
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
        }
        Ok(())
    }
}

fn u(v: &JsonValue, key: &str) -> Option<u64> {
    v.get(key)?.as_int().and_then(|i| u64::try_from(i).ok())
}

fn us(v: &JsonValue, key: &str) -> Option<usize> {
    u(v, key).and_then(|n| usize::try_from(n).ok())
}

fn parse_stats(v: &JsonValue) -> Option<ExecStats> {
    Some(ExecStats {
        insts: u(v, "insts")?,
        branches: u(v, "branches")?,
        cond_branches: u(v, "cond_branches")?,
        taken_cond: u(v, "taken_cond")?,
        uncond_direct: u(v, "uncond_direct")?,
        uncond_indirect: u(v, "uncond_indirect")?,
        calls: u(v, "calls")?,
    })
}

fn parse_mix(v: &JsonValue) -> Option<BranchMix> {
    Some(BranchMix {
        cond_taken: u(v, "cond_taken")?,
        cond_not_taken: u(v, "cond_not_taken")?,
        uncond_known: u(v, "uncond_known")?,
        uncond_unknown: u(v, "uncond_unknown")?,
    })
}

fn parse_pred(v: &JsonValue, key: &str) -> Option<PredStats> {
    let v = v.get(key)?;
    Some(PredStats {
        events: u(v, "events")?,
        correct: u(v, "correct")?,
        cond_events: u(v, "cond_events")?,
        cond_correct: u(v, "cond_correct")?,
        btb_lookups: u(v, "btb_lookups")?,
        btb_misses: u(v, "btb_misses")?,
    })
}

fn parse_expansion(v: &JsonValue) -> Option<Vec<ExpansionPoint>> {
    v.get("expansion")?
        .as_arr()?
        .iter()
        .map(|p| {
            Some(ExpansionPoint {
                slots: u16::try_from(u(p, "slots")?).ok()?,
                natural_size: us(p, "natural_size")?,
                base_size: us(p, "base_size")?,
                fs_size: us(p, "fs_size")?,
                slot_insts: us(p, "slot_insts")?,
            })
        })
        .collect()
}

/// Parse one checkpoint line; `None` for malformed lines, version
/// mismatches, records that do not match their hash, and benchmark
/// names not in the current suite.
#[must_use]
pub fn from_line(line: &str) -> Option<BenchResult> {
    let v = branchlab_telemetry::json::parse(line).ok()?;
    if u(&v, "v")? != CHECKPOINT_VERSION {
        return None;
    }
    let name = v.get("bench")?.as_str()?;
    // Intern through the suite table: BenchResult holds &'static str.
    let bench = branchlab_workloads::benchmark(name)?;
    let result = BenchResult {
        name: bench.name,
        source_lines: us(&v, "source_lines")?,
        runs: us(&v, "runs")?,
        stats: parse_stats(v.get("stats")?)?,
        mix: parse_mix(v.get("mix")?)?,
        sbtb: parse_pred(&v, "sbtb")?,
        cbtb: parse_pred(&v, "cbtb")?,
        fs: parse_pred(&v, "fs")?,
        always_taken: parse_pred(&v, "always_taken")?,
        always_not_taken: parse_pred(&v, "always_not_taken")?,
        btfn: parse_pred(&v, "btfn")?,
        expansion: parse_expansion(&v)?,
        phases: Vec::new(),
        sbtb_sites: SiteProbe::disabled(),
        cbtb_sites: SiteProbe::disabled(),
    };
    // The record re-serializes to the bytes that were hashed exactly
    // when every value survived the round trip.
    (v.get("hash")?.as_str()? == record_hash(&result)).then_some(result)
}

/// Load every restorable benchmark record from a checkpoint file.
/// Malformed lines (including a torn final line) are skipped; when the
/// same benchmark appears more than once, the last record wins.
///
/// # Errors
/// Propagates the file-read error (callers typically treat a missing
/// file as an empty checkpoint).
pub fn load(path: &Path) -> io::Result<Vec<BenchResult>> {
    let text = std::fs::read_to_string(path)?;
    let mut results: Vec<BenchResult> = Vec::new();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(r) = from_line(line) {
            if let Some(existing) = results.iter_mut().find(|e| e.name == r.name) {
                *existing = r;
            } else {
                results.push(r);
            }
        }
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run_benchmark, ExperimentConfig};
    use branchlab_workloads::benchmark;

    fn sample() -> BenchResult {
        run_benchmark(benchmark("wc").unwrap(), &ExperimentConfig::test()).unwrap()
    }

    #[test]
    fn round_trips_everything_tables_need() {
        let r = sample();
        let back = from_line(&to_line(&r)).expect("round trip");
        assert_eq!(back.name, r.name);
        assert_eq!(back.source_lines, r.source_lines);
        assert_eq!(back.runs, r.runs);
        assert_eq!(back.stats, r.stats);
        assert_eq!(back.mix, r.mix);
        assert_eq!(back.sbtb, r.sbtb);
        assert_eq!(back.cbtb, r.cbtb);
        assert_eq!(back.fs, r.fs);
        assert_eq!(back.always_taken, r.always_taken);
        assert_eq!(back.always_not_taken, r.always_not_taken);
        assert_eq!(back.btfn, r.btfn);
        assert_eq!(back.expansion, r.expansion);
        // Observability extras are not persisted.
        assert!(back.phases.is_empty());
        assert!(back.sbtb_sites.sites().is_empty());
    }

    #[test]
    fn torn_and_alien_lines_are_skipped() {
        let r = sample();
        let mut buf = Vec::new();
        append(&mut buf, &r).unwrap();
        buf.extend_from_slice(b"{\"v\": 999, \"bench\": \"wc\"}\n");
        buf.extend_from_slice(b"{\"bench\": \"no-such-bench\"");
        let dir = std::env::temp_dir().join(format!("bl-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.jsonl");
        std::fs::write(&path, &buf).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, "wc");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_line_with_a_changed_digit_is_dropped() {
        let r = sample();
        let line = to_line(&r);
        let at = line.find("\"correct\":").expect("a correct field") + "\"correct\":".len();
        let digit = line.as_bytes()[at];
        let flipped = if digit == b'9' {
            '8'
        } else {
            char::from(digit + 1)
        };
        let mut damaged = line.clone();
        damaged.replace_range(at..=at, &flipped.to_string());
        assert!(from_line(&line).is_some());
        assert!(from_line(&damaged).is_none(), "{damaged}");
    }

    #[test]
    fn checkpoint_file_is_complete_after_every_append() {
        let dir = std::env::temp_dir().join(format!("bl-ckpt-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.jsonl");

        let r = sample();
        let mut ckpt = CheckpointFile::open(&path).unwrap();
        assert!(ckpt.is_empty());
        for i in 0..3 {
            ckpt.append_result(&r).unwrap();
            // After each append, the on-disk state is a complete,
            // parseable checkpoint — never a torn intermediate — and
            // the temp file has been renamed away.
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), i + 1);
            assert!(text.ends_with('\n'));
            assert!(load(&path).unwrap().iter().all(|b| b.name == r.name));
            assert!(!path.with_extension("jsonl.tmp").exists());
        }
        assert_eq!(ckpt.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_preserves_existing_lines_and_neutralizes_torn_tails() {
        let dir = std::env::temp_dir().join(format!("bl-ckpt-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.jsonl");

        let r = sample();
        // A previous run: one good record, then a kill mid-append left
        // a torn tail with no trailing newline.
        std::fs::write(&path, format!("{}\n{{\"bench\": \"wc", to_line(&r))).unwrap();

        let mut ckpt = CheckpointFile::open(&path).unwrap();
        assert_eq!(ckpt.len(), 2); // good line + torn tail, carried verbatim
        ckpt.append_result(&r).unwrap();

        // The rewrite newline-terminates the torn tail, so the new
        // record is NOT glued onto it: both good records load.
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1); // same bench, last wins
        assert_eq!(loaded[0].name, r.name);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_bench_lines_keep_the_last() {
        let mut a = sample();
        let b = sample();
        a.runs += 17;
        let text = format!("{}\n{}\n", to_line(&b), to_line(&a));
        let dir = std::env::temp_dir().join(format!("bl-ckpt-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dup.jsonl");
        std::fs::write(&path, text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].runs, a.runs);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
