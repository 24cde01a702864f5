//! On-disk trace cache format.
//!
//! One file per (benchmark, program content, scale, seed) holds all of
//! that benchmark's per-run [`TraceBuf`]s. The file embeds a digest of
//! its [`TraceKey`] and an FNV-1a checksum of the payload, so a stale
//! entry (the program or inputs changed) or a damaged file is detected
//! on load and the caller degrades to re-capturing the trace.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes  "BLTRACE2"
//! digest   u64      TraceKey::digest() of the writer's key
//! runs     u32      number of per-run buffers
//! per run: events u64, sites u32, words u64,
//!          <sites> 22-byte site records, <words> u32 event words
//! checksum u64      FNV-1a over everything above
//! ```
//!
//! A site record is `kind u8, flags u8, pc u32, target u32,
//! fallthrough u32, func u32, block u32`. `kind` is 0/1/2 for a
//! conditional/direct/indirect branch, 3 for a call (`target` holds the
//! callee) and 4 for a return; `flags` holds the comparison in bits 0–2
//! (7 = none) and the likely bit in bit 3. Fields a kind does not use —
//! and an indirect branch's dynamic target — are zero; anything else is
//! rejected as malformed. Files in any other layout (including the
//! varint `BLTRACE1` stream) fail the magic check and are re-captured.
//!
//! Trace files are published through [`publish_atomically`], the one
//! place in the workspace that renames a file into place; the server's
//! response-cache spill shares it.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use branchlab_ir::{Addr, BlockId, BranchId, Cond, FuncId};

use crate::event::{BranchEvent, BranchKind};
use crate::replay::{TraceBuf, TraceEvent};

const MAGIC: &[u8; 8] = b"BLTRACE2";

/// Bytes per serialized site record.
pub(crate) const SITE_BYTES: usize = 22;

/// Bytes of a run header (`events`, `sites`, `words`).
const RUN_HEADER_BYTES: usize = 8 + 4 + 8;

const KIND_CALL: u8 = 3;
const KIND_RET: u8 = 4;
const COND_MASK: u8 = 0b111;
const COND_NONE: u8 = COND_MASK;
const FLAG_LIKELY: u8 = 1 << 3;

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

fn encode_site(site: &TraceEvent) -> [u8; SITE_BYTES] {
    let (kind, flags, fields) = match *site {
        TraceEvent::Branch(ev) => {
            let kind = match ev.kind {
                BranchKind::Cond => 0,
                BranchKind::UncondDirect => 1,
                BranchKind::UncondIndirect => 2,
            };
            let cond = ev.cond.map_or(COND_NONE, |c| {
                CONDS
                    .iter()
                    .position(|&k| k == c)
                    .expect("CONDS lists every Cond") as u8
            });
            let flags = cond | if ev.likely { FLAG_LIKELY } else { 0 };
            let fields = [
                ev.pc.0,
                ev.target.0,
                ev.fallthrough.0,
                ev.branch.func.0,
                ev.branch.block.0,
            ];
            (kind, flags, fields)
        }
        TraceEvent::Call { from, callee } => (KIND_CALL, 0, [from.0, callee.0, 0, 0, 0]),
        TraceEvent::Ret { from, .. } => (KIND_RET, 0, [from.0, 0, 0, 0, 0]),
    };
    let mut rec = [0; SITE_BYTES];
    rec[0] = kind;
    rec[1] = flags;
    for (chunk, v) in rec[2..].chunks_exact_mut(4).zip(fields) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    rec
}

fn decode_site(rec: &[u8]) -> io::Result<TraceEvent> {
    let field =
        |i: usize| u32::from_le_bytes(rec[2 + 4 * i..6 + 4 * i].try_into().expect("4 bytes"));
    let [pc, target, fallthrough, func, block] = [0, 1, 2, 3, 4].map(field);
    let (kind, flags) = (rec[0], rec[1]);
    let unused = u32::from(flags) | fallthrough | func | block;
    let kind = match kind {
        0 => BranchKind::Cond,
        1 => BranchKind::UncondDirect,
        2 if target == 0 => BranchKind::UncondIndirect,
        KIND_CALL if unused == 0 => {
            return Ok(TraceEvent::Call {
                from: Addr(pc),
                callee: FuncId(target),
            })
        }
        KIND_RET if unused | target == 0 => {
            return Ok(TraceEvent::Ret {
                from: Addr(pc),
                to: Addr(0),
            })
        }
        _ => return Err(invalid("malformed trace site")),
    };
    if flags & !(COND_MASK | FLAG_LIKELY) != 0 {
        return Err(invalid("malformed trace site"));
    }
    let cond = match flags & COND_MASK {
        COND_NONE => None,
        c => Some(
            *CONDS
                .get(usize::from(c))
                .ok_or_else(|| invalid("malformed trace site"))?,
        ),
    };
    Ok(TraceEvent::Branch(BranchEvent {
        pc: Addr(pc),
        kind,
        taken: false,
        target: Addr(target),
        fallthrough: Addr(fallthrough),
        branch: BranchId {
            func: FuncId(func),
            block: BlockId(block),
        },
        likely: flags & FLAG_LIKELY != 0,
        cond,
    }))
}

/// FNV-1a over a byte stream (the workspace's standard content hash).
#[must_use]
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Identity of a cached trace: which benchmark, which program content,
/// and which input-generation parameters produced it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TraceKey {
    /// Benchmark name.
    pub bench: String,
    /// Hash of the program source the trace was captured from; a
    /// source edit invalidates the cache entry.
    pub program_hash: u64,
    /// Input scale (`test`/`small`/`paper`).
    pub scale: String,
    /// Input-generation seed.
    pub seed: u64,
}

impl TraceKey {
    /// A digest of every key field, embedded in the file and validated
    /// on load.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut acc = Vec::with_capacity(self.bench.len() + self.scale.len() + 18);
        acc.extend_from_slice(self.bench.as_bytes());
        acc.push(0);
        acc.extend_from_slice(&self.program_hash.to_le_bytes());
        acc.extend_from_slice(self.scale.as_bytes());
        acc.push(0);
        acc.extend_from_slice(&self.seed.to_le_bytes());
        hash_bytes(&acc)
    }

    /// Cache file name for this key.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{}-{}-{}-{:016x}.trace",
            self.bench, self.scale, self.seed, self.program_hash
        )
    }
}

struct ChecksumWriter<W> {
    inner: W,
    hash: u64,
}

impl<W: Write> ChecksumWriter<W> {
    fn new(inner: W) -> Self {
        ChecksumWriter {
            inner,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.inner.write_all(bytes)
    }
}

/// Numbers this process's temp files, so concurrent writers never share one.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Publish the bytes `write` produces at `path` atomically: create the
/// parent directory, fill a temp file of this writer's own (named by
/// pid and a per-process sequence number), flush and fsync it, rename
/// it over `path`, then fsync the directory as a best effort. Readers
/// and concurrent writers of one path (two server workers, or
/// processes sharing a directory) therefore only ever see a whole file,
/// and the last rename wins.
///
/// # Errors
/// Propagates `write`'s and the filesystem's errors; the temp file is
/// removed and the previous file at `path` is intact on error.
pub fn publish_atomically(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let dir = path.parent();
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".{}.{seq}.tmp", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let published = File::create(&tmp)
        .and_then(|file| {
            let mut w = BufWriter::new(file);
            write(&mut w)?;
            w.flush()?;
            w.get_ref().sync_all()
        })
        .and_then(|()| std::fs::rename(&tmp, path));
    if published.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    published?;
    // Make the rename itself durable where possible; failure here only
    // narrows the crash window, it doesn't corrupt anything.
    if let Some(Ok(dir)) = dir.map(File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}

/// Write a benchmark's per-run trace buffers to `path` through
/// [`publish_atomically`].
///
/// # Errors
/// Propagates filesystem errors.
pub fn save_trace(path: &Path, key: &TraceKey, runs: &[TraceBuf]) -> io::Result<()> {
    publish_atomically(path, |w| write_trace(w, key, runs))
}

/// Encode one trace file into `out`.
fn write_trace(out: impl Write, key: &TraceKey, runs: &[TraceBuf]) -> io::Result<()> {
    let mut w = ChecksumWriter::new(out);
    w.put(MAGIC)?;
    w.put(&key.digest().to_le_bytes())?;
    w.put(
        &u32::try_from(runs.len())
            .map_err(io::Error::other)?
            .to_le_bytes(),
    )?;
    for run in runs {
        let (sites, words) = run.table();
        w.put(&run.events().to_le_bytes())?;
        w.put(
            &u32::try_from(sites.len())
                .map_err(io::Error::other)?
                .to_le_bytes(),
        )?;
        w.put(&(words.len() as u64).to_le_bytes())?;
        for site in sites {
            w.put(&encode_site(site))?;
        }
        for word in words {
            w.put(&word.to_le_bytes())?;
        }
    }
    let checksum = w.hash;
    w.inner.write_all(&checksum.to_le_bytes())
}

fn invalid(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

/// A bounds-checked reader over a loaded file's body.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(invalid("trace file truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    /// `count` records of `size` bytes each.
    fn take_records(&mut self, count: u64, size: usize) -> io::Result<&'a [u8]> {
        let len = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(size))
            .ok_or_else(|| invalid("run length overflow"))?;
        self.take(len)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Load a benchmark's trace buffers from `path`, validating the magic,
/// the key digest, and the payload checksum.
///
/// Returns `Ok(None)` when the file does not exist (a cache miss).
///
/// # Errors
/// Returns an [`io::ErrorKind::InvalidData`] error for a stale key,
/// bad magic (an older layout), checksum mismatch, or malformed site
/// record — callers treat any error as an invalid entry and re-capture.
pub fn load_trace(path: &Path, key: &TraceKey) -> io::Result<Option<Vec<TraceBuf>>> {
    match std::fs::read(path) {
        Ok(bytes) => decode_file(&bytes, key).map(Some),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

fn decode_file(bytes: &[u8], key: &TraceKey) -> io::Result<Vec<TraceBuf>> {
    if bytes.len() < MAGIC.len() + 8 + 4 + 8 {
        return Err(invalid("trace file truncated"));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored_checksum = u64::from_le_bytes(tail.try_into().expect("8-byte tail"));
    if hash_bytes(body) != stored_checksum {
        return Err(invalid("trace checksum mismatch"));
    }
    let mut r = Cursor(body);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(invalid("bad trace magic"));
    }
    if r.u64()? != key.digest() {
        return Err(invalid("stale trace key"));
    }
    let run_count = r.u32()? as usize;
    let mut runs = Vec::with_capacity(run_count.min(r.0.len() / RUN_HEADER_BYTES));
    for _ in 0..run_count {
        let events = r.u64()?;
        let sites = r.u32()?;
        let words = r.u64()?;
        let sites = r
            .take_records(u64::from(sites), SITE_BYTES)?
            .chunks_exact(SITE_BYTES)
            .map(decode_site)
            .collect::<io::Result<Vec<_>>>()?;
        let words = r
            .take_records(words, 4)?
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect();
        runs.push(TraceBuf::from_table(sites, words, events));
    }
    if !r.0.is_empty() {
        return Err(invalid("trailing bytes after last run"));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Capture;
    use crate::{BranchEvent, BranchKind, ExecHooks};
    use branchlab_ir::{Addr, BlockId, BranchId, Cond, FuncId};

    fn sample_runs() -> Vec<TraceBuf> {
        let mut runs = Vec::new();
        for r in 0..3u32 {
            let mut cap = Capture::new();
            for i in 0..5u32 {
                cap.branch(&BranchEvent {
                    pc: Addr(10 + i),
                    kind: BranchKind::Cond,
                    taken: (i + r) % 2 == 0,
                    target: Addr(50),
                    fallthrough: Addr(11 + i),
                    branch: BranchId {
                        func: FuncId(0),
                        block: BlockId(i),
                    },
                    likely: false,
                    cond: Some(Cond::Ne),
                });
            }
            cap.call(Addr(99), FuncId(1));
            cap.branch(&BranchEvent {
                pc: Addr(120),
                kind: BranchKind::UncondIndirect,
                taken: true,
                target: Addr(7 + r),
                fallthrough: Addr(121),
                branch: BranchId {
                    func: FuncId(1),
                    block: BlockId(2),
                },
                likely: r == 1,
                cond: None,
            });
            cap.ret(Addr(130), Addr(100 + r));
            runs.push(cap.into_buf());
        }
        runs
    }

    /// `sample_runs` serialized under `key()`.
    fn sample_file() -> Vec<u8> {
        let dir = std::env::temp_dir().join(format!(
            "bltrace-sample-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let path = dir.join(key().file_name());
        save_trace(&path, &key(), &sample_runs()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    }

    /// Recompute the trailing checksum after an edit to the body.
    fn fix_checksum(bytes: &mut [u8]) {
        let body = bytes.len() - 8;
        let sum = hash_bytes(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }

    /// Offset of the first run's first site record.
    const FIRST_SITE: usize = 8 + 8 + 4 + RUN_HEADER_BYTES;

    fn key() -> TraceKey {
        TraceKey {
            bench: "wc".into(),
            program_hash: 0xdead_beef,
            scale: "test".into(),
            seed: 1989,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bltrace-test-{}", std::process::id()));
        let path = dir.join(key().file_name());
        let runs = sample_runs();
        save_trace(&path, &key(), &runs).unwrap();
        let loaded = load_trace(&path, &key()).unwrap().unwrap();
        assert_eq!(loaded, runs);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_saves_of_one_key_never_tear_a_load() {
        // Two writers publish the same multi-MB file while a reader
        // loads it: every save must land and every load must see the
        // whole file. (fsync durability would need a power cut.)
        let payload: Vec<u8> = (0..2_400_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        let dir = std::env::temp_dir().join(format!("bltrace-race-{}", std::process::id()));
        let path = dir.join(key().file_name());
        let save = || publish_atomically(&path, |w| w.write_all(&payload));
        save().unwrap();
        let writing = std::sync::atomic::AtomicUsize::new(2);
        let (failed_saves, (loads, torn_loads)) = std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let failed = (0..20).filter(|_| save().is_err()).count();
                        writing.fetch_sub(1, Ordering::SeqCst);
                        failed
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                let (mut loads, mut torn) = (0, 0);
                while writing.load(Ordering::SeqCst) > 0 {
                    loads += 1;
                    if std::fs::read(&path).ok().as_ref() != Some(&payload) {
                        torn += 1;
                    }
                }
                (loads, torn)
            });
            let failed: usize = writers.into_iter().map(|w| w.join().unwrap()).sum();
            (failed, reader.join().unwrap())
        });
        assert!(loads > 0, "the reader never ran");
        assert_eq!(failed_saves, 0, "saves that returned an error");
        assert_eq!(torn_loads, 0, "loads of {loads} that missed the file");
        // Every writer's temp file was renamed away.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_keeps_the_previous_file_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("bltrace-failed-{}", std::process::id()));
        let path = dir.join("entry");
        publish_atomically(&path, |w| w.write_all(b"previous")).unwrap();
        let err = publish_atomically(&path, |w| {
            w.write_all(&[7; 100_000])?;
            Err(io::Error::other("encoder failed"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "encoder failed");
        assert_eq!(std::fs::read(&path).unwrap(), b"previous");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["entry"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_a_clean_miss() {
        let path = std::env::temp_dir().join("bltrace-does-not-exist.trace");
        assert!(load_trace(&path, &key()).unwrap().is_none());
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let dir = std::env::temp_dir().join(format!("bltrace-corrupt-{}", std::process::id()));
        let path = dir.join(key().file_name());
        save_trace(&path, &key(), &sample_runs()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_trace(&path, &key()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_key_is_rejected() {
        let dir = std::env::temp_dir().join(format!("bltrace-stale-{}", std::process::id()));
        let path = dir.join(key().file_name());
        save_trace(&path, &key(), &sample_runs()).unwrap();
        let stale = TraceKey {
            program_hash: 0x1234,
            ..key()
        };
        let err = load_trace(&path, &stale).unwrap_err();
        assert!(err.to_string().contains("stale"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_digest_covers_every_field() {
        let base = key();
        for other in [
            TraceKey {
                bench: "grep".into(),
                ..base.clone()
            },
            TraceKey {
                program_hash: 1,
                ..base.clone()
            },
            TraceKey {
                scale: "small".into(),
                ..base.clone()
            },
            TraceKey {
                seed: 7,
                ..base.clone()
            },
        ] {
            assert_ne!(other.digest(), base.digest(), "{other:?}");
        }
    }

    #[test]
    fn every_site_kind_roundtrips_through_its_record() {
        for run in sample_runs() {
            for site in run.table().0 {
                assert_eq!(decode_site(&encode_site(site)).unwrap(), *site);
            }
        }
    }

    #[test]
    fn old_varint_layout_is_rejected() {
        // A well-formed BLTRACE1 file for the right key: one run holding
        // the varint record of `call(Addr(1), FuncId(0))`.
        let mut bytes = b"BLTRACE1".to_vec();
        bytes.extend_from_slice(&key().digest().to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&3u64.to_le_bytes());
        bytes.extend_from_slice(&[3, 2, 0]);
        bytes.extend_from_slice(&[0; 8]);
        fix_checksum(&mut bytes);
        let err = decode_file(&bytes, &key()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn malformed_site_record_is_rejected_despite_valid_checksum() {
        let good = sample_file();
        assert_eq!(decode_file(&good, &key()).unwrap(), sample_runs());
        // (byte offset within the first site record, new value): an
        // unknown kind, an unknown comparison, a stray flag bit, and a
        // call site with a branch-only field set.
        let call_site = FIRST_SITE + 5 * SITE_BYTES;
        for (at, value) in [
            (FIRST_SITE, 9),
            (FIRST_SITE + 1, 6),
            (FIRST_SITE + 1, 0x41),
            (call_site + 10, 1),
        ] {
            let mut bytes = good.clone();
            bytes[at] = value;
            fix_checksum(&mut bytes);
            let err = decode_file(&bytes, &key()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {at}");
            assert!(err.to_string().contains("malformed"), "byte {at}: {err}");
        }
    }

    #[test]
    fn byte_flips_give_an_error_or_a_clean_decode() {
        let good = sample_file();
        let body = good.len() - 8;
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..4000 {
            let mut bytes = good.clone();
            let at = next() as usize % body;
            bytes[at] ^= (next() % 255 + 1) as u8;
            fix_checksum(&mut bytes);
            match decode_file(&bytes, &key()) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
                Ok(runs) => {
                    for run in &runs {
                        let _ = crate::replay(run, &mut ());
                    }
                }
            }
        }
    }
}
