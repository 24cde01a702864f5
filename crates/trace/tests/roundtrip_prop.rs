//! Seeded property tests: any event stream — including ones no compiler
//! would emit — survives capture, replay and the on-disk cache bit for
//! bit.

use branchlab_ir::{Addr, BlockId, BranchId, Cond, FuncId};
use branchlab_telemetry::Rng;
use branchlab_trace::{
    load_trace, replay, save_trace, BranchEvent, BranchKind, Capture, ExecHooks, TraceBuf,
    TraceEvent, TraceKey,
};

const CONDS: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

/// Collects every hook call as a [`TraceEvent`].
#[derive(Default)]
struct Collect(Vec<TraceEvent>);

impl ExecHooks for Collect {
    fn branch(&mut self, ev: &BranchEvent) {
        self.0.push(TraceEvent::Branch(*ev));
    }
    fn call(&mut self, from: Addr, callee: FuncId) {
        self.0.push(TraceEvent::Call { from, callee });
    }
    fn ret(&mut self, from: Addr, to: Addr) {
        self.0.push(TraceEvent::Ret { from, to });
    }
}

fn any_addr(rng: &mut Rng) -> Addr {
    Addr(match rng.gen_range(0..4u32) {
        0 => 0,
        1 => u32::MAX,
        _ => rng.gen_range(0..=u32::MAX),
    })
}

/// A pool of pcs — including both ends of the address space — that
/// events keep returning to.
fn pc_pool(rng: &mut Rng) -> Vec<Addr> {
    let mut pool = vec![Addr(0), Addr(u32::MAX), Addr(1), Addr(u32::MAX - 1)];
    pool.extend((0..rng.gen_range(1..40usize)).map(|_| any_addr(rng)));
    pool
}

fn random_branch(rng: &mut Rng, pc: Addr) -> BranchEvent {
    let kind = [
        BranchKind::Cond,
        BranchKind::UncondDirect,
        BranchKind::UncondIndirect,
    ][rng.gen_range(0..3usize)];
    BranchEvent {
        pc,
        kind,
        taken: rng.gen_bool(0.5),
        target: any_addr(rng),
        fallthrough: Addr(pc.0.wrapping_add(rng.gen_range(1..4u32))),
        branch: BranchId {
            func: FuncId(rng.gen_range(0..4u32)),
            block: BlockId(rng.gen_range(0..4u32)),
        },
        likely: rng.gen_bool(0.3),
        cond: if rng.gen_bool(0.9) {
            Some(CONDS[rng.gen_range(0..CONDS.len())])
        } else {
            None
        },
    }
}

/// One run's event stream. Branches usually repeat an earlier event at
/// the same pc, sometimes with one static field changed.
fn random_stream(rng: &mut Rng, pool: &[Addr]) -> Vec<TraceEvent> {
    let len = if rng.gen_bool(0.15) {
        0
    } else {
        rng.gen_range(1..3000usize)
    };
    let mut seen: Vec<BranchEvent> = Vec::new();
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let pc = pool[rng.gen_range(0..pool.len())];
        let event = match rng.gen_range(0..10u32) {
            0 => TraceEvent::Call {
                from: pc,
                callee: FuncId(rng.gen_range(0..3u32)),
            },
            1 => TraceEvent::Ret {
                from: pc,
                to: any_addr(rng),
            },
            _ => {
                let mut ev = match seen.iter().rev().find(|e| e.pc == pc) {
                    Some(prev) if rng.gen_bool(0.8) => *prev,
                    _ => random_branch(rng, pc),
                };
                ev.taken = rng.gen_bool(0.5);
                if ev.kind == BranchKind::UncondIndirect {
                    ev.target = any_addr(rng);
                }
                match rng.gen_range(0..12u32) {
                    0 => ev.target = any_addr(rng),
                    1 => ev.likely = !ev.likely,
                    2 => ev.cond = Some(CONDS[rng.gen_range(0..CONDS.len())]),
                    3 => ev.branch.block = BlockId(ev.branch.block.0 + 1),
                    4 => ev.fallthrough = Addr(ev.fallthrough.0.wrapping_add(1)),
                    _ => {}
                }
                seen.push(ev);
                TraceEvent::Branch(ev)
            }
        };
        out.push(event);
    }
    out
}

fn capture(stream: &[TraceEvent]) -> TraceBuf {
    let mut cap = Capture::new();
    for event in stream {
        match *event {
            TraceEvent::Branch(ev) => cap.branch(&ev),
            TraceEvent::Call { from, callee } => cap.call(from, callee),
            TraceEvent::Ret { from, to } => cap.ret(from, to),
        }
    }
    cap.into_buf()
}

fn replayed(buf: &TraceBuf) -> Vec<TraceEvent> {
    let mut sink = Collect::default();
    let n = replay(buf, &mut sink).expect("clean replay");
    assert_eq!(n, buf.events());
    sink.0
}

#[test]
fn random_streams_roundtrip_through_capture_replay_and_disk() {
    let dir = std::env::temp_dir().join(format!("bltrace-prop-{}", std::process::id()));
    for seed in 0..24u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let pool = pc_pool(&mut rng);
        let streams: Vec<Vec<TraceEvent>> = (0..rng.gen_range(1..5usize))
            .map(|_| random_stream(&mut rng, &pool))
            .collect();
        let runs: Vec<TraceBuf> = streams.iter().map(|s| capture(s)).collect();
        for (stream, buf) in streams.iter().zip(&runs) {
            assert_eq!(&replayed(buf), stream, "seed {seed}");
            assert_eq!(buf.events(), stream.len() as u64);
        }

        let key = TraceKey {
            bench: "prop".into(),
            program_hash: seed,
            scale: "test".into(),
            seed,
        };
        let path = dir.join(key.file_name());
        save_trace(&path, &key, &runs).expect("save");
        let loaded = load_trace(&path, &key).expect("load").expect("present");
        assert_eq!(loaded, runs, "seed {seed}");
        assert_eq!(std::fs::metadata(&path).unwrap().len() as usize, {
            let header = 8 + 8 + 4 + 8;
            header + runs.iter().map(|r| 20 + r.byte_len()).sum::<usize>()
        });
        for (stream, buf) in streams.iter().zip(&loaded) {
            assert_eq!(&replayed(buf), stream, "seed {seed} after load");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_static_records_cost_one_word_per_event() {
    // A handful of static conditional sites replayed 1000 times: the
    // site table stays fixed, so each further event costs one word.
    let mut rng = Rng::seed_from_u64(7);
    let pool = pc_pool(&mut rng);
    let sites: Vec<BranchEvent> = pool
        .iter()
        .take(8)
        .map(|&pc| BranchEvent {
            kind: BranchKind::Cond,
            ..random_branch(&mut rng, pc)
        })
        .collect();
    let once = capture(
        &sites
            .iter()
            .map(|&e| TraceEvent::Branch(e))
            .collect::<Vec<_>>(),
    );
    let stream: Vec<TraceEvent> = (0..1000)
        .flat_map(|i| {
            sites.iter().map(move |&e| {
                TraceEvent::Branch(BranchEvent {
                    taken: i % 3 == 0,
                    ..e
                })
            })
        })
        .collect();
    let buf = capture(&stream);
    assert_eq!(
        buf.byte_len() - once.byte_len(),
        4 * (stream.len() - sites.len())
    );
    assert_eq!(replayed(&buf), stream);
}
