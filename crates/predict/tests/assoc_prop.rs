//! Model-based randomized tests: the set-associative LRU buffer must
//! behave exactly like a naive reference implementation under arbitrary
//! operation sequences, and the BTBs must uphold their structural
//! invariants on random branch streams.
//!
//! Driven by the seeded `branchlab_telemetry::Rng` (the build has no
//! crates.io access, so no proptest): each case runs many independent
//! randomized trials from fixed seeds, which keeps failures
//! reproducible by construction.

use branchlab_ir::{Addr, BlockId, BranchId, FuncId};
use branchlab_predict::{AssocBuffer, Cbtb, CbtbConfig, Evaluator, Sbtb, SbtbConfig};
use branchlab_telemetry::Rng;
use branchlab_trace::{BranchEvent, BranchKind, ExecHooks};

/// Reference fully-associative LRU: a Vec ordered by recency.
#[derive(Default)]
struct RefLru {
    entries: Vec<(u32, i32)>, // most recent last
    capacity: usize,
}

impl RefLru {
    fn lookup(&mut self, key: u32) -> Option<i32> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        let e = self.entries.remove(pos);
        self.entries.push(e);
        Some(self.entries.last().unwrap().1)
    }
    fn insert(&mut self, key: u32, value: i32) {
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
    }
    fn remove(&mut self, key: u32) -> Option<i32> {
        let pos = self.entries.iter().position(|(k, _)| *k == key)?;
        Some(self.entries.remove(pos).1)
    }
}

#[derive(Clone, Debug)]
enum Op {
    Lookup(u32),
    Insert(u32, i32),
    Remove(u32),
    Flush,
}

fn random_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..10u32) {
        0..=3 => Op::Lookup(rng.gen_range(0..24u32)),
        4..=7 => Op::Insert(rng.gen_range(0..24u32), rng.next_u64() as i32),
        8 => Op::Remove(rng.gen_range(0..24u32)),
        _ => Op::Flush,
    }
}

fn cond_event(pc: u32, taken: bool) -> BranchEvent {
    BranchEvent {
        pc: Addr(pc * 4),
        kind: BranchKind::Cond,
        taken,
        target: Addr(1000 + pc),
        fallthrough: Addr(pc * 4 + 1),
        branch: BranchId {
            func: FuncId(0),
            block: BlockId(pc),
        },
        likely: false,
        cond: Some(branchlab_ir::Cond::Eq),
    }
}

#[test]
fn fully_associative_buffer_matches_reference_lru() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let cap = rng.gen_range(1..12usize);
        let n_ops = rng.gen_range(0..200usize);
        let mut buf = AssocBuffer::fully_associative(cap);
        let mut model = RefLru {
            capacity: cap,
            ..Default::default()
        };
        for i in 0..n_ops {
            let op = random_op(&mut rng);
            let ctx = format!("seed {seed} op {i}: {op:?}");
            match op {
                Op::Lookup(k) => {
                    assert_eq!(buf.lookup(k).copied(), model.lookup(k), "{ctx}");
                }
                Op::Insert(k, v) => {
                    buf.insert(k, v);
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    assert_eq!(buf.remove(k), model.remove(k), "{ctx}");
                }
                Op::Flush => {
                    buf.flush();
                    model.entries.clear();
                }
            }
            assert_eq!(buf.len(), model.entries.len(), "{ctx}");
            assert!(buf.len() <= cap, "{ctx}");
        }
    }
}

#[test]
fn btbs_never_exceed_capacity_and_score_sanely() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0x5eed ^ seed);
        let entries = 1usize << rng.gen_range(2..6u32);
        let n = rng.gen_range(1..300usize);
        let mut sbtb = Evaluator::new(Sbtb::new(SbtbConfig {
            entries,
            ways: entries,
        }));
        let mut cbtb = Evaluator::new(Cbtb::new(CbtbConfig {
            entries,
            ways: entries,
            ..CbtbConfig::paper()
        }));
        for _ in 0..n {
            let ev = cond_event(rng.gen_range(0..64u32), rng.gen_bool(0.5));
            sbtb.branch(&ev);
            cbtb.branch(&ev);
        }
        let n = n as u64;
        assert_eq!(sbtb.stats.events, n, "seed {seed}");
        assert_eq!(cbtb.stats.events, n, "seed {seed}");
        assert!(sbtb.stats.correct <= n, "seed {seed}");
        assert!(cbtb.stats.correct <= n, "seed {seed}");
        assert!(sbtb.predictor.len() <= entries, "seed {seed}");
        assert!(cbtb.predictor.len() <= entries, "seed {seed}");
        // SBTB holds only branches whose last resolution was taken… so
        // after the stream, misses must be consistent with lookups.
        assert_eq!(sbtb.stats.btb_lookups, n, "seed {seed}");
        assert!(sbtb.stats.btb_misses <= n, "seed {seed}");
    }
}

#[test]
fn counter_stays_within_range_under_any_pattern() {
    for seed in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0xc0ffee ^ seed);
        let bits = rng.gen_range(1..5u8);
        let threshold = 1 << (bits - 1);
        // Indirectly validated: accuracy stays within [0, 1] and the
        // predictor never panics regardless of counter width.
        let mut e = Evaluator::new(Cbtb::new(CbtbConfig {
            counter_bits: bits,
            threshold,
            ..CbtbConfig::paper()
        }));
        for _ in 0..rng.gen_range(1..500usize) {
            let mut ev = cond_event(1, rng.gen_bool(0.5));
            ev.pc = Addr(4);
            ev.target = Addr(77);
            ev.fallthrough = Addr(5);
            ev.branch = BranchId {
                func: FuncId(0),
                block: BlockId(0),
            };
            e.branch(&ev);
        }
        let a = e.stats.accuracy();
        assert!((0.0..=1.0).contains(&a), "seed {seed}: accuracy {a}");
    }
}

impl RefLru {
    fn peek(&self, key: u32) -> Option<i32> {
        self.entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }
}

/// Keys drawn over the whole `u32` range: a pool a little larger than
/// the buffer (so sets fill, evict and refill), plus the extremes and
/// keys that differ only in their high bits.
fn full_range_keys(rng: &mut Rng, capacity: usize) -> Vec<u32> {
    let mut keys: Vec<u32> = (0..capacity + capacity / 2)
        .map(|_| rng.next_u64() as u32)
        .collect();
    keys.extend([0, 1, u32::MAX, u32::MAX - 1, 1 << 31, (1 << 31) | 1]);
    keys.extend((1..8u32).map(|i| i << 28));
    keys
}

#[test]
fn wide_indexed_sets_match_reference_lru_over_full_u32_keys() {
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x1d3e ^ seed);
        // Ways above 8 take the indexed path, in one to four sets.
        let sets = 1usize << rng.gen_range(0..3u32);
        let ways = rng.gen_range(9..48usize);
        let keys = full_range_keys(&mut rng, sets * ways);
        let mut buf = AssocBuffer::new(sets, ways);
        let mut model: Vec<RefLru> = (0..sets)
            .map(|_| RefLru {
                capacity: ways,
                ..Default::default()
            })
            .collect();
        let set_of = |k: u32| (k as usize) & (sets - 1);
        for i in 0..rng.gen_range(200..600usize) {
            let k = keys[rng.gen_range(0..keys.len())];
            let ctx = format!("seed {seed} ({sets}x{ways}) op {i} key {k:#x}");
            match rng.gen_range(0..20u32) {
                0..=6 => {
                    let v = rng.next_u64() as i32;
                    buf.insert(k, v);
                    model[set_of(k)].insert(k, v);
                }
                7..=10 => {
                    assert_eq!(buf.lookup(k).copied(), model[set_of(k)].lookup(k), "{ctx}");
                }
                11 => {
                    assert_eq!(buf.peek(k).copied(), model[set_of(k)].peek(k), "{ctx}");
                }
                12..=13 => {
                    assert_eq!(buf.remove(k), model[set_of(k)].remove(k), "{ctx}");
                }
                14..=15 => {
                    // Remove then reinsert: the key must come back at a
                    // (possibly different) way and stay findable.
                    let v = rng.next_u64() as i32;
                    assert_eq!(buf.remove(k), model[set_of(k)].remove(k), "{ctx}");
                    buf.insert(k, v);
                    model[set_of(k)].insert(k, v);
                }
                16..=17 => {
                    let got = buf.lookup_pos(k).map(|(way, v)| (way, *v));
                    assert_eq!(got.map(|g| g.1), model[set_of(k)].lookup(k), "{ctx}");
                    if let Some((way, v)) = got {
                        assert_eq!(buf.remove_at(k, way), Some(v), "{ctx}");
                        model[set_of(k)].remove(k);
                    }
                }
                18 => {
                    // A burst of fills from empty right after a flush.
                    buf.flush();
                    model.iter_mut().for_each(|m| m.entries.clear());
                    for &k in keys.iter().take(ways) {
                        buf.insert(k, 7);
                        model[set_of(k)].insert(k, 7);
                    }
                }
                _ => {
                    buf.flush();
                    model.iter_mut().for_each(|m| m.entries.clear());
                }
            }
            let resident: usize = model.iter().map(|m| m.entries.len()).sum();
            assert_eq!(buf.len(), resident, "{ctx}");
            // Every key in the pool resolves exactly as the model says.
            for &key in &keys {
                assert_eq!(
                    buf.peek(key).copied(),
                    model[set_of(key)].peek(key),
                    "{ctx}: {key:#x}"
                );
            }
        }
    }
}

#[test]
fn wide_set_flush_empties_after_any_fill() {
    // Fill to capacity over full-range keys, flush, and check nothing
    // is found and the buffer refills to capacity with fresh keys.
    for seed in 0..16u64 {
        let mut rng = Rng::seed_from_u64(0xf100 ^ seed);
        let ways = rng.gen_range(9..300usize);
        let mut buf = AssocBuffer::fully_associative(ways);
        let old: Vec<u32> = (0..ways).map(|_| rng.next_u64() as u32).collect();
        for &k in &old {
            buf.insert(k, k);
        }
        buf.flush();
        assert!(buf.is_empty(), "seed {seed}");
        for &k in &old {
            assert_eq!(buf.peek(k), None, "seed {seed}: {k:#x}");
        }
        let fresh: Vec<u32> = (0..ways).map(|_| rng.next_u64() as u32).collect();
        for &k in &fresh {
            buf.insert(k, !k);
        }
        for &k in &fresh {
            assert_eq!(buf.peek(k), Some(&!k), "seed {seed}: {k:#x}");
        }
    }
}
