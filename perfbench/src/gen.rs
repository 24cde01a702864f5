//! Seeded `/v1/sweep` request bodies for the serve load.
//!
//! A [`BodySource`] yields an endless stream of *distinct* sweep
//! bodies, so every body it hands out is a cache miss the first time it
//! is sent. A [`Plan`] decides, per client and request, whether to
//! re-send a body from the hot set or take the next fresh one. Both are
//! deterministic in the seed; the load counts what it actually sent and
//! [`SendLog::verify`] checks the realized split against the plan.

use std::collections::HashSet;

use branchlab::telemetry::Rng;

/// Bodies in the hot set: well under the server's 256-entry cache.
pub const HOT_SET: usize = 32;

/// Planned share of requests that send a fresh body.
pub const FRESH_SHARE: f64 = 0.1;

/// An endless, seed-determined stream of pairwise-distinct bodies.
pub struct BodySource {
    rng: Rng,
    benches: Vec<&'static str>,
    seen: HashSet<String>,
}

impl BodySource {
    /// Bodies over `benches` drawn from `seed`.
    ///
    /// # Panics
    /// Panics if `benches` is empty.
    #[must_use]
    pub fn new(seed: u64, benches: &[&'static str]) -> Self {
        assert!(!benches.is_empty(), "bodies need at least one benchmark");
        BodySource {
            rng: Rng::seed_from_u64(seed ^ 0x5e57_b0d1_e5ee_d5a1),
            benches: benches.to_vec(),
            seen: HashSet::new(),
        }
    }

    /// The next body, distinct from every earlier one.
    pub fn next_body(&mut self) -> String {
        loop {
            let body = draw(&mut self.rng, &self.benches);
            if self.seen.insert(body.clone()) {
                return body;
            }
        }
    }
}

fn pick<T: Copy>(rng: &mut Rng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// One body: a CBTB or gshare family (several configurations the
/// server packs into lanes) or a scalar SBTB / two-level BTB point.
/// Every field is spelled out, so distinct strings are distinct
/// canonical requests.
fn draw(rng: &mut Rng, benches: &[&'static str]) -> String {
    let bench = pick(rng, benches);
    let preds: Vec<String> = match rng.gen_range(0..4u32) {
        0 => {
            let entries = pick(rng, &[64usize, 128, 256, 512]);
            let ways = pick(rng, &[1usize, 2, 4, entries]);
            (0..rng.gen_range(2..=8usize))
                .map(|_| {
                    let bits = rng.gen_range(1..=4u8);
                    let threshold = rng.gen_range(1..=(1u8 << bits) - 1);
                    let strict = rng.gen_bool(0.5);
                    format!(
                        r#"{{"kind":"cbtb","entries":{entries},"ways":{ways},"counter_bits":{bits},"threshold":{threshold},"strict_greater":{strict}}}"#
                    )
                })
                .collect()
        }
        1 => (0..rng.gen_range(2..=6usize))
            .map(|_| {
                // A history wider than the table is not a valid gshare.
                let table_bits = rng.gen_range(6..=14u32);
                format!(
                    r#"{{"kind":"gshare","table_bits":{table_bits},"history_bits":{}}}"#,
                    rng.gen_range(0..=table_bits.min(12))
                )
            })
            .collect(),
        2 => {
            let entries = pick(rng, &[16usize, 32, 64, 128, 256, 512, 1024, 2048]);
            let ways = pick(rng, &[1usize, 2, 4, 8, entries]).min(entries);
            vec![format!(
                r#"{{"kind":"sbtb","entries":{entries},"ways":{ways}}}"#
            )]
        }
        _ => vec![format!(
            r#"{{"kind":"mlbtb","l1_entries":{},"l1_ways":{},"l1_latency":0,"l2_entries":{},"l2_ways":{},"l2_latency":{},"policy":"{}","counter_bits":2,"threshold":2}}"#,
            pick(rng, &[16usize, 32, 64, 128]),
            pick(rng, &[1usize, 2, 4]),
            pick(rng, &[256usize, 512, 1024, 2048, 4096]),
            pick(rng, &[2usize, 4, 8]),
            rng.gen_range(1..=4u32),
            pick(rng, &["l1", "staged"]),
        )],
    };
    format!(
        r#"{{"bench":"{bench}","predictors":[{}]}}"#,
        preds.join(",")
    )
}

/// What one request sends.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Pick {
    /// Re-send hot-set body `i`.
    Hot(usize),
    /// Send the next fresh body.
    Fresh,
}

/// One client's request plan: hot or fresh per request, and which hot
/// body.
pub struct Plan {
    rng: Rng,
    hot: usize,
}

impl Plan {
    /// The plan of client `client` under `seed` over a hot set of `hot`
    /// bodies.
    ///
    /// # Panics
    /// Panics if `hot` is zero.
    #[must_use]
    pub fn new(seed: u64, client: u64, hot: usize) -> Self {
        assert!(hot > 0, "the hot set must not be empty");
        Plan {
            rng: Rng::seed_from_u64(seed ^ client.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x91a7),
            hot,
        }
    }

    /// The next request's pick.
    pub fn next_pick(&mut self) -> Pick {
        if self.rng.gen_bool(FRESH_SHARE) {
            Pick::Fresh
        } else {
            Pick::Hot(self.rng.gen_range(0..self.hot))
        }
    }
}

/// What a load actually sent, for checking it against its plan.
#[derive(Default, Debug)]
pub struct SendLog {
    /// Requests that re-sent a hot-set body.
    pub hot_sent: u64,
    /// Requests that sent a fresh body.
    pub fresh_sent: u64,
    /// Distinct hot-set indices sent at least once.
    pub hot_used: HashSet<usize>,
    /// Distinct body strings sent.
    pub distinct: HashSet<String>,
}

impl SendLog {
    /// Record one request.
    pub fn note(&mut self, pick: Pick, body: &str) {
        match pick {
            Pick::Hot(i) => {
                self.hot_sent += 1;
                self.hot_used.insert(i);
            }
            Pick::Fresh => self.fresh_sent += 1,
        }
        if !self.distinct.contains(body) {
            self.distinct.insert(body.to_string());
        }
    }

    /// Fold another client's log into this one.
    pub fn merge(&mut self, other: SendLog) {
        self.hot_sent += other.hot_sent;
        self.fresh_sent += other.fresh_sent;
        self.hot_used.extend(other.hot_used);
        self.distinct.extend(other.distinct);
    }

    /// Check the realized load against the plan: every fresh request
    /// sent a body never sent before (the distinct bodies number the hot
    /// bodies used plus the fresh requests), and the fresh share lies
    /// within four standard deviations of [`FRESH_SHARE`].
    ///
    /// # Errors
    /// A description of the first violated expectation.
    pub fn verify(&self) -> Result<(), String> {
        let expected = self.hot_used.len() as u64 + self.fresh_sent;
        if self.distinct.len() as u64 != expected {
            return Err(format!(
                "sent {} distinct bodies, planned {} hot + {} fresh",
                self.distinct.len(),
                self.hot_used.len(),
                self.fresh_sent
            ));
        }
        let n = (self.hot_sent + self.fresh_sent) as f64;
        if n == 0.0 {
            return Err("no requests sent".to_string());
        }
        let share = self.fresh_sent as f64 / n;
        let sigma = (FRESH_SHARE * (1.0 - FRESH_SHARE) / n).sqrt();
        if (share - FRESH_SHARE).abs() > 4.0 * sigma + 1e-9 {
            return Err(format!(
                "fresh share {share:.4} over {n} requests, planned {FRESH_SHARE}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHES: [&str; 3] = ["wc", "grep", "cccp"];

    fn first(seed: u64, n: usize) -> Vec<String> {
        let mut src = BodySource::new(seed, &BENCHES);
        (0..n).map(|_| src.next_body()).collect()
    }

    #[test]
    fn bodies_are_deterministic_per_seed() {
        assert_eq!(first(7, 200), first(7, 200));
        assert_ne!(first(7, 200), first(8, 200));
    }

    #[test]
    fn bodies_are_pairwise_distinct_and_parse() {
        let bodies = first(1989, 2000);
        let unique: HashSet<&String> = bodies.iter().collect();
        assert_eq!(unique.len(), bodies.len());
        let base = branchlab::experiments::ExperimentConfig::test();
        let mut kinds = HashSet::new();
        for b in &bodies {
            let req = branchlab::server::api::SweepRequest::parse(b.as_bytes(), &base)
                .unwrap_or_else(|e| panic!("{b}: {}", e.message()));
            kinds.extend(req.predictors.iter().map(|p| p.kind()));
        }
        for kind in ["cbtb", "gshare", "sbtb", "mlbtb"] {
            assert!(kinds.contains(kind), "no {kind} bodies");
        }
    }

    #[test]
    fn distinct_strings_are_distinct_canonical_requests() {
        let base = branchlab::experiments::ExperimentConfig::test();
        let keys: HashSet<String> = first(3, 1000)
            .iter()
            .map(|b| {
                branchlab::server::api::SweepRequest::parse(b.as_bytes(), &base)
                    .unwrap()
                    .canonical_key()
            })
            .collect();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn plans_are_deterministic_and_split_as_planned() {
        let picks = |seed, client| {
            let mut p = Plan::new(seed, client, HOT_SET);
            (0..5000).map(|_| p.next_pick()).collect::<Vec<_>>()
        };
        assert_eq!(picks(5, 0), picks(5, 0));
        assert_ne!(picks(5, 0), picks(5, 1));
        let mut log = SendLog::default();
        let mut src = BodySource::new(5, &BENCHES);
        let hot: Vec<String> = (0..HOT_SET).map(|_| src.next_body()).collect();
        for pick in picks(5, 0) {
            let body = match pick {
                Pick::Hot(i) => hot[i].clone(),
                Pick::Fresh => src.next_body(),
            };
            log.note(pick, &body);
        }
        log.verify().unwrap();
    }

    #[test]
    fn verify_catches_a_repeated_fresh_body_and_a_skewed_split() {
        let mut log = SendLog::default();
        log.note(Pick::Fresh, "a");
        log.note(Pick::Fresh, "a");
        assert!(log.verify().unwrap_err().contains("distinct"));
        let mut skewed = SendLog::default();
        for i in 0..1000 {
            skewed.note(Pick::Fresh, &i.to_string());
        }
        assert!(skewed.verify().unwrap_err().contains("share"));
    }
}
