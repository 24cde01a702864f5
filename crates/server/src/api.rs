//! The `/v1/sweep` request schema and its evaluation path.
//!
//! A sweep request names a benchmark, an optional `(scale, seed)`
//! override, a list of predictor configurations, and optional
//! return-address-stack depths. Evaluation plans the whole request
//! into one [`SweepBatch`] over the benchmark's resident trace, so a
//! request costs one replay pass no matter how many configurations it
//! carries — and the response is **deterministic down to the byte**:
//! the same request always renders the same JSON, whether it was
//! computed, coalesced onto a concurrent computation, or served from
//! the LRU cache. (The test suite asserts byte-equality against a
//! direct [`SweepBatch`] run.)

use std::sync::Arc;

use branchlab_experiments::trace_replay::scale_name;
use branchlab_experiments::{ExperimentConfig, SweepBatch};
use branchlab_predict::{
    AlwaysNotTaken, AlwaysTaken, BackwardTakenForwardNot, BranchPredictor, Cbtb, CbtbConfig,
    FillPolicy, Gshare, LocalHistory, MlBtb, MlBtbConfig, MlBtbLevel, OpcodeBias, PredStats,
    ReturnAddressStack, Sbtb, SbtbConfig,
};
use branchlab_telemetry::{json, JsonValue, SpanLink};
use branchlab_trace::hash_bytes;
use branchlab_workloads::{benchmark, Benchmark, Scale};

/// Most predictor configurations accepted in one request.
pub const MAX_PREDICTORS: usize = 512;
/// Most return-address-stack depths accepted in one request.
pub const MAX_RAS_DEPTHS: usize = 64;

/// A sweep-path failure, mapped onto an HTTP status by the router.
#[derive(Clone, Debug)]
pub enum ApiError {
    /// Unparseable or out-of-range request (400).
    BadRequest(String),
    /// Unknown benchmark (404).
    UnknownBenchmark(String),
    /// Queue at capacity or pool draining (503 + `Retry-After`).
    Overloaded,
    /// Admission control projected the queue wait past the request's
    /// deadline and shed the request up front (503 + `Retry-After`
    /// derived from the projection).
    AdmissionRejected {
        /// The projected queue wait, µs.
        projected_wait_us: u64,
        /// The deadline budget the projection exceeded, µs.
        deadline_us: u64,
    },
    /// The request's deadline passed before a result was ready (504).
    DeadlineExpired,
    /// Evaluation failed (500).
    Internal(String),
}

impl ApiError {
    /// The HTTP status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest(_) => 400,
            ApiError::UnknownBenchmark(_) => 404,
            ApiError::Overloaded | ApiError::AdmissionRejected { .. } => 503,
            ApiError::DeadlineExpired => 504,
            ApiError::Internal(_) => 500,
        }
    }

    /// Seconds a client should wait before retrying, when this error
    /// carries sizing information (rendered as `Retry-After`).
    #[must_use]
    pub fn retry_after_secs(&self) -> Option<u64> {
        match self {
            ApiError::Overloaded => Some(1),
            // Round the projected wait up to whole seconds; even a
            // microsecond projection earns a 1s floor so a retrying
            // client never busy-loops against a loaded daemon.
            ApiError::AdmissionRejected {
                projected_wait_us, ..
            } => Some(projected_wait_us.div_ceil(1_000_000).max(1)),
            _ => None,
        }
    }

    /// The error message for the JSON body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            ApiError::BadRequest(m) => m.clone(),
            ApiError::UnknownBenchmark(name) => format!("unknown benchmark `{name}`"),
            ApiError::Overloaded => "sweep queue is full; retry shortly".to_string(),
            ApiError::AdmissionRejected {
                projected_wait_us,
                deadline_us,
            } => format!(
                "admission rejected: projected queue wait {projected_wait_us}us exceeds the \
                 {deadline_us}us deadline; retry after backoff"
            ),
            ApiError::DeadlineExpired => "deadline expired before the sweep completed".to_string(),
            ApiError::Internal(m) => format!("sweep evaluation failed: {m}"),
        }
    }
}

/// One predictor configuration, fully resolved (defaults applied at
/// parse time so the canonical form is unambiguous).
#[derive(Clone, Debug, PartialEq)]
pub enum PredictorSpec {
    /// Simple Branch Target Buffer.
    Sbtb {
        /// Total entries.
        entries: usize,
        /// Ways per set.
        ways: usize,
    },
    /// Counter-based Branch Target Buffer.
    Cbtb {
        /// Total entries.
        entries: usize,
        /// Ways per set.
        ways: usize,
        /// Counter width in bits.
        counter_bits: u8,
        /// Prediction threshold.
        threshold: u8,
        /// `C > T` (paper-literal) instead of `C ≥ T`.
        strict_greater: bool,
    },
    /// Always predict taken.
    AlwaysTaken,
    /// Always predict not taken.
    AlwaysNotTaken,
    /// Backward taken, forward not taken.
    Btfn,
    /// Opcode-bias heuristic.
    OpcodeBias,
    /// Global-history two-level predictor.
    Gshare {
        /// log2 of the pattern table size.
        table_bits: u32,
        /// Global history length (at most `table_bits`).
        history_bits: u32,
    },
    /// Per-branch local-history two-level predictor.
    Local {
        /// log2 of the pattern table size.
        table_bits: u32,
        /// Local history length (at most `table_bits`).
        history_bits: u32,
    },
    /// Two-level BTB hierarchy (small L1 backed by a larger L2).
    Mlbtb {
        /// L1 entries.
        l1_entries: usize,
        /// L1 ways per set.
        l1_ways: usize,
        /// L1 lookup-latency penalty in cycles.
        l1_latency: u32,
        /// L2 entries.
        l2_entries: usize,
        /// L2 ways per set.
        l2_ways: usize,
        /// L2 lookup-latency penalty in cycles.
        l2_latency: u32,
        /// `staged` fill/promotion policy instead of inclusive-L1.
        staged: bool,
        /// Direction counter width in bits.
        counter_bits: u8,
        /// Predict-taken threshold.
        threshold: u8,
    },
}

fn field_usize(v: &JsonValue, key: &str, default: usize) -> Result<usize, ApiError> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_int()
            .and_then(|i| usize::try_from(i).ok())
            .ok_or_else(|| ApiError::BadRequest(format!("`{key}` must be a non-negative integer"))),
    }
}

fn field_u32(v: &JsonValue, key: &str, default: u32) -> Result<u32, ApiError> {
    field_usize(v, key, default as usize).and_then(|n| {
        u32::try_from(n).map_err(|_| ApiError::BadRequest(format!("`{key}` out of range")))
    })
}

fn field_u8(v: &JsonValue, key: &str, default: u8) -> Result<u8, ApiError> {
    field_usize(v, key, default as usize).and_then(|n| {
        u8::try_from(n).map_err(|_| ApiError::BadRequest(format!("`{key}` out of range")))
    })
}

fn field_bool(v: &JsonValue, key: &str, default: bool) -> Result<bool, ApiError> {
    match v.get(key) {
        None => Ok(default),
        Some(JsonValue::Bool(b)) => Ok(*b),
        Some(_) => Err(ApiError::BadRequest(format!("`{key}` must be a boolean"))),
    }
}

fn bad(message: &str) -> Result<(), ApiError> {
    Err(ApiError::BadRequest(message.to_string()))
}

/// The buffer geometry the engines accept: `{prefix}entries` in
/// 1..=2^20, `{prefix}ways` in 1..=entries, and a power-of-two set
/// count.
fn validate_geometry(prefix: &str, entries: usize, ways: usize) -> Result<(), ApiError> {
    if entries == 0 || entries > 1 << 20 {
        return Err(ApiError::BadRequest(format!(
            "`{prefix}entries` must be in 1..=1048576"
        )));
    }
    if ways == 0 || ways > entries {
        return Err(ApiError::BadRequest(format!(
            "`{prefix}ways` must be in 1..=entries"
        )));
    }
    if !entries.is_multiple_of(ways) || !(entries / ways).is_power_of_two() {
        return Err(ApiError::BadRequest(format!(
            "`{prefix}entries` / `{prefix}ways` must give a power-of-two set count"
        )));
    }
    Ok(())
}

/// The counter rule the engines accept: 1..=7 bits and a threshold in
/// 1..=counter max.
fn validate_counters(counter_bits: u8, threshold: u8) -> Result<(), ApiError> {
    if counter_bits == 0 || counter_bits > 7 {
        return bad("`counter_bits` must be in 1..=7");
    }
    if threshold == 0 || u16::from(threshold) >= 1 << counter_bits {
        return bad("`threshold` must be in 1..=counter max");
    }
    Ok(())
}

impl PredictorSpec {
    /// Parse one entry of the request's `predictors` array.
    ///
    /// # Errors
    /// [`ApiError::BadRequest`] for unknown kinds or out-of-range
    /// geometry (bounds keep a single request from allocating
    /// unbounded table memory).
    pub fn parse(v: &JsonValue) -> Result<Self, ApiError> {
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ApiError::BadRequest("predictor entry needs a `kind`".into()))?;
        let spec = match kind {
            "sbtb" => {
                let entries = field_usize(v, "entries", 256)?;
                PredictorSpec::Sbtb {
                    entries,
                    ways: field_usize(v, "ways", entries)?,
                }
            }
            "cbtb" => {
                let entries = field_usize(v, "entries", 256)?;
                PredictorSpec::Cbtb {
                    entries,
                    ways: field_usize(v, "ways", entries)?,
                    counter_bits: field_u8(v, "counter_bits", 2)?,
                    threshold: field_u8(v, "threshold", 2)?,
                    strict_greater: field_bool(v, "strict_greater", false)?,
                }
            }
            "always_taken" => PredictorSpec::AlwaysTaken,
            "always_not_taken" => PredictorSpec::AlwaysNotTaken,
            "btfn" => PredictorSpec::Btfn,
            "opcode_bias" => PredictorSpec::OpcodeBias,
            "gshare" => PredictorSpec::Gshare {
                table_bits: field_u32(v, "table_bits", 12)?,
                history_bits: field_u32(v, "history_bits", 8)?,
            },
            "local" => PredictorSpec::Local {
                table_bits: field_u32(v, "table_bits", 12)?,
                history_bits: field_u32(v, "history_bits", 8)?,
            },
            "mlbtb" => {
                let staged = match v.get("policy").and_then(JsonValue::as_str) {
                    None | Some("l1") => false,
                    Some("staged") => true,
                    Some(other) => {
                        return Err(ApiError::BadRequest(format!(
                            "unknown mlbtb policy `{other}` (expected `l1` or `staged`)"
                        )))
                    }
                };
                PredictorSpec::Mlbtb {
                    l1_entries: field_usize(v, "l1_entries", 64)?,
                    l1_ways: field_usize(v, "l1_ways", 4)?,
                    l1_latency: field_u32(v, "l1_latency", 0)?,
                    l2_entries: field_usize(v, "l2_entries", 2048)?,
                    l2_ways: field_usize(v, "l2_ways", 8)?,
                    l2_latency: field_u32(v, "l2_latency", 2)?,
                    staged,
                    counter_bits: field_u8(v, "counter_bits", 2)?,
                    threshold: field_u8(v, "threshold", 2)?,
                }
            }
            other => {
                return Err(ApiError::BadRequest(format!(
                    "unknown predictor kind `{other}`"
                )))
            }
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), ApiError> {
        match *self {
            PredictorSpec::Sbtb { entries, ways } => validate_geometry("", entries, ways),
            PredictorSpec::Cbtb {
                entries,
                ways,
                counter_bits,
                threshold,
                ..
            } => {
                validate_geometry("", entries, ways)?;
                validate_counters(counter_bits, threshold)
            }
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            }
            | PredictorSpec::Local {
                table_bits,
                history_bits,
            } => {
                if table_bits == 0 || table_bits > 24 {
                    return bad("`table_bits` must be in 1..=24");
                }
                if history_bits > table_bits {
                    return bad("`history_bits` must be in 0..=table_bits");
                }
                Ok(())
            }
            PredictorSpec::Mlbtb {
                l1_entries,
                l1_ways,
                l1_latency,
                l2_entries,
                l2_ways,
                l2_latency,
                counter_bits,
                threshold,
                ..
            } => {
                validate_geometry("l1_", l1_entries, l1_ways)?;
                validate_geometry("l2_", l2_entries, l2_ways)?;
                if l1_latency > 1000 || l2_latency > 1000 {
                    return bad("level latencies must be in 0..=1000");
                }
                validate_counters(counter_bits, threshold)
            }
            _ => Ok(()),
        }
    }

    /// The short kind name used in canonical forms and responses.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PredictorSpec::Sbtb { .. } => "sbtb",
            PredictorSpec::Cbtb { .. } => "cbtb",
            PredictorSpec::AlwaysTaken => "always_taken",
            PredictorSpec::AlwaysNotTaken => "always_not_taken",
            PredictorSpec::Btfn => "btfn",
            PredictorSpec::OpcodeBias => "opcode_bias",
            PredictorSpec::Gshare { .. } => "gshare",
            PredictorSpec::Local { .. } => "local",
            PredictorSpec::Mlbtb { .. } => "mlbtb",
        }
    }

    /// The fully resolved configuration as a canonical JSON object
    /// (fixed field order — this is what the cache key hashes).
    #[must_use]
    pub fn canonical(&self) -> JsonValue {
        let mut fields: Vec<(&str, JsonValue)> = vec![("kind", self.kind().into())];
        match *self {
            PredictorSpec::Sbtb { entries, ways } => {
                fields.push(("entries", entries.into()));
                fields.push(("ways", ways.into()));
            }
            PredictorSpec::Cbtb {
                entries,
                ways,
                counter_bits,
                threshold,
                strict_greater,
            } => {
                fields.push(("entries", entries.into()));
                fields.push(("ways", ways.into()));
                fields.push(("counter_bits", u64::from(counter_bits).into()));
                fields.push(("threshold", u64::from(threshold).into()));
                fields.push(("strict_greater", strict_greater.into()));
            }
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            }
            | PredictorSpec::Local {
                table_bits,
                history_bits,
            } => {
                fields.push(("table_bits", table_bits.into()));
                fields.push(("history_bits", history_bits.into()));
            }
            PredictorSpec::Mlbtb {
                l1_entries,
                l1_ways,
                l1_latency,
                l2_entries,
                l2_ways,
                l2_latency,
                staged,
                counter_bits,
                threshold,
            } => {
                fields.push(("l1_entries", l1_entries.into()));
                fields.push(("l1_ways", l1_ways.into()));
                fields.push(("l1_latency", l1_latency.into()));
                fields.push(("l2_entries", l2_entries.into()));
                fields.push(("l2_ways", l2_ways.into()));
                fields.push(("l2_latency", l2_latency.into()));
                fields.push(("policy", if staged { "staged" } else { "l1" }.into()));
                fields.push(("counter_bits", u64::from(counter_bits).into()));
                fields.push(("threshold", u64::from(threshold).into()));
            }
            _ => {}
        }
        JsonValue::obj(fields)
    }

    /// Construct the predictor this spec describes.
    #[must_use]
    pub fn build(&self) -> Box<dyn BranchPredictor> {
        match *self {
            PredictorSpec::Sbtb { entries, ways } => {
                Box::new(Sbtb::new(SbtbConfig { entries, ways }))
            }
            PredictorSpec::Cbtb {
                entries,
                ways,
                counter_bits,
                threshold,
                strict_greater,
            } => Box::new(Cbtb::new(CbtbConfig {
                entries,
                ways,
                counter_bits,
                threshold,
                strict_greater,
            })),
            PredictorSpec::AlwaysTaken => Box::new(AlwaysTaken),
            PredictorSpec::AlwaysNotTaken => Box::new(AlwaysNotTaken),
            PredictorSpec::Btfn => Box::new(BackwardTakenForwardNot),
            PredictorSpec::OpcodeBias => Box::new(OpcodeBias::heuristic()),
            PredictorSpec::Gshare {
                table_bits,
                history_bits,
            } => Box::new(Gshare::new(table_bits, history_bits)),
            PredictorSpec::Local {
                table_bits,
                history_bits,
            } => Box::new(LocalHistory::new(table_bits, history_bits)),
            PredictorSpec::Mlbtb {
                l1_entries,
                l1_ways,
                l1_latency,
                l2_entries,
                l2_ways,
                l2_latency,
                staged,
                counter_bits,
                threshold,
            } => Box::new(MlBtb::new(MlBtbConfig {
                levels: vec![
                    MlBtbLevel {
                        entries: l1_entries,
                        ways: l1_ways,
                        latency: l1_latency,
                    },
                    MlBtbLevel {
                        entries: l2_entries,
                        ways: l2_ways,
                        latency: l2_latency,
                    },
                ],
                policy: if staged {
                    FillPolicy::Staged
                } else {
                    FillPolicy::L1
                },
                counter_bits,
                threshold,
                strict_greater: false,
            })),
        }
    }
}

/// A parsed, fully resolved `/v1/sweep` request.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// The benchmark to sweep over.
    pub bench: &'static Benchmark,
    /// Input scale (defaults to the daemon's).
    pub scale: Scale,
    /// Input seed (defaults to the daemon's).
    pub seed: u64,
    /// Predictor configurations, in request order.
    pub predictors: Vec<PredictorSpec>,
    /// Return-address-stack depths, in request order.
    pub ras: Vec<usize>,
    /// Client deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
}

fn parse_scale(v: &JsonValue) -> Result<Scale, ApiError> {
    match v.as_str() {
        Some("test") => Ok(Scale::Test),
        Some("small") => Ok(Scale::Small),
        Some("paper") => Ok(Scale::Paper),
        _ => Err(ApiError::BadRequest(
            "`scale` must be \"test\", \"small\", or \"paper\"".into(),
        )),
    }
}

impl SweepRequest {
    /// Parse a request body against the daemon's base configuration.
    ///
    /// # Errors
    /// [`ApiError::BadRequest`] for malformed JSON or out-of-range
    /// fields; [`ApiError::UnknownBenchmark`] for a benchmark not in
    /// the suite.
    pub fn parse(body: &[u8], base: &ExperimentConfig) -> Result<Self, ApiError> {
        let text = std::str::from_utf8(body)
            .map_err(|_| ApiError::BadRequest("body is not UTF-8".into()))?;
        let v = json::parse(text).map_err(|e| ApiError::BadRequest(format!("bad JSON: {e}")))?;

        let name = v
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ApiError::BadRequest("request needs a `bench` name".into()))?;
        let bench = benchmark(name).ok_or_else(|| ApiError::UnknownBenchmark(name.to_string()))?;

        let scale = match v.get("scale") {
            None => base.scale,
            Some(s) => parse_scale(s)?,
        };
        let seed = match v.get("seed") {
            None => base.seed,
            Some(s) => s
                .as_int()
                .and_then(|i| u64::try_from(i).ok())
                .ok_or_else(|| {
                    ApiError::BadRequest("`seed` must be a non-negative integer".into())
                })?,
        };

        let predictors = v
            .get("predictors")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| ApiError::BadRequest("request needs a `predictors` array".into()))?
            .iter()
            .map(PredictorSpec::parse)
            .collect::<Result<Vec<_>, _>>()?;
        if predictors.is_empty() {
            return Err(ApiError::BadRequest(
                "`predictors` must not be empty".into(),
            ));
        }
        if predictors.len() > MAX_PREDICTORS {
            return Err(ApiError::BadRequest(format!(
                "at most {MAX_PREDICTORS} predictors per request"
            )));
        }

        let ras = match v.get("ras") {
            None => Vec::new(),
            Some(arr) => arr
                .as_arr()
                .ok_or_else(|| ApiError::BadRequest("`ras` must be an array of depths".into()))?
                .iter()
                .map(|d| {
                    d.as_int()
                        .and_then(|i| usize::try_from(i).ok())
                        .filter(|n| (1..=65_536).contains(n))
                        .ok_or_else(|| {
                            ApiError::BadRequest("`ras` depths must be in 1..=65536".into())
                        })
                })
                .collect::<Result<Vec<_>, _>>()?,
        };
        if ras.len() > MAX_RAS_DEPTHS {
            return Err(ApiError::BadRequest(format!(
                "at most {MAX_RAS_DEPTHS} RAS depths per request"
            )));
        }

        let deadline_ms = match v.get("deadline_ms") {
            None => None,
            Some(d) => Some(
                d.as_int()
                    .and_then(|i| u64::try_from(i).ok())
                    .filter(|ms| (1..=600_000).contains(ms))
                    .ok_or_else(|| {
                        ApiError::BadRequest("`deadline_ms` must be in 1..=600000".into())
                    })?,
            ),
        };

        Ok(SweepRequest {
            bench,
            scale,
            seed,
            predictors,
            ras,
            deadline_ms,
        })
    }

    /// The benchmark source's content hash (part of the result key, so
    /// a source edit can never serve a stale cached result).
    #[must_use]
    pub fn program_hash(&self) -> u64 {
        hash_bytes(self.bench.source.as_bytes())
    }

    /// How many sweep points this request scores (the unit admission
    /// control's per-point cost EWMA is denominated in).
    #[must_use]
    pub fn points(&self) -> u64 {
        (self.predictors.len() + self.ras.len()) as u64
    }

    /// The canonical identity of this request:
    /// `(bench, program hash, scale, seed, predictor configs, ras)`
    /// rendered as one compact JSON string. Equal requests — however
    /// their JSON was originally spelled — canonicalize identically,
    /// which is what the LRU cache and the coalescing map key on.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        JsonValue::obj(vec![
            ("bench", self.bench.name.into()),
            (
                "program_hash",
                format!("{:016x}", self.program_hash()).into(),
            ),
            ("scale", scale_name(self.scale).into()),
            ("seed", self.seed.into()),
            (
                "predictors",
                JsonValue::Arr(
                    self.predictors
                        .iter()
                        .map(PredictorSpec::canonical)
                        .collect(),
                ),
            ),
            (
                "ras",
                JsonValue::Arr(self.ras.iter().map(|&d| d.into()).collect()),
            ),
        ])
        .to_json()
    }
}

/// Evaluate `req` through one [`SweepBatch`] pass and render the
/// response body.
///
/// # Errors
/// [`ApiError::Internal`] when the capture/replay pipeline fails.
pub fn evaluate(req: &SweepRequest, base: &ExperimentConfig) -> Result<Arc<str>, ApiError> {
    evaluate_traced(req, base, None)
}

/// [`evaluate`], with the batch's capture/score phases and the final
/// render recorded as child spans under `parent` (see
/// [`branchlab_telemetry::trace`]). With `parent` `None` this is
/// exactly [`evaluate`].
///
/// # Errors
/// [`ApiError::Internal`] when the capture/replay pipeline fails.
pub fn evaluate_traced(
    req: &SweepRequest,
    base: &ExperimentConfig,
    parent: Option<&SpanLink>,
) -> Result<Arc<str>, ApiError> {
    let config = ExperimentConfig {
        scale: req.scale,
        seed: req.seed,
        ..base.clone()
    };
    let mut batch = SweepBatch::new(req.bench, &config);
    if let Some(link) = parent {
        batch.set_trace_parent(link.clone());
    }
    let preds = batch.eval(req.predictors.iter().map(PredictorSpec::build).collect());
    let ras = (!req.ras.is_empty()).then(|| batch.ras(&req.ras));
    let results = batch.run().map_err(|e| ApiError::Internal(e.to_string()))?;
    let ras_stats = ras.map(|t| results.ras(t)).unwrap_or(&[]);
    let mut render_span = parent.map(|p| p.child("render"));
    let body = render_sweep_response(req, results.stats(preds), ras_stats);
    if let Some(s) = render_span.as_mut() {
        s.add_work(body.len() as u64);
    }
    Ok(body)
}

/// Render the response body for a scored sweep. Pure and
/// deterministic: byte-identical output for identical inputs, which
/// makes computed, coalesced, and cached responses indistinguishable
/// on the wire (provenance travels in the `X-Branchlab-Source`
/// header instead).
#[must_use]
pub fn render_sweep_response(
    req: &SweepRequest,
    stats: &[PredStats],
    ras: &[ReturnAddressStack],
) -> Arc<str> {
    let predictors = req
        .predictors
        .iter()
        .zip(stats)
        .map(|(spec, s)| {
            JsonValue::obj(vec![
                ("kind", spec.kind().into()),
                ("config", spec.canonical()),
                ("events", s.events.into()),
                ("correct", s.correct.into()),
                ("accuracy", s.accuracy().into()),
                ("cond_events", s.cond_events.into()),
                ("cond_correct", s.cond_correct.into()),
                ("cond_accuracy", s.cond_accuracy().into()),
                ("btb_lookups", s.btb_lookups.into()),
                ("btb_misses", s.btb_misses.into()),
                ("miss_ratio", s.miss_ratio().into()),
            ])
        })
        .collect();
    let ras = ras
        .iter()
        .map(|r| {
            JsonValue::obj(vec![
                ("depth", r.depth().into()),
                ("returns", r.returns.into()),
                ("correct", r.correct.into()),
                ("accuracy", r.accuracy().into()),
                ("overflows", r.overflows.into()),
                ("underflows", r.underflows.into()),
            ])
        })
        .collect();
    let body = JsonValue::obj(vec![
        ("bench", req.bench.name.into()),
        ("scale", scale_name(req.scale).into()),
        ("seed", req.seed.into()),
        (
            "program_hash",
            format!("{:016x}", req.program_hash()).into(),
        ),
        ("predictors", JsonValue::Arr(predictors)),
        ("ras", JsonValue::Arr(ras)),
    ])
    .to_json();
    Arc::from(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentConfig {
        ExperimentConfig::test()
    }

    #[test]
    fn parse_applies_defaults_and_canonicalizes() {
        let body = br#"{"bench": "wc", "predictors": [{"kind": "cbtb"}, {"kind": "btfn"}]}"#;
        let req = SweepRequest::parse(body, &base()).unwrap();
        assert_eq!(req.bench.name, "wc");
        assert_eq!(req.scale, Scale::Test);
        assert_eq!(req.seed, 1989);
        assert_eq!(
            req.predictors[0],
            PredictorSpec::Cbtb {
                entries: 256,
                ways: 256,
                counter_bits: 2,
                threshold: 2,
                strict_greater: false,
            }
        );
        // Spelling differences disappear in the canonical key.
        let spelled = br#"{"predictors": [{"entries":256,"kind":"cbtb"},{"kind":"btfn"}],
                           "seed": 1989, "scale": "test", "bench": "wc"}"#;
        let other = SweepRequest::parse(spelled, &base()).unwrap();
        assert_eq!(req.canonical_key(), other.canonical_key());
    }

    #[test]
    fn parse_mlbtb_defaults_and_builds() {
        let body = br#"{"bench": "dispatch", "predictors": [{"kind": "mlbtb"}]}"#;
        let req = SweepRequest::parse(body, &base()).unwrap();
        assert_eq!(req.bench.name, "dispatch");
        assert_eq!(
            req.predictors[0],
            PredictorSpec::Mlbtb {
                l1_entries: 64,
                l1_ways: 4,
                l1_latency: 0,
                l2_entries: 2048,
                l2_ways: 8,
                l2_latency: 2,
                staged: false,
                counter_bits: 2,
                threshold: 2,
            }
        );
        assert_eq!(req.predictors[0].kind(), "mlbtb");
        assert_eq!(req.predictors[0].build().name(), "MLBTB");
        // The policy spelling participates in the canonical key.
        let canon = req.predictors[0].canonical().to_json();
        assert!(canon.contains("\"policy\":\"l1\""), "{canon}");
        let staged = SweepRequest::parse(
            br#"{"bench": "dispatch", "predictors": [{"kind": "mlbtb", "policy": "staged"}]}"#,
            &base(),
        )
        .unwrap();
        assert_ne!(req.canonical_key(), staged.canonical_key());
    }

    #[test]
    fn parse_rejects_garbage() {
        let cases: &[&[u8]] = &[
            b"not json",
            br#"{"predictors": [{"kind": "sbtb"}]}"#, // no bench
            br#"{"bench": "wc"}"#,                    // no predictors
            br#"{"bench": "wc", "predictors": []}"#,  // empty
            br#"{"bench": "wc", "predictors": [{"kind": "quantum"}]}"#, // unknown kind
            br#"{"bench": "wc", "predictors": [{"kind": "sbtb", "entries": 0}]}"#,
            br#"{"bench": "wc", "predictors": [{"kind": "sbtb"}], "ras": [0]}"#,
            br#"{"bench": "wc", "predictors": [{"kind": "sbtb"}], "deadline_ms": 0}"#,
            br#"{"bench": "wc", "predictors": [{"kind": "cbtb", "threshold": 4}]}"#,
            br#"{"bench": "wc", "predictors": [{"kind": "mlbtb", "policy": "lifo"}]}"#,
            br#"{"bench": "wc", "predictors": [{"kind": "mlbtb", "l1_entries": 24}]}"#,
            br#"{"bench": "wc", "predictors": [{"kind": "mlbtb", "threshold": 4}]}"#,
        ];
        for body in cases {
            let err = SweepRequest::parse(body, &base()).unwrap_err();
            assert!(
                matches!(err, ApiError::BadRequest(_)),
                "{:?} for {:?}",
                err,
                String::from_utf8_lossy(body)
            );
        }
        let err = SweepRequest::parse(
            br#"{"bench": "no-such", "predictors": [{"kind": "sbtb"}]}"#,
            &base(),
        )
        .unwrap_err();
        assert!(matches!(err, ApiError::UnknownBenchmark(_)), "{err:?}");
    }

    #[test]
    fn every_spec_that_validates_builds() {
        use branchlab_telemetry::Rng;
        // A buffer size: a power of two or any value up to `max`.
        fn size(rng: &mut Rng, max: usize) -> usize {
            if rng.gen_bool(0.5) {
                1 << rng.gen_range(0..=12u32)
            } else {
                rng.gen_range(0..=max)
            }
        }
        let kinds = [
            "sbtb",
            "cbtb",
            "mlbtb",
            "gshare",
            "local",
            "always_taken",
            "always_not_taken",
            "btfn",
            "opcode_bias",
        ];
        let mut built = [0usize; 9];
        let mut rng = Rng::seed_from_u64(2024);
        for _ in 0..3000 {
            let k = rng.gen_range(0..kinds.len());
            let mut fields = vec![("kind", kinds[k].into())];
            for (entries_key, ways_key) in [
                ("entries", "ways"),
                ("l1_entries", "l1_ways"),
                ("l2_entries", "l2_ways"),
            ] {
                let entries = size(&mut rng, 4096);
                fields.push((entries_key, entries.into()));
                fields.push((ways_key, size(&mut rng, entries + 1).into()));
            }
            fields.push(("counter_bits", rng.gen_range(0..=9u32).into()));
            fields.push(("threshold", rng.gen_range(0..=9u32).into()));
            fields.push(("strict_greater", rng.gen_bool(0.5).into()));
            let policy = if rng.gen_bool(0.5) { "l1" } else { "staged" };
            fields.push(("policy", policy.into()));
            fields.push(("table_bits", rng.gen_range(0..=12u32).into()));
            fields.push(("history_bits", rng.gen_range(0..=13u32).into()));
            if let Ok(spec) = PredictorSpec::parse(&JsonValue::obj(fields)) {
                let _ = spec.build();
                built[k] += 1;
            }
        }
        for (kind, n) in kinds.iter().zip(built) {
            assert!(n > 0, "no `{kind}` spec validated");
        }
    }

    #[test]
    fn key_distinguishes_every_dimension() {
        let parse = |body: &[u8]| SweepRequest::parse(body, &base()).unwrap().canonical_key();
        let baseline = parse(br#"{"bench": "wc", "predictors": [{"kind": "sbtb"}]}"#);
        for variant in [
            br#"{"bench": "cmp", "predictors": [{"kind": "sbtb"}]}"#.as_slice(),
            br#"{"bench": "wc", "seed": 7, "predictors": [{"kind": "sbtb"}]}"#.as_slice(),
            br#"{"bench": "wc", "scale": "small", "predictors": [{"kind": "sbtb"}]}"#.as_slice(),
            br#"{"bench": "wc", "predictors": [{"kind": "sbtb", "entries": 128}]}"#.as_slice(),
            br#"{"bench": "wc", "predictors": [{"kind": "sbtb"}], "ras": [8]}"#.as_slice(),
        ] {
            assert_ne!(baseline, parse(variant));
        }
    }

    #[test]
    fn evaluate_is_deterministic_to_the_byte() {
        let body = br#"{"bench": "wc",
                        "predictors": [{"kind": "sbtb", "entries": 64},
                                       {"kind": "always_taken"}],
                        "ras": [4, 64]}"#;
        let req = SweepRequest::parse(body, &base()).unwrap();
        let a = evaluate(&req, &base()).unwrap();
        let b = evaluate(&req, &base()).unwrap();
        assert_eq!(a, b);
        let v = json::parse(&a).unwrap();
        assert_eq!(v.get("bench").and_then(JsonValue::as_str), Some("wc"));
        let preds = v.get("predictors").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(preds.len(), 2);
        assert!(preds[0].get("events").and_then(JsonValue::as_int).unwrap() > 0);
        assert_eq!(v.get("ras").and_then(JsonValue::as_arr).unwrap().len(), 2);
    }
}
