#!/usr/bin/env bash
# Offline CI gate: format, lint, build, test, and a telemetry smoke run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo test --doc (runnable examples in the API docs)"
cargo test --workspace --doc -q

# perfbench is a package of its own, outside the workspace: without this
# stage a change to the public API it calls would break the benchmark
# unnoticed.
echo "==> perfbench tests"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> telemetry smoke: report --scale test --telemetry-out"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo run --release -p branchlab-bench --bin report -- --scale test --telemetry-out "$out" >/dev/null

for f in manifest.json metrics.jsonl metrics.prom; do
    [[ -s "$out/$f" ]] || { echo "missing telemetry artifact: $f" >&2; exit 1; }
done

python3 - "$out/manifest.json" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert m["tool"] == "report", m["tool"]
assert m["git_describe"], "empty git_describe"
cfg = m["config"]
assert cfg["scale"] == "test" and cfg["seed"] == 1989, cfg
assert len(m["benchmarks"]) == 12, len(m["benchmarks"])
phases = {"compile", "profile", "lower", "fs_build", "natural_eval", "fs_eval", "expansion"}
for b in m["benchmarks"]:
    got = {p["name"] for p in b["phases"]}
    assert phases <= got, (b["name"], phases - got)
    sbtb = b["predictors"]["sbtb"]
    assert sbtb["stats"]["events"] > 0, b["name"]
    assert sbtb["sites"]["sites"] > 0, (b["name"], "site telemetry missing")
print(f"manifest OK: {len(m['benchmarks'])} benchmarks, git {m['git_describe']}")
EOF

echo "==> fault smoke: report with injection killing wc must degrade, not die"
fault_out="$(mktemp -d)"
trap 'rm -rf "$out" "$fault_out"' EXIT
set +e
cargo run --release -p branchlab-bench --bin report -- \
    --scale test --fault-exec-rate 1.0 --fault-benches wc --max-attempts 2 \
    --telemetry-out "$fault_out" >"$fault_out/stdout.txt" 2>"$fault_out/stderr.txt"
status=$?
set -e
[[ $status -eq 1 ]] || {
    echo "fault smoke: expected exit code 1 (partial results), got $status" >&2
    cat "$fault_out/stderr.txt" >&2
    exit 1
}
grep -q "FAILED(transient" "$fault_out/stdout.txt" \
    || { echo "fault smoke: tables missing FAILED annotation" >&2; exit 1; }

python3 - "$fault_out/manifest.json" "$fault_out/metrics.jsonl" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
assert len(m["benchmarks"]) == 11, len(m["benchmarks"])
sup = m["supervisor"]
assert sup["benches_failed"] == 1 and sup["benches_completed"] == 11, sup
failures = m["failures"]
assert len(failures) == 1 and failures[0]["bench"] == "wc", failures
assert failures[0]["class"] == "transient" and failures[0]["attempts"] == 2, failures
metrics = {}
for line in open(sys.argv[2]):
    rec = json.loads(line)
    metrics[rec["name"]] = rec.get("value")
assert metrics.get("suite.benches_failed") == 1, metrics.get("suite.benches_failed")
assert metrics.get("suite.benches_completed") == 11, metrics.get("suite.benches_completed")
assert metrics.get("suite.retries") == 1, metrics.get("suite.retries")
print("fault smoke OK: 11/12 benchmarks survived certain injection on wc")
EOF

echo "==> replay smoke: capture -> replay -> compare stats (replay_bench --scale test)"
replay_out="$(mktemp -d)"
trap 'rm -rf "$out" "$fault_out" "$replay_out"' EXIT
cargo run --release -p branchlab-bench --bin replay_bench -- \
    --scale test --trace-cache "$replay_out/trace-cache" \
    --out "$replay_out/BENCH_replay.json" \
    --sweep-out "$replay_out/BENCH_sweep_parallel.json" \
    --lanes-out "$replay_out/BENCH_lanes.json" \
    --trace-out "$replay_out/replay.trace.json" 2>"$replay_out/stderr.txt" \
    || { echo "replay smoke failed" >&2; cat "$replay_out/stderr.txt" >&2; exit 1; }

# Second run must hit the on-disk trace cache instead of re-capturing.
cargo run --release -p branchlab-bench --bin replay_bench -- \
    --scale test --trace-cache "$replay_out/trace-cache" \
    --out "$replay_out/BENCH_replay2.json" \
    --sweep-out "$replay_out/BENCH_sweep_parallel2.json" \
    --lanes-out "$replay_out/BENCH_lanes2.json" 2>>"$replay_out/stderr.txt" \
    || { echo "replay smoke (cached) failed" >&2; cat "$replay_out/stderr.txt" >&2; exit 1; }

python3 - "$replay_out/BENCH_replay.json" "$replay_out/BENCH_replay2.json" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
assert cold["tool"] == "replay_bench", cold["tool"]
assert cold["stats_match"] is True, "replayed tables differ from re-interpreted tables"
assert cold["trace"]["captures"] >= 1, cold["trace"]
assert cold["trace"]["events_replayed"] > 0, cold["trace"]
for b in cold["benches"]:
    assert b["stats_match"] is True, b["name"]
assert warm["stats_match"] is True
assert warm["trace"]["disk_hits"] >= 1, ("no disk-cache hit on warm run", warm["trace"])
# Every benchmark must load: a rejected entry would re-capture silently.
assert warm["trace"]["disk_invalid"] == 0, ("warm run rejected a cache entry", warm["trace"])
assert warm["trace"]["captures"] == 0, ("warm run re-captured a trace", warm["trace"])
phases = {p["name"] for p in cold["phases"]}
assert {"trace_capture", "trace_replay"} <= phases, phases
print(f"replay smoke OK: {cold['trace']['events_replayed']} events replayed, "
      f"tables identical, warm run served from disk cache")
EOF

echo "==> replay trace-export smoke: --trace-out emits valid Chrome trace JSON"
python3 - "$replay_out/replay.trace.json" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
events = t["traceEvents"]
assert events, "empty traceEvents"
names = set()
for e in events:
    assert e["ph"] in {"X", "M"}, e
    assert "pid" in e and "name" in e, e
    if e["ph"] == "X":
        assert e["ts"] >= 0 and e["dur"] >= 0, e
        names.add(e["name"])
assert {"trace_replay", "sweep_score"} <= names, names
print(f"replay trace-export OK: {len(events)} events, phases {sorted(names)}")
EOF

echo "==> parallel-sweep smoke: serial vs parallel tables + counters"
python3 - "$replay_out/BENCH_sweep_parallel.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["tool"] == "replay_bench/sweep_parallel", s["tool"]
assert s["tables_match"] is True, "parallel sweep tables diverged from serial"
for b in s["benches"]:
    assert b["tables_match"] is True, b["name"]
sweep = s["sweep"]
assert sweep["sweeps"] >= len(s["benches"]), sweep
assert sweep["points"] > 0 and sweep["batches"] >= sweep["sweeps"], sweep
assert sweep["workers"] >= 2 * sweep["sweeps"], ("parallel passes under-provisioned", sweep)
phases = {p["name"] for p in s["phases"]}
assert {"sweep_score", "sweep_merge"} <= phases, phases
# The speedup gate only means something with real cores under the
# workers; single-core runners still verify structure and fidelity.
if s["available_parallelism"] >= 4:
    assert s["speedup"] >= 1.2, (s["speedup"], s["available_parallelism"])
    verdict = f"{s['speedup']:.1f}x on {s['available_parallelism']} cores"
else:
    verdict = (f"{s['speedup']:.1f}x (only {s['available_parallelism']} core(s); "
               "speedup gate skipped)")
print(f"parallel-sweep smoke OK: {sweep['points']} points, "
      f"{sweep['batches']} batches, {verdict}")
EOF

echo "==> lane smoke: bit-parallel vs scalar sweep stats + counters"
python3 - "$replay_out/BENCH_lanes.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["tool"] == "replay_bench/lanes", s["tool"]
assert s["configs"] >= 16, ("counter family too small for the lane gate", s["configs"])
assert s["stats_match"] is True, "lane-packed stats diverged from scalar replay"
for b in s["benches"]:
    assert b["stats_match"] is True, b["name"]
    assert b["events"] > 0, b["name"]
    assert b["lanes"]["families"] >= 1, (b["name"], b["lanes"])
    assert b["lanes"]["lanes"] == s["configs"], (b["name"], b["lanes"])
lanes = s["lanes"]
assert lanes["passes"] >= len(s["benches"]), lanes
assert lanes["events"] > 0, lanes
# Timing gate only on real multi-core runners (PR-4 precedent);
# single-core boxes still verify structure and bit-fidelity.
if s["available_parallelism"] >= 4:
    assert s["speedup"] >= 1.2, (s["speedup"], s["available_parallelism"])
    verdict = f"{s['speedup']:.1f}x over scalar"
else:
    verdict = (f"{s['speedup']:.1f}x (only {s['available_parallelism']} core(s); "
               "speedup gate skipped)")
print(f"lane smoke OK: {s['configs']} configs packed into {lanes['families']} "
      f"family item(s), {lanes['events']} lane-events, {verdict}")
EOF

echo "==> serve smoke: branchlabd boot -> probe -> load -> graceful SIGTERM"
serve_out="$(mktemp -d)"
trap 'rm -rf "$out" "$fault_out" "$replay_out" "$serve_out"' EXIT
./target/release/branchlabd \
    --listen 127.0.0.1:0 --addr-file "$serve_out/addr" \
    --scale test --workers 2 --warm wc,cmp,grep \
    --recorder 64 --slow-ms 0 --slow-log "$serve_out/slow.jsonl" \
    --trace-out "$serve_out/server.trace.json" \
    2>"$serve_out/branchlabd.log" &
serve_pid=$!

for _ in $(seq 1 200); do
    [[ -s "$serve_out/addr" ]] && break
    kill -0 "$serve_pid" 2>/dev/null || {
        echo "serve smoke: branchlabd died during startup" >&2
        cat "$serve_out/branchlabd.log" >&2
        exit 1
    }
    sleep 0.05
done
[[ -s "$serve_out/addr" ]] || { echo "serve smoke: no addr file" >&2; exit 1; }
serve_addr="$(cat "$serve_out/addr")"

# Probe (healthz, readyz poll, benchmark list, metrics) with the
# std-only client, then a load run against the same daemon.
./target/release/serve_bench --url "$serve_addr" --probe \
    || { echo "serve smoke: probe failed" >&2; cat "$serve_out/branchlabd.log" >&2; exit 1; }
./target/release/serve_bench --url "$serve_addr" \
    --connections 4 --requests 120 --distinct 12 \
    --out "$serve_out/BENCH_serve.json" \
    || { echo "serve smoke: load run failed" >&2; cat "$serve_out/branchlabd.log" >&2; exit 1; }

python3 - "$serve_out/BENCH_serve.json" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["tool"] == "serve_bench", s["tool"]
assert s["errors"] == 0, s["errors"]
assert s["ok"] == s["requests"] == 120, (s["ok"], s["requests"])
lat = s["latency_us"]
assert 0 < lat["p50"] <= lat["p99"] <= lat["max"], lat
# Latency-percentile gate (carried ROADMAP item): on a real multi-core
# runner the test-scale p99 must stay under 250ms — cold computes
# overlap across workers, so anything slower is a serialization or
# hang regression. Single-core runners only verify the ordering above.
if s["available_parallelism"] >= 4:
    assert lat["p99"] <= 250_000, ("serve_bench p99 regression", lat)
src = s["sources"]
assert src["computed"] + src["cache"] + src["coalesced"] == s["ok"], src
# 120 requests over 12 distinct bodies: most must be absorbed without
# a replay pass (cache or coalesce).
assert src["cache"] + src["coalesced"] >= s["ok"] // 2, src
ctr = s["server_counters"]
assert ctr["server_sweeps_computed"] <= s["requests"], ctr
assert ctr["server_ready"] == 1, ctr
print(f"serve load OK: {s['throughput_rps']:.0f} req/s, "
      f"p50 {lat['p50']}us p99 {lat['p99']}us, "
      f"{src['cache']} cached / {src['coalesced']} coalesced / "
      f"{src['computed']} computed")
EOF

# Trace smoke: pin a sweep to a known trace id, then fetch its span
# tree from the flight recorder and check the latency decomposition.
python3 - "$serve_addr" <<'EOF'
import http.client, json, sys
conn = http.client.HTTPConnection(sys.argv[1], timeout=120)
body = json.dumps({"bench": "wc",
                   "predictors": [{"kind": "gshare", "table_bits": 10},
                                  {"kind": "sbtb", "entries": 128}],
                   "ras": [2, 16], "seed": 424242})
conn.request("POST", "/v1/sweep", body,
             {"Content-Type": "application/json",
              "X-Branchlab-Trace-Id": "c1feedface"})
resp = conn.getresponse()
resp.read()
assert resp.status == 200, resp.status
echoed = resp.getheader("X-Branchlab-Trace-Id")
assert echoed == "000000c1feedface", echoed

conn.request("GET", f"/debug/traces/{echoed}", headers={})
resp = conn.getresponse()
trace = json.loads(resp.read())
assert resp.status == 200, trace
assert trace["label"] == "POST /v1/sweep", trace["label"]
names = {s["name"] for s in trace["spans"]}
required = {"request", "parse", "cache_lookup", "admission"}
assert required <= names, (sorted(names), required - names)
# Fresh seed -> computed path: the worker-side spans must be present.
assert "compute" in names and "render" in names, sorted(names)
assert "queue_wait" in names, sorted(names)
root = next(s for s in trace["spans"] if s["name"] == "request")
assert root["parent"] is None and root["status"] == 200, root
for s in trace["spans"]:
    assert s["start_us"] + s["dur_us"] <= trace["total_us"], s

conn.request("GET", "/debug/slow", headers={})
resp = conn.getresponse()
slow = json.loads(resp.read())
assert resp.status == 200 and slow["traces"], slow

conn.request("GET", "/metrics", headers={})
resp = conn.getresponse()
metrics = resp.read().decode()
assert "server_queue_wait_us" in metrics, "queue-wait histogram missing"
assert "server_slow_requests" in metrics, "slow counter missing"
conn.close()
print(f"trace smoke OK: trace {echoed} decomposed into {sorted(names)}")
EOF

# mlbtb smoke: a multi-level BTB sweep over a generated
# large-footprint workload must compute end to end — hierarchy specs
# parse and canonicalize, the synthetic benchmark resolves, and the
# sweep lands in the daemon registry's suite.sweep.* counters.
python3 - "$serve_addr" <<'EOF'
import http.client, json, sys
conn = http.client.HTTPConnection(sys.argv[1], timeout=120)
body = json.dumps({"bench": "dispatch", "seed": 31337,
                   "predictors": [{"kind": "mlbtb"},
                                  {"kind": "mlbtb", "policy": "staged",
                                   "l1_entries": 32, "l1_ways": 4,
                                   "l2_entries": 1024, "l2_ways": 8,
                                   "l2_latency": 3},
                                  {"kind": "cbtb", "entries": 64, "ways": 4}]})
conn.request("POST", "/v1/sweep", body, {"Content-Type": "application/json"})
resp = conn.getresponse()
r = json.loads(resp.read())
assert resp.status == 200, (resp.status, r)
assert r["bench"] == "dispatch" and r["program_hash"], r
preds = r["predictors"]
assert [p["kind"] for p in preds] == ["mlbtb", "mlbtb", "cbtb"], preds
for p in preds:
    assert p["events"] > 0 and 0.0 < p["accuracy"] <= 1.0, p
    assert p["btb_lookups"] > 0, p
assert preds[0]["config"]["policy"] == "l1", preds[0]["config"]
assert preds[1]["config"]["policy"] == "staged", preds[1]["config"]

conn.request("GET", "/metrics", headers={})
metrics = {}
for line in conn.getresponse().read().decode().splitlines():
    if line and not line.startswith("#"):
        name, _, value = line.partition(" ")
        try:
            metrics[name] = float(value)
        except ValueError:
            pass
conn.close()
sweep_counters = {k: v for k, v in metrics.items() if k.startswith("suite_sweep_")}
assert sweep_counters, "no suite_sweep_* counters in /metrics"
# mlbtb points are lane-ineligible (lane_spec is None), so the planner
# must degrade them to scalar points — the lane pass still runs.
assert metrics.get("suite_sweep_lane_passes", 0) > 0, sweep_counters
assert metrics.get("suite_sweep_lane_scalar_points", 0) >= 3, sweep_counters
print(f"mlbtb smoke OK: 3-point hierarchy sweep on dispatch "
      f"({preds[0]['events']:.0f} events/point), "
      f"{metrics['suite_sweep_lane_scalar_points']:.0f} scalar sweep points counted")
EOF

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
serve_status=$?
set -e
[[ $serve_status -eq 0 ]] || {
    echo "serve smoke: branchlabd exit code $serve_status after SIGTERM" >&2
    cat "$serve_out/branchlabd.log" >&2
    exit 1
}
echo "serve smoke OK: graceful shutdown, exit 0"

# --trace-out writes the flight recorder at shutdown; --slow-ms 0
# means every request landed in the slow log. Validate both.
python3 - "$serve_out/server.trace.json" "$serve_out/slow.jsonl" <<'EOF'
import json, sys
t = json.load(open(sys.argv[1]))
events = t["traceEvents"]
spans = [e for e in events if e["ph"] == "X"]
assert spans, "no spans exported"
for e in spans:
    assert e["ts"] >= 0 and e["dur"] >= 0 and e["name"], e
names = {e["name"] for e in spans}
assert {"request", "compute", "render"} <= names, sorted(names)
slow_lines = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
assert slow_lines, "slow log empty despite --slow-ms 0"
for rec in slow_lines:
    assert rec["trace_id"] and rec["total_us"] >= 0 and "spans" in rec, rec
assert any(rec["label"] == "POST /v1/sweep" for rec in slow_lines), \
    "no sweep in the slow log"
print(f"server trace-export OK: {len(spans)} spans over "
      f"{len({e['pid'] for e in spans})} requests, "
      f"{len(slow_lines)} slow-log lines")
EOF

echo "==> chaos smoke: every fault lane armed, responses byte-identical to a clean daemon"
chaos_out="$(mktemp -d)"
trap 'rm -rf "$out" "$fault_out" "$replay_out" "$serve_out" "$chaos_out"' EXIT

# A clean daemon provides the reference bytes; a second daemon serves
# the same requests with deterministic fault injection on every lane.
./target/release/branchlabd \
    --listen 127.0.0.1:0 --addr-file "$chaos_out/clean.addr" \
    --scale test --workers 2 --warm wc \
    2>"$chaos_out/clean.log" &
clean_pid=$!
./target/release/branchlabd \
    --listen 127.0.0.1:0 --addr-file "$chaos_out/chaos.addr" \
    --scale test --workers 2 --warm wc \
    --spill-dir "$chaos_out/spill" --spill-every 1 \
    --chaos-seed 1989 --chaos-panic-rate 0.4 \
    --chaos-delay-rate 1.0 --chaos-delay-ms 2 \
    --chaos-cache-corrupt-rate 1.0 --chaos-spill-fail-rate 1.0 \
    2>"$chaos_out/chaos.log" &
chaos_pid=$!

for _ in $(seq 1 200); do
    [[ -s "$chaos_out/clean.addr" && -s "$chaos_out/chaos.addr" ]] && break
    sleep 0.05
done
[[ -s "$chaos_out/clean.addr" && -s "$chaos_out/chaos.addr" ]] \
    || { echo "chaos smoke: daemons never wrote addr files" >&2; exit 1; }

python3 - "$(cat "$chaos_out/clean.addr")" "$(cat "$chaos_out/chaos.addr")" <<'EOF'
import http.client, json, sys, time

def wait_ready(addr):
    deadline = time.time() + 60
    while time.time() < deadline:
        try:
            conn = http.client.HTTPConnection(addr, timeout=10)
            conn.request("GET", "/readyz")
            resp = conn.getresponse()
            resp.read()
            conn.close()
            if resp.status == 200:
                return
        except OSError:
            pass
        time.sleep(0.05)
    raise SystemExit(f"{addr} never became ready")

def sweep(addr, body, retries=0):
    """POST a sweep; with retries, ride out injected 5xx until a 200."""
    last = None
    for attempt in range(retries + 1):
        conn = http.client.HTTPConnection(addr, timeout=120)
        try:
            conn.request("POST", "/v1/sweep", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
            last = (resp.status, data)
        except OSError as e:
            last = (None, str(e).encode())
        finally:
            conn.close()
        if last[0] == 200:
            return last[1]
        time.sleep(0.05 * (attempt + 1))
    raise SystemExit(f"sweep on {addr} never returned 200: {last}")

def metrics(addr):
    conn = http.client.HTTPConnection(addr, timeout=10)
    conn.request("GET", "/metrics")
    text = conn.getresponse().read().decode()
    conn.close()
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.partition(" ")
            try:
                out[name] = float(value)
            except ValueError:
                pass
    return out

clean, chaos = sys.argv[1], sys.argv[2]
wait_ready(clean)
wait_ready(chaos)

bodies = [json.dumps({"bench": "wc", "seed": seed,
                      "predictors": [{"kind": "sbtb", "entries": 16 << (seed % 5)},
                                     {"kind": "btfn"}],
                      "ras": [4]})
          for seed in range(10)]
# Two passes: the second hits the (chaos-corrupted) cache, which must
# be detected and recomputed — never served damaged.
for rnd in range(2):
    for body in bodies:
        reference = sweep(clean, body)
        served = sweep(chaos, body, retries=40)
        assert served == reference, \
            f"round {rnd}: chaos daemon diverged from clean bytes for {body}"

m = metrics(chaos)
assert m.get("server_worker_restarts", 0) >= 1, \
    ("panic lane never fired", m.get("server_worker_restarts"))
assert m.get("server_cache_corrupt", 0) >= 1, \
    ("cache-corruption lane never fired", m.get("server_cache_corrupt"))
assert m.get("server_spill_errors", 0) >= 1, \
    ("spill-failure lane never fired", m.get("server_spill_errors"))
print(f"chaos smoke OK: 20 requests byte-identical under faults, "
      f"{m['server_worker_restarts']:.0f} worker restart(s), "
      f"{m['server_cache_corrupt']:.0f} corrupt read(s) absorbed")
EOF

# Both daemons must still drain cleanly on SIGTERM — chaos included.
kill -TERM "$clean_pid" "$chaos_pid"
set +e
wait "$clean_pid"; clean_status=$?
wait "$chaos_pid"; chaos_status=$?
set -e
[[ $clean_status -eq 0 && $chaos_status -eq 0 ]] || {
    echo "chaos smoke: exit codes clean=$clean_status chaos=$chaos_status" >&2
    cat "$chaos_out/chaos.log" >&2
    exit 1
}
echo "chaos smoke OK: both daemons drained, exit 0"

echo "==> warm-restart smoke: kill -9, restart on the same spill dir, served from cache"
./target/release/branchlabd \
    --listen 127.0.0.1:0 --addr-file "$chaos_out/life1.addr" \
    --scale test --workers 2 --warm wc \
    --spill-dir "$chaos_out/spill9" --spill-every 1 \
    2>"$chaos_out/life1.log" &
life1_pid=$!

warm_body='{"bench": "wc", "predictors": [{"kind": "cbtb"}, {"kind": "gshare", "table_bits": 10}], "ras": [8]}'

for _ in $(seq 1 200); do
    [[ -s "$chaos_out/life1.addr" ]] && break
    sleep 0.05
done
python3 - "$(cat "$chaos_out/life1.addr")" "$chaos_out/first.body" "$warm_body" <<'EOF'
import http.client, sys, time

addr, body_out, body = sys.argv[1], sys.argv[2], sys.argv[3]
deadline = time.time() + 60
while time.time() < deadline:
    try:
        conn = http.client.HTTPConnection(addr, timeout=10)
        conn.request("GET", "/readyz")
        resp = conn.getresponse()
        resp.read()
        conn.close()
        if resp.status == 200:
            break
    except OSError:
        pass
    time.sleep(0.05)
else:
    raise SystemExit("first life never became ready")

conn = http.client.HTTPConnection(addr, timeout=120)
conn.request("POST", "/v1/sweep", body, {"Content-Type": "application/json"})
resp = conn.getresponse()
data = resp.read()
assert resp.status == 200, (resp.status, data)
assert resp.getheader("X-Branchlab-Source") == "computed", \
    resp.getheader("X-Branchlab-Source")
open(body_out, "wb").write(data)

# Wait for a periodic spill to publish the entry, so kill -9 can't
# outrun durability.
deadline = time.time() + 60
while time.time() < deadline:
    conn.request("GET", "/metrics")
    metrics = conn.getresponse().read().decode()
    for line in metrics.splitlines():
        if line.startswith("server_spill_entries ") and float(line.split()[1]) >= 1:
            conn.close()
            print("warm-restart smoke: entry spilled, killing first life")
            raise SystemExit(0)
    time.sleep(0.1)
raise SystemExit("periodic spill never captured the cache entry")
EOF

kill -9 "$life1_pid"
set +e
wait "$life1_pid"
set -e

./target/release/branchlabd \
    --listen 127.0.0.1:0 --addr-file "$chaos_out/life2.addr" \
    --scale test --workers 2 --warm wc \
    --spill-dir "$chaos_out/spill9" --spill-every 1 \
    2>"$chaos_out/life2.log" &
life2_pid=$!

for _ in $(seq 1 200); do
    [[ -s "$chaos_out/life2.addr" ]] && break
    sleep 0.05
done
python3 - "$(cat "$chaos_out/life2.addr")" "$chaos_out/first.body" "$warm_body" <<'EOF'
import http.client, sys, time

addr, body_ref, body = sys.argv[1], sys.argv[2], sys.argv[3]
deadline = time.time() + 60
readyz = None
while time.time() < deadline:
    try:
        conn = http.client.HTTPConnection(addr, timeout=10)
        conn.request("GET", "/readyz")
        resp = conn.getresponse()
        readyz = (resp.status, resp.read().decode())
        conn.close()
        if readyz[0] == 200:
            break
    except OSError:
        pass
    time.sleep(0.05)
else:
    raise SystemExit("second life never became ready")
assert readyz == (200, "warm\n"), \
    f"restart after kill -9 must report warm, got {readyz}"

conn = http.client.HTTPConnection(addr, timeout=120)
conn.request("POST", "/v1/sweep", body, {"Content-Type": "application/json"})
resp = conn.getresponse()
data = resp.read()
assert resp.status == 200, (resp.status, data)
source = resp.getheader("X-Branchlab-Source")
assert source == "cache", \
    f"pre-crash request must be served from the spilled cache, got {source}"
assert data == open(body_ref, "rb").read(), \
    "restored bytes diverged from the pre-crash response"
conn.close()
print("warm-restart smoke OK: readyz warm, pre-crash sweep served from spilled cache")
EOF

kill -TERM "$life2_pid"
set +e
wait "$life2_pid"
life2_status=$?
set -e
[[ $life2_status -eq 0 ]] || {
    echo "warm-restart smoke: second life exit code $life2_status" >&2
    cat "$chaos_out/life2.log" >&2
    exit 1
}

cp "$serve_out/BENCH_serve.json" BENCH_serve.test.json

# Keep the perf-trajectory artifacts where future PRs can diff them.
cp "$replay_out/BENCH_replay.json" BENCH_replay.test.json
cp "$replay_out/BENCH_sweep_parallel.json" BENCH_sweep_parallel.test.json
cp "$replay_out/BENCH_lanes.json" BENCH_lanes.test.json
echo "==> replay artifacts: BENCH_replay.test.json, BENCH_sweep_parallel.test.json, BENCH_lanes.test.json, BENCH_serve.test.json"

echo "==> ci green"
