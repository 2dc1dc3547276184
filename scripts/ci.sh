#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, the persistence
# and wire-protocol corruption sweeps, a CLI metrics smoke test, byte
# pins on the smoke artifacts, an end-to-end serve + loadgen smoke test
# (admin telemetry endpoint, trace export, perf-trajectory files), an
# online-training hot-swap smoke test, and the observability overhead
# budget.
# Usage: scripts/ci.sh            (set LOOKHD_SOAK=1 for a 10k-conn soak)
set -eu
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test --workspace -q"
cargo test --workspace -q

echo "== persistence corruption sweep"
cargo test -q --test persist_corruption

echo "== wire protocol corruption sweep"
cargo test -q --test serve_corruption

echo "== encoder address packing + Eq. 3 oracle with rows from Eq. 2 (proptest)"
cargo test -q --test prop_encoder_parity

echo "== add_bound/sub_bound oracle (proptest: both signs into i32 lanes) + Eq. 3 oracle of the bit-count encode (carry-save group, count-plane and word-block boundaries; counts past 2^15)"
cargo test -q --test prop_hypervectors bind_accumulate_matches_definition
cargo test -q -p lookhd encode_matches_manual_equation_three

echo "== scoring-kernel differential suites + serve matrix"
cargo test -q -p lookhd score_lut
cargo test -q -p lookhd score_kernel
cargo test -q --test kernel_differential
cargo test -q --test serve_differential score_lut_kernel_serves_identically_to_dense_path

echo "== single-pass serving: margin telemetry rides the one scoring pass"
cargo test -q --test serve_single_pass

echo "== serve flow control: slow-model frame budget, trainer-queue overload, online drain"
cargo test -q --test serve_robustness

echo "== quantizer degenerate-input regressions"
cargo test -q -p hdc quantize
cargo test -q --test prop_quantize

echo "== counter training from level counts (bit-plane finalize, merges, validation) + per-address oracle (Fig. 10 counter-file emulation)"
cargo test -q -p lookhd trainer
cargo test -q -p lookhd-rtl training_datapath

echo "== CLI metrics smoke test"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
python3 - "$smoke_dir/train.csv" "$smoke_dir/queries.csv" << 'EOF'
import sys
rows = ["f0,f1,f2,label"]
for i in range(90):
    c = i % 3
    base = [0.2, 0.5, 0.8][c]
    j = (i % 9) * 0.005
    rows.append(f"{base + j:.4f},{base - j:.4f},{base + 2 * j:.4f},{c}")
open(sys.argv[1], "w").write("\n".join(rows) + "\n")
# Label-free query rows for `lookhd predict` / `loadgen --data`.
queries = ["f0,f1,f2"]
for i in range(40):
    t = i / 39.0
    queries.append(f"{t:.4f},{1 - t:.4f},{0.3 + t / 2:.4f}")
open(sys.argv[2], "w").write("\n".join(queries) + "\n")
EOF
cargo run --release -q -p lookhd-cli -- train \
    --data "$smoke_dir/train.csv" --out "$smoke_dir/model.lks" \
    --dim 512 --epochs 2 --kernel auto --metrics "$smoke_dir/metrics.json"
python3 - "$smoke_dir/metrics.json" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 3, doc
paths = [s["path"] for s in doc["spans"]]
for stage in ("encode", "counter_train", "compress", "predict", "score_lut"):
    assert any(stage in p for p in paths), f"missing stage {stage}: {paths}"
assert any(s["total_ns"] > 0 for s in doc["spans"]), "all durations zero"
counters = {c["name"] for c in doc["counters"]}
assert "counter_train.samples" in counters, counters
# The LUT kernel's generalized counter scheme must be live (the old
# score_lut.* aliases are gone after their one-release window).
assert "kernel.lut.queries" in counters, counters
assert "score_lut.queries" not in counters, counters
print(f"metrics OK: {len(paths)} spans, {len(counters)} counters")
EOF

echo "== smoke artifact byte pins"
# Training is deterministic, so both smoke models have fixed bytes: the
# default config (decorrelated, dense) and the --kernel auto artifact
# above, which is the same model with kernel tag 1 (the score-LUT, whose
# tables load rebuilds from the model) in place of tag 0, followed by
# an empty u32-length section. --metrics does not change them. A
# mismatch means training, compression or the LKS1/LKC1 format changed
# the model.
cargo run --release -q -p lookhd-cli -- train \
    --data "$smoke_dir/train.csv" --out "$smoke_dir/model_dense.lks" \
    --dim 512 --epochs 2
check_pin() {
    got="$(sha256sum "$1" | cut -d' ' -f1)"
    if [ "$got" != "$2" ]; then
        echo "smoke artifact pin mismatch ($3): sha256 $got, pinned $2"
        echo "If the change to the model is intended, update the pin in"
        echo "scripts/ci.sh and explain the numeric change in CHANGES.md."
        exit 1
    fi
}
check_pin "$smoke_dir/model.lks" \
    9947cad5db388890a68e9cc9179ca6d7d1e1680c6df1fc608401d4577b638398 \
    "train --dim 512 --epochs 2 --kernel auto"
check_pin "$smoke_dir/model_dense.lks" \
    b060fbad80e3b9c6260593752bd6f0d390fbdc848ece201cef44cef04f53a20a \
    "train --dim 512 --epochs 2"
# The two artifacts differ only in the kernel section: the LUT one is
# the dense one with its last byte (tag 0) set to 1, then 00 00 00 00.
python3 - "$smoke_dir/model.lks" "$smoke_dir/model_dense.lks" << 'EOF'
import sys
lut = open(sys.argv[1], "rb").read()
dense = open(sys.argv[2], "rb").read()
assert dense[-1] == 0, "dense artifacts end in kernel tag 0"
assert lut == dense[:-1] + bytes([1, 0, 0, 0, 0]), "LUT artifact is not the dense one with tag 1 and an empty section"
print(f"kernel section OK: {len(lut)} B LUT artifact = {len(dense)} B dense + 4")
EOF

echo "== kernel CLI smoke test"
# The --kernel auto artifact above carries the score-LUT ...
cargo run --release -q -p lookhd-cli -- info \
    --model "$smoke_dir/model.lks" > "$smoke_dir/info_lut.log"
grep -q "kernel: *lut" "$smoke_dir/info_lut.log"
# ... and rebuilds behind the exact dense reference on request.
cargo run --release -q -p lookhd-cli -- info \
    --model "$smoke_dir/model.lks" --kernel dense \
    > "$smoke_dir/info_dense.log"
grep -q "kernel: *dense" "$smoke_dir/info_dense.log"
# The deleted binary kernel is an unknown kind.
if cargo run --release -q -p lookhd-cli -- train \
    --data "$smoke_dir/train.csv" --out "$smoke_dir/model_bin.lks" \
    --kernel binary 2> "$smoke_dir/train_bin.err"; then
    echo "train --kernel binary unexpectedly succeeded"
    exit 1
fi
grep -q "expected auto, dense, or lut" "$smoke_dir/train_bin.err"
# A flag a subcommand does not read fails the command and is named:
# serve has no --threads (each reactor scores the requests it reads).
if timeout 60 cargo run --release -q -p lookhd-cli -- serve \
    --model "$smoke_dir/model.lks" --addr 127.0.0.1:0 --threads 2 \
    2> "$smoke_dir/serve_threads.err"; then
    echo "serve --threads unexpectedly succeeded"
    exit 1
fi
grep -q -- "--threads" "$smoke_dir/serve_threads.err"

echo "== serve + loadgen + live telemetry smoke test"
# Build both binaries up front so the startup poll below is not racing
# a compile.
cargo build --release -q -p lookhd-cli
cargo build --release -q -p lookhd-bench --bin loadgen
cargo run --release -q -p lookhd-cli -- serve \
    --model "$smoke_dir/model.lks" --addr 127.0.0.1:0 \
    --reactors 2 --max-conns 4096 \
    --metrics "$smoke_dir/serve_metrics.json" --metrics-interval 200 \
    --admin-addr 127.0.0.1:0 \
    > "$smoke_dir/serve.log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2> /dev/null || true; rm -rf "$smoke_dir"' EXIT
serve_addr=""
admin_addr=""
for _ in $(seq 1 100); do
    serve_addr="$(sed -n 's/^serving on \([0-9.:]*\) .*/\1/p' "$smoke_dir/serve.log")"
    admin_addr="$(sed -n 's/^admin on \([0-9.:]*\) .*/\1/p' "$smoke_dir/serve.log")"
    [ -n "$serve_addr" ] && [ -n "$admin_addr" ] && break
    sleep 0.1
done
if [ -z "$serve_addr" ] || [ -z "$admin_addr" ]; then
    echo "serve smoke: server did not start (serve='$serve_addr' admin='$admin_addr')"
    cat "$smoke_dir/serve.log"
    exit 1
fi
# Traced load with no --shutdown: the admin endpoint must stay up for
# the scrapes below (the trace checks assume exactly ids 1..=200).
cargo run --release -q -p lookhd-bench --bin loadgen -- \
    --addr "$serve_addr" --data "$smoke_dir/queries.csv" \
    --connections 4 --requests 50 --trace --admin "$admin_addr" \
    --out results/serve_loadgen.txt
grep -q "latency ms:" results/serve_loadgen.txt
grep -q "trace ids: propagated" results/serve_loadgen.txt
grep -q "server health (from /healthz): 200" results/serve_loadgen.txt
# Live scrapes: snapshot JSON, Prometheus text, and the Chrome
# trace-event export, each validated by an independent parser.
python3 - "$admin_addr" << 'EOF'
import json, urllib.request

def get(addr, path):
    with urllib.request.urlopen(f"http://{addr}{path}", timeout=10) as r:
        assert r.status == 200, (path, r.status)
        return r.read().decode()

import sys
addr = sys.argv[1]
assert get(addr, "/healthz").strip() == "ok"

doc = json.loads(get(addr, "/metrics.json"))
assert doc["version"] == 3, doc["version"]
# Schema-v3 window header: the rolling-window geometry is disclosed and
# every entry carries labels + windowed aggregates bounded by the
# cumulative totals (a torn read would violate the bound).
w = doc["window"]
assert w["short_secs"] < w["long_secs"] and w["slot_secs"] >= 1, w
for s in doc["spans"]:
    assert isinstance(s["labels"], dict), s
    assert isinstance(s["exemplars"], list), s
    for win in ("w10", "w60"):
        assert s[win]["count"] <= s["count"], (s["path"], win, s[win])
        assert s[win]["total_ns"] <= s["total_ns"], (s["path"], win)
for c in doc["counters"]:
    assert isinstance(c["labels"], dict), c
    assert c["w10"] <= c["value"] and c["w60"] <= c["value"], c
paths = {s["path"] for s in doc["spans"]}
for path in ("serve/request", "serve/decode", "serve/encode",
             "serve/margin"):
    assert path in paths, f"missing span {path}: {sorted(paths)}"
counters = {}
for c in doc["counters"]:  # fold label sets into per-name totals
    counters[c["name"]] = counters.get(c["name"], 0) + c["value"]
assert counters.get("serve.responses.ok") == 200, counters
# Per-class predictions are dimensional now: one serve.predicted entry
# per {class=N} label set, summing to the request count.
predicted_sets = [c for c in doc["counters"] if c["name"] == "serve.predicted"]
assert predicted_sets and all(c["labels"].get("class", "").isdigit()
                              for c in predicted_sets), predicted_sets
predicted = sum(c["value"] for c in predicted_sets)
assert predicted == 200, f"per-class prediction counters sum to {predicted}"
# The dimensional response counter carries kernel + model_version.
predictions = [c for c in doc["counters"] if c["name"] == "serve.predictions"]
assert sum(c["value"] for c in predictions) == 200, predictions
assert all(c["labels"].get("kernel") == "lut"
           and c["labels"].get("model_version") == "1"
           for c in predictions), predictions
# The server announces the artifact's active scoring kernel at startup
# (the smoke model was trained with --kernel auto, so the LUT is active).
assert counters.get("kernel.active.lut") == 1, counters
# One scoring pass per request: the margin telemetry reads the serving
# pass's scores instead of scoring every request a second time.
assert counters.get("kernel.lut.queries") == counters["serve.responses.ok"], counters

prom = get(addr, "/metrics")
assert "# TYPE lookhd_span_serve_request_ns histogram" in prom, prom[:400]
assert "lookhd_serve_responses_ok 200" in prom, prom[:400]
# Dimensional labels survive the Prometheus render.
assert 'lookhd_serve_predictions{kernel="lut",model_version="1"} 200' in prom, prom[:400]
assert 'reactor="' in prom, prom[:400]
# At least one OpenMetrics tail exemplar rides a histogram bucket line,
# and its trace id must resolve in the Chrome trace export below.
import re
exemplar_ids = set(re.findall(r'# \{trace_id="(0x[0-9a-f]+)"\}', prom))
assert exemplar_ids, "no OpenMetrics exemplars in /metrics"

# Chrome trace-event export: every traced request (trace ids 1..=200,
# one per loadgen request) must carry a balanced begin/end pair for
# each stage of decode → predict → encode, keyed by its client-chosen
# trace id.
trace = json.loads(get(addr, "/trace.json"))
events = trace["traceEvents"]
stages = ("decode", "predict", "encode")
seen = {}
for e in events:
    assert e["ph"] in ("b", "e"), e
    assert e["id"] != "0x0", e
    seen.setdefault((e["id"], e["name"]), []).append(e["ph"])
for tid in range(1, 201):
    for stage in stages:
        phases = seen.get((f"0x{tid:x}", stage))
        assert phases == ["b", "e"], f"trace 0x{tid:x} {stage}: {phases}"
# Every exported exemplar points at a real request: its trace id must
# resolve to trace events in the Chrome export.
trace_ids = {e["id"] for e in events}
unresolved = exemplar_ids - trace_ids
assert not unresolved, f"exemplar trace ids missing from /trace.json: {unresolved}"
print(f"admin telemetry OK: {len(paths)} spans, {len(events)} trace events, "
      f"{len(exemplar_ids)} exemplar trace ids resolved")
EOF
# The periodic flusher must have produced a parseable snapshot by now.
python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$smoke_dir/serve_metrics.json"
# High-concurrency smoke: a multiplexed connections sweep up to 1024
# concurrent pipelined connections against the 2-reactor server. Any
# in-deadline drop or id mismatch fails the run; this also starts the
# schema-v3 BENCH_serve.json reactors×connections record (the 1-reactor
# run below appends to it).
cargo run --release -q -p lookhd-bench --bin loadgen -- \
    --addr "$serve_addr" --data "$smoke_dir/queries.csv" \
    --curve 64,512,1024 --requests 10 --pipeline 4 --reactors 2 \
    --bench-out BENCH_serve.json --out results/serve_curve.txt
grep -q "connections 1024:" results/serve_curve.txt
grep -q "loadgen shares the host" results/serve_curve.txt
# Graceful shutdown via a second (untraced) loadgen connection.
cargo run --release -q -p lookhd-bench --bin loadgen -- \
    --addr "$serve_addr" --data "$smoke_dir/queries.csv" \
    --connections 1 --requests 1 \
    --out "$smoke_dir/shutdown_loadgen.txt" --shutdown
wait "$serve_pid" # graceful shutdown: drains, joins, writes metrics
python3 - "$smoke_dir/serve_metrics.json" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["version"] == 3, doc
paths = [s["path"] for s in doc["spans"]]
assert "serve/request" in paths, f"missing span serve/request: {paths}"
# 200 traced + 16000 from the connections curve + 1 shutdown probe.
# (The asserted counters are all unlabeled single-entry names, so a
# name-keyed dict stays exact.)
counters = {c["name"]: c["value"] for c in doc["counters"]}
assert counters.get("serve.responses.ok") == 16201, counters
assert counters.get("serve.requests") == 16201, counters
assert counters.get("serve.connections", 0) >= 1605, counters
# One SO_REUSEPORT listener per reactor.
assert counters.get("serve.accept_shards") == 2, counters
print(f"serve metrics OK: {counters['serve.requests']} requests")
EOF

echo "== single-reactor curve point (one accept shard)"
# A second server with --reactors 1: the N = 1 case of accept sharding,
# one reactor owning one SO_REUSEPORT listener. Its 512-connection point
# appends a second run entry to the schema-v3 BENCH_serve.json started
# above.
cargo run --release -q -p lookhd-cli -- serve \
    --model "$smoke_dir/model.lks" --addr 127.0.0.1:0 \
    --reactors 1 --max-conns 4096 \
    --metrics "$smoke_dir/serve1_metrics.json" --metrics-interval 200 \
    > "$smoke_dir/serve1.log" 2>&1 &
serve1_pid=$!
trap 'kill "$serve_pid" "$serve1_pid" 2> /dev/null || true; rm -rf "$smoke_dir"' EXIT
serve1_addr=""
for _ in $(seq 1 100); do
    serve1_addr="$(sed -n 's/^serving on \([0-9.:]*\) .*/\1/p' "$smoke_dir/serve1.log")"
    [ -n "$serve1_addr" ] && break
    sleep 0.1
done
if [ -z "$serve1_addr" ]; then
    echo "single-reactor smoke: server did not start"
    cat "$smoke_dir/serve1.log"
    exit 1
fi
cargo run --release -q -p lookhd-bench --bin loadgen -- \
    --addr "$serve1_addr" --data "$smoke_dir/queries.csv" \
    --curve 512 --requests 10 --pipeline 4 --reactors 1 \
    --bench-out BENCH_serve.json --bench-append \
    --out results/serve_curve_r1.txt
cargo run --release -q -p lookhd-bench --bin loadgen -- \
    --addr "$serve1_addr" --data "$smoke_dir/queries.csv" \
    --connections 1 --requests 1 \
    --out "$smoke_dir/serve1_shutdown.txt" --shutdown
wait "$serve1_pid"
python3 - "$smoke_dir/serve1_metrics.json" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
# 5120 from the 512-connection point + 1 shutdown probe: exact.
counters = {c["name"]: c["value"] for c in doc["counters"]}
assert counters.get("serve.responses.ok") == 5121, counters
assert counters.get("serve.requests") == 5121, counters
assert counters.get("serve.accept_shards") == 1, counters
print("single-reactor serve metrics OK: 5121 requests")
EOF
python3 - << 'EOF'
import json
# The serve record is a schema-v3 reactors × connections matrix from
# the multiplexed loadgen; every point must be drop-free and complete
# (exact request counts), and the host block must disclose that loadgen
# shared the machine with the server.
doc = json.load(open("BENCH_serve.json"))
assert doc["schema_version"] == 3, doc
assert doc["host"]["cores"] >= 1, doc
assert doc["host"]["loadgen_shares_host"] is True, doc["host"]
assert doc["workload"]["pipeline"] >= 1, doc["workload"]
req = doc["workload"]["requests_per_connection"]
runs = doc["runs"]
assert [r["reactors"] for r in runs] == [2, 1], runs
curves = {r["reactors"]: r["curve"] for r in runs}
assert [p["connections"] for p in curves[2]] == [64, 512, 1024], curves[2]
assert [p["connections"] for p in curves[1]] == [512], curves[1]
for r in runs:
    for p in r["curve"]:
        want = p["connections"] * req
        assert p["ok"] == want and p["errors"] == 0 and p["dropped"] == 0, p
        assert p["id_mismatches"] == 0, p
        assert p["throughput_rps"] > 0, p
        lat = p["latency_ns"]
        assert 0 < lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"], lat
doc = json.load(open("BENCH_score_lut.json"))
assert doc["schema_version"] == 1, doc
assert doc["host"]["cores"] >= 1, doc
# The score-LUT record is a per-kernel matrix: dense/lut medians for
# single predicts rotating over distinct queries, the same query
# re-scored (the labelled warm arms), and batch-64 predicts.
assert doc["kernels"] == ["dense", "lut"], doc["kernels"]
assert doc["workload"]["distinct_queries"] >= 512, doc["workload"]
for kernel in doc["kernels"]:
    for op in (f"{kernel}_predict_1_ns", f"{kernel}_predict_1_warm_ns",
               f"{kernel}_predict_batch_64_ns"):
        assert doc["results"][op]["p50"] > 0, (op, doc["results"].get(op))
# The decorrelated (default) model behind the score-LUT, on the same
# distinct queries.
op = "lut_whitened_predict_1_ns"
assert doc["results"][op]["p50"] > 0, (op, doc["results"].get(op))
print("perf trajectory files OK")
EOF

echo "== online training + hot-swap smoke test"
# A separate serve instance with online training enabled; the previous
# instance's exact counter assertions stay undisturbed.
cargo run --release -q -p lookhd-cli -- serve \
    --model "$smoke_dir/model.lks" --addr 127.0.0.1:0 \
    --online --admin-addr 127.0.0.1:0 \
    > "$smoke_dir/online.log" 2>&1 &
online_pid=$!
trap 'kill "$serve_pid" "$online_pid" 2> /dev/null || true; rm -rf "$smoke_dir"' EXIT
online_addr=""
online_admin=""
for _ in $(seq 1 100); do
    online_addr="$(sed -n 's/^serving on \([0-9.:]*\) .*/\1/p' "$smoke_dir/online.log")"
    online_admin="$(sed -n 's/^admin on \([0-9.:]*\) .*/\1/p' "$smoke_dir/online.log")"
    [ -n "$online_addr" ] && [ -n "$online_admin" ] && break
    sleep 0.1
done
if [ -z "$online_addr" ] || [ -z "$online_admin" ]; then
    echo "online smoke: server did not start"
    cat "$smoke_dir/online.log"
    exit 1
fi
grep -q "online training on" "$smoke_dir/online.log"
# Feed the labelled training rows back as feedback frames over a single
# connection (deterministic issue order: row (0 + seq) % 90), then
# trigger a model refresh. 270 requests = each of the 90 rows 3×, so
# each of the 3 classes is observed exactly 90 times.
cargo run --release -q -p lookhd-bench --bin loadgen -- \
    --addr "$online_addr" --data "$smoke_dir/train.csv" \
    --feedback --refresh --connections 1 --requests 270 \
    --out results/serve_feedback.txt
grep -q "model refresh: acknowledged, now serving version 2" results/serve_feedback.txt
# The admin endpoint must show the swap landed and every fold counted:
# model.version advanced to 2 and train.observed.* match the fed label
# histogram exactly.
python3 - "$online_admin" << 'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
with urllib.request.urlopen(f"http://{addr}/metrics.json", timeout=10) as r:
    doc = json.loads(r.read().decode())
counters = {c["name"]: c["value"] for c in doc["counters"]}
assert counters.get("model.version") == 2, counters
assert counters.get("train.feedback") == 270, counters
for c in range(3):
    got = counters.get(f"train.observed.{c}")
    assert got == 90, f"train.observed.{c} = {got}, want 90"
assert counters.get("serve.model_swaps") == 1, counters
assert counters.get("serve.model_swaps.auto", 0) == 0, counters
spans = {s["path"] for s in doc["spans"]}
for name in ("serve_feedback", "serve_model_swap", "online_materialize"):
    assert any(name in p for p in spans), f"missing span {name}: {sorted(spans)}"
print(f"online telemetry OK: {counters['train.feedback']} folds, "
      f"now at model version {counters['model.version']}")
EOF
# Graceful shutdown of the online instance (drains the trainer thread).
cargo run --release -q -p lookhd-bench --bin loadgen -- \
    --addr "$online_addr" --data "$smoke_dir/queries.csv" \
    --connections 1 --requests 1 \
    --out "$smoke_dir/online_shutdown.txt" --shutdown
wait "$online_pid"

if [ "${LOOKHD_SOAK:-0}" = "1" ]; then
    echo "== 10k-connection soak (LOOKHD_SOAK=1)"
    # Each process (server, loadgen) holds its own ~10k sockets, so the
    # inherited per-process fd limit must clear 10k with headroom.
    nofile="$(ulimit -n)"
    if [ "$nofile" != "unlimited" ] && [ "$nofile" -lt 12288 ]; then
        echo "soak: ulimit -n is $nofile; need >= 12288 (run 'ulimit -n 12288' first)"
        exit 1
    fi
    cargo run --release -q -p lookhd-cli -- serve \
        --model "$smoke_dir/model.lks" --addr 127.0.0.1:0 \
        --reactors 2 --max-conns 20000 \
        > "$smoke_dir/soak.log" 2>&1 &
    soak_pid=$!
    trap 'kill "$serve_pid" "$serve1_pid" "$soak_pid" 2> /dev/null || true; rm -rf "$smoke_dir"' EXIT
    soak_addr=""
    for _ in $(seq 1 100); do
        soak_addr="$(sed -n 's/^serving on \([0-9.:]*\) .*/\1/p' "$smoke_dir/soak.log")"
        [ -n "$soak_addr" ] && break
        sleep 0.1
    done
    if [ -z "$soak_addr" ]; then
        echo "soak: server did not start"
        cat "$smoke_dir/soak.log"
        exit 1
    fi
    # 10k concurrent pipelined connections, zero drops or mismatches
    # allowed (loadgen exits nonzero on either).
    cargo run --release -q -p lookhd-bench --bin loadgen -- \
        --addr "$soak_addr" --data "$smoke_dir/queries.csv" \
        --connections 10000 --requests 5 --pipeline 2 \
        --deadline-ms 60000 --reactors 2 \
        --out results/serve_soak_10k.txt
    grep -q "connections 10000:" results/serve_soak_10k.txt
    cargo run --release -q -p lookhd-bench --bin loadgen -- \
        --addr "$soak_addr" --data "$smoke_dir/queries.csv" \
        --connections 1 --requests 1 \
        --out "$smoke_dir/soak_shutdown.txt" --shutdown
    wait "$soak_pid"
fi

echo "== observability overhead budget (< 5%, single-thread + 8-thread contention)"
# Writes the schema-versioned BENCH_obs.json (committed at the repo
# root): both gate arms plus the single-mutex vs sharded contention
# comparison; exits nonzero if either gate blows the budget.
cargo run --release -q -p lookhd-bench --bin obs_overhead_check
python3 - << 'EOF'
import json
doc = json.load(open("BENCH_obs.json"))
assert doc["schema_version"] == 1, doc
assert doc["host"]["cores"] >= 1 and doc["host"]["co_located"] is True, doc["host"]
for gate in ("single_thread", "multi_thread_8"):
    g = doc["gates"][gate]
    assert g["passed"] is True, (gate, g)
    assert g["disabled_median_ns"] > 0 and g["enabled_median_ns"] > 0, (gate, g)
c = doc["contention"]
assert c["threads"] == 8 and c["ops_per_thread"] >= 1, c
assert c["single_mutex"]["wall_ns"] > 0 and c["sharded"]["wall_ns"] > 0, c
print(f"BENCH_obs.json OK: sharded registry {c['speedup']:.1f}x the "
      f"single-mutex baseline under 8-thread contention")
EOF

echo "CI OK"
