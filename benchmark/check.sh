#!/usr/bin/env bash
# Build the benchmark offline, run its unit tests, smoke every workload with
# 2-s phases (end-to-end and traced), and check that the workload list and
# every emitted metric name and unit match ../BENCHMARK.json.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
cargo test --release --offline --quiet
bin="${CARGO_TARGET_DIR:-target}/release/wiera-benchmark"

"$bin" --spec | diff - ../BENCHMARK.json

mkdir -p out
"$bin" --smoke --trace 0 | tee out/smoke_end_to_end.txt
"$bin" --smoke --trace 1 | tee out/smoke_per_layer.txt

python3 - <<'PY'
import json

spec = json.load(open("../BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
for key in ("end_to_end", "per_layer"):
    want = {m["name"]: m["unit"] for m in spec[key]}
    lines = open(f"out/smoke_{key}.txt").read().splitlines()
    results = [json.loads(line) for line in lines if line.startswith("{")]
    named = [line.split()[0] for line in lines if not line.startswith("{")]
    assert list(dict.fromkeys(named)) == workloads, f"{key}: ran {named}"
    assert len(results) == len(workloads), f"{key}: {len(results)} result lines"
    for name, result in zip(workloads, results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
        got = {metric: v["unit"] for metric, v in result["metrics"].items()}
        assert got == want, f"{name} {key}: {set(got) ^ set(want)}"
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1, name
    for name in workloads:
        assert key == "end_to_end" or open(f"out/trace_{name}.json").read(1) == "{"
print("check.sh: names, units and workloads match BENCHMARK.json")
PY
