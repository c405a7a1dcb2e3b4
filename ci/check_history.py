#!/usr/bin/env python3
"""CI gate for the simulator-speed trajectory.

  check_history.py [bench/history.jsonl] [BENCHMARK.json]

`bench/history.jsonl` holds one JSON object per line, one line per
change that moved the simulator's speed:

  {"commit": "0460253",            # the measured commit; "<parent>+" for a
                                   # change measured before it was committed
   "change": "...",                # one line on what the measured code does
   "machine": {"nproc": 2, "cpu": "Intel(R) Xeon(R) Processor"},
   "seed": 42, "seconds": 15,      # perfbench --seed / --seconds
   "trace_seconds": 5,             # --seconds of the --trace 1 run
   "sim_ops_per_s": {"<workload>": <median over the runs>, ...},
   "core": {"<workload>": {"events_per_req": ..., "ns_per_event": ...}, ...},
   "isa": {"<workload>": {"ns_per_iter": ...}, ...},   # optional
   "frontend": {"<workload>": {"cache_probe_ns": ...}, ...},   # optional
   "setup_s": {"<workload>": <median over the runs>, ...},      # optional
   "peak_rss_mb": {"<workload>": <median over the runs>, ...},  # optional
   "physics": "..."}               # optional: the change that moved the
                                   # simulated rack's behaviour

`sim_ops_per_s`, `setup_s` and `peak_rss_mb` come from `--trace 0`
runs; `core`, `isa` and `frontend` come from one `--trace 1` run. The
check fails unless every line parses, carries the required fields, names
every workload that BENCHMARK.json declares in both `sim_ops_per_s` and
`core`, and every number is positive. The `isa` map (perfbench's
`isa.ns_per_iter`), the `frontend` map (`frontend.cache_probe_ns`) and
the `setup_s` and `peak_rss_mb` maps are optional, since lines written
before them lack them; a line that carries one must name every workload
too, each with a positive value.

`core.events_per_req` is a simulated quantity: a change that only speeds
up the simulator leaves it exactly as it was. So the check also fails
when a line's `events_per_req` for any workload differs from that of the
latest earlier line with the same `seed`, unless the later line carries
a non-empty `physics` string naming the change that moved it.
"""

import json
import sys


def positive(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0


def check_line(n, line, workloads):
    where = f"line {n}"
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as e:
        raise AssertionError(f"{where}: not JSON ({e})")
    assert isinstance(rec, dict), f"{where}: not an object"
    for key in ("commit", "change"):
        assert isinstance(rec.get(key), str) and rec[key], f"{where}: missing '{key}'"
    machine = rec.get("machine")
    assert isinstance(machine, dict), f"{where}: missing 'machine'"
    assert positive(machine.get("nproc")), f"{where}: machine.nproc must be positive"
    assert isinstance(machine.get("cpu"), str) and machine["cpu"], f"{where}: missing machine.cpu"
    for key in ("seed", "seconds", "trace_seconds"):
        assert positive(rec.get(key)), f"{where}: '{key}' must be positive"
    speed = rec.get("sim_ops_per_s")
    core = rec.get("core")
    assert isinstance(speed, dict), f"{where}: missing 'sim_ops_per_s'"
    assert isinstance(core, dict), f"{where}: missing 'core'"
    for w in workloads:
        assert positive(speed.get(w)), f"{where}: sim_ops_per_s[{w!r}] missing or not positive"
        layer = core.get(w)
        assert isinstance(layer, dict), f"{where}: core[{w!r}] missing"
        for key in ("events_per_req", "ns_per_event"):
            assert positive(layer.get(key)), f"{where}: core[{w!r}].{key} missing or not positive"
    for layer_name, metric in (("isa", "ns_per_iter"), ("frontend", "cache_probe_ns")):
        if layer_name not in rec:
            continue
        layers = rec[layer_name]
        assert isinstance(layers, dict), f"{where}: '{layer_name}' is not an object"
        for w in workloads:
            layer = layers.get(w)
            assert isinstance(layer, dict), f"{where}: {layer_name}[{w!r}] missing"
            assert positive(
                layer.get(metric)
            ), f"{where}: {layer_name}[{w!r}].{metric} missing or not positive"
    for name in ("setup_s", "peak_rss_mb"):
        if name not in rec:
            continue
        values = rec[name]
        assert isinstance(values, dict), f"{where}: '{name}' is not an object"
        for w in workloads:
            assert positive(values.get(w)), f"{where}: {name}[{w!r}] missing or not positive"
    if "physics" in rec:
        assert (
            isinstance(rec["physics"], str) and rec["physics"]
        ), f"{where}: 'physics' must be a non-empty string"
    return rec


def check_sim_unchanged(n, rec, prev, prev_n, workloads):
    """`rec` (line `n`) keeps `prev`'s (line `prev_n`) events per request
    on every workload unless it names the physics change that moved them."""
    if rec.get("physics"):
        return
    for w in workloads:
        before = prev["core"][w]["events_per_req"]
        after = rec["core"][w]["events_per_req"]
        assert after == before, (
            f"line {n}: core[{w!r}].events_per_req is {after}, line {prev_n} "
            f"(same seed) has {before}; a change that moves the simulation "
            f"must say so in 'physics'"
        )


def main(history_path, manifest_path):
    workloads = [w["name"] for w in json.load(open(manifest_path))["workloads"]]
    assert workloads, f"{manifest_path} declares no workloads"
    lines = [l for l in open(history_path).read().splitlines() if l.strip()]
    assert lines, f"{history_path} is empty"
    latest_by_seed = {}
    for n, line in enumerate(lines, 1):
        rec = check_line(n, line, workloads)
        if rec["seed"] in latest_by_seed:
            prev_n, prev = latest_by_seed[rec["seed"]]
            check_sim_unchanged(n, rec, prev, prev_n, workloads)
        latest_by_seed[rec["seed"]] = (n, rec)
    print(f"{history_path}: {len(lines)} lines cover all {len(workloads)} workloads")


if __name__ == "__main__":
    args = sys.argv[1:]
    try:
        main(
            args[0] if len(args) > 0 else "bench/history.jsonl",
            args[1] if len(args) > 1 else "BENCHMARK.json",
        )
    except AssertionError as e:
        sys.exit(f"history check failed: {e}")
