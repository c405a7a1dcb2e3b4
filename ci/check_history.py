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
   "isa": {"<workload>": {"ns_per_iter": ...}, ...}}   # optional

`sim_ops_per_s` comes from `--trace 0` runs; `core` and `isa` come from
one `--trace 1` run. The check fails unless every line parses, carries
the required fields, names every workload that BENCHMARK.json declares
in both `sim_ops_per_s` and `core`, and every number is positive. The
`isa` map (perfbench's `isa.ns_per_iter`) is optional, since lines
written before it existed lack it; a line that carries one must name
every workload too, each with a positive `ns_per_iter`.
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
    if "isa" in rec:
        isa = rec["isa"]
        assert isinstance(isa, dict), f"{where}: 'isa' is not an object"
        for w in workloads:
            layer = isa.get(w)
            assert isinstance(layer, dict), f"{where}: isa[{w!r}] missing"
            assert positive(
                layer.get("ns_per_iter")
            ), f"{where}: isa[{w!r}].ns_per_iter missing or not positive"


def main(history_path, manifest_path):
    workloads = [w["name"] for w in json.load(open(manifest_path))["workloads"]]
    assert workloads, f"{manifest_path} declares no workloads"
    lines = [l for l in open(history_path).read().splitlines() if l.strip()]
    assert lines, f"{history_path} is empty"
    for n, line in enumerate(lines, 1):
        check_line(n, line, workloads)
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
