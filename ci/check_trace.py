#!/usr/bin/env python3
"""CI gate for the pulse-trace exporter.

Validates the two artifacts the traced ladder rung emits:

  check_trace.py <chrome_trace.json> <traced_sweep.json>

* the Chrome trace-event document is valid JSON of the shape Perfetto
  loads (`{"traceEvents": [...]}`),
* every named track (CPU nodes, memory nodes, links) carries at least one
  event, and at least one track of each kind exists; a link track is a
  directed fabric link named `a->b` (e.g. `cpu0->sw0`),
* at least one link carries counter ("C") samples with sane utilization
  and queue depth,
* span conservation: each request's spans tile its end-to-end latency
  (sum of durations == last end - first start) within 0.1%,
* cross-artifact: the sweep document's per-phase means sum to the mean
  end-to-end latency derived independently from the trace, within 0.1%.
"""

import json
import re
import sys
from collections import defaultdict

# A directed fabric link between two vertices: hosts and switches.
LINK_NAME = re.compile(r"^(cpu|mem|sw)\d+->(cpu|mem|sw)\d+$")

# Floating tolerance: timestamps are microseconds printed at 6 decimals
# (picosecond resolution), so allow 1e-3 us absolute or 0.1% relative.
def close(a, b):
    return abs(a - b) <= max(1e-3, 0.001 * max(abs(a), abs(b)))


def main(trace_path, sweep_path):
    events = json.load(open(trace_path))["traceEvents"]
    assert events, "empty traceEvents"

    names = {}
    for e in events:
        if e.get("ph") == "M" and e.get("name") == "thread_name":
            names[e["tid"]] = e["args"]["name"]
    assert any(n.startswith("cpu") for n in names.values()), "no CPU track"
    assert any(n.startswith("mem") for n in names.values()), "no memory-node track"
    link_names = [n for n in names.values() if LINK_NAME.match(n)]
    assert link_names, "no link track"

    per_name = defaultdict(int)
    spans = []
    counters = []
    for e in events:
        if e.get("ph") == "X":
            per_name[names[e["tid"]]] += 1
            if e.get("cat") == "span":
                spans.append(e)
        elif e.get("ph") == "C":
            per_name[e["name"]] += 1
            counters.append(e)
    for name in names.values():
        assert per_name[name] > 0, f"track {name!r} carries no events"

    assert counters, "no link counter samples"
    for c in counters:
        u, q = c["args"]["utilization"], c["args"]["queue_depth"]
        assert 0.0 <= u <= 1.0, f"utilization {u} out of range"
        assert q >= 0 and q == int(q), f"bad queue depth {q}"

    per_req = defaultdict(list)
    for s in spans:
        per_req[s["args"]["req"]].append((s["ts"], s["dur"]))
    assert per_req, "no request spans"
    total_us = 0.0
    for req, ws in per_req.items():
        ws.sort()
        summed = sum(d for _, d in ws)
        e2e = (ws[-1][0] + ws[-1][1]) - ws[0][0]
        assert close(summed, e2e), \
            f"request {req}: span durations sum to {summed} us but " \
            f"end-to-end is {e2e} us (gap or overlap)"
        total_us += summed

    phase = json.load(open(sweep_path))["sweep"][0]["points"][0]["phase"]
    assert phase["count"] == len(per_req), \
        f"attribution covers {phase['count']} requests, trace has {len(per_req)}"
    mean_sum = sum(v for k, v in phase.items() if k.endswith("_mean_us"))
    e2e_mean = total_us / len(per_req)
    assert close(mean_sum, e2e_mean), \
        f"phase means sum to {mean_sum} us but mean end-to-end latency " \
        f"from the trace is {e2e_mean} us"

    print(
        f"trace gate: {len(names)} tracks ({len(link_names)} links), "
        f"{len(spans)} spans over {len(per_req)} requests, "
        f"{len(counters)} counter samples; conservation holds "
        f"(phase means {mean_sum:.3f} us == end-to-end mean {e2e_mean:.3f} us)"
    )


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
