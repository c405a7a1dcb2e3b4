#!/usr/bin/env python3
"""Per-curve diff of two sweep documents.

  diff_sweep.py OLD NEW [--moved LABEL,LABEL,...]

OLD and NEW are sweep documents as latency_sweep writes them
({"sweep": [{"label": ..., "points": [...]}, ...]}). For every curve
label in either document it prints one line: `unchanged`, `moved` with
the first point that differs (its offered load and the fields that
changed, old -> new), `added` or `removed`.

Without --moved it exits 0 whatever it finds: it is a diagnostic. With
--moved it exits 1 when a curve outside the list moved (or was added or
removed), or when a listed curve did not move, so a change can state
exactly which curves it means to move.
"""

import json
import sys


def curves(path):
    with open(path) as f:
        doc = json.load(f)
    return {c["label"]: c["points"] for c in doc["sweep"]}


def first_difference(old, new):
    """The first differing point as (offered_kops, {field: (old, new)}),
    or None when the two point lists are equal."""
    for i in range(max(len(old), len(new))):
        a = old[i] if i < len(old) else {}
        b = new[i] if i < len(new) else {}
        if a == b:
            continue
        fields = {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)}
        return (b or a).get("offered_kops"), fields
    return None


def main(argv):
    args = argv[1:]
    moved_expected = None
    if "--moved" in args:
        i = args.index("--moved")
        if i + 1 >= len(args):
            print("--moved needs a comma-separated list of labels", file=sys.stderr)
            return 2
        moved_expected = {label for label in args[i + 1].split(",") if label}
        del args[i : i + 2]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = curves(args[0]), curves(args[1])
    changed = set()
    for label in list(old) + [label for label in new if label not in old]:
        if label not in new:
            print(f"{label}: removed")
            changed.add(label)
        elif label not in old:
            print(f"{label}: added")
            changed.add(label)
        else:
            diff = first_difference(old[label], new[label])
            if diff is None:
                print(f"{label}: unchanged")
                continue
            changed.add(label)
            offered, fields = diff
            shown = ", ".join(f"{k} {a} -> {b}" for k, (a, b) in fields.items())
            print(f"{label}: moved; first at {offered} kops offered: {shown}")
    if moved_expected is None:
        return 0
    status = 0
    for label in sorted(changed - moved_expected):
        print(f"error: {label} moved but is not listed in --moved")
        status = 1
    for label in sorted(moved_expected - changed):
        print(f"error: {label} is listed in --moved but did not move")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
