#!/usr/bin/env python3
"""Non-test Rust lines per crate, and their change against a base commit.

  net_lines.py [--base <rev>]

A non-test line is any line of a tracked `.rs` file outside a `tests/`
directory, up to the file's trailing `#[cfg(test)]` module. Benches and
examples count; so does perfbench. Every line counts, blank and comment
lines included, so the number moves only when a file does.

Without `--base` it prints each crate's count and the total. With
`--base <rev>` it counts `<rev>`'s files too (read through `git show`, so
the working tree is never touched), prints every file whose count
changed, then each crate's count at the base, now and the delta, and the
net total. It only reports: the exit status is 0 whenever git answers.
"""

import argparse
import re
import subprocess
import sys

# A test module at the top level of a file: `#[cfg(test)]` in column 0
# followed by a `mod` item.
TEST_MOD = re.compile(
    r"^#\[cfg\(test\)\]\s*\n(?:#.*\n|\s*\n)*(?:pub(?:\([^)]*\))? )?mod \w+", re.M
)


def git(*args):
    return subprocess.run(
        ["git", *args], check=True, capture_output=True, text=True
    ).stdout


def counted(path):
    """Whether `path` holds non-test Rust code."""
    return path.endswith(".rs") and "tests" not in path.split("/")[:-1]


def crate_of(path):
    """The crate a path belongs to: its top two components under
    `crates/`, else its top directory (`perfbench`), else the root
    package (`src/`, `examples/`, `build.rs`)."""
    parts = path.split("/")
    if parts[0] == "crates" and len(parts) > 2:
        return "crates/" + parts[1]
    if parts[0] == "perfbench":
        return "perfbench"
    return "pulse (root)"


def non_test_lines(text):
    """Lines before the file's trailing top-level test module, or every
    line when it has none."""
    matches = list(TEST_MOD.finditer(text))
    if matches:
        text = text[: matches[-1].start()]
    return text.count("\n") + (0 if text.endswith("\n") or not text else 1)


def count_worktree():
    files = git("ls-files", "--cached", "--others", "--exclude-standard").split("\n")
    out = {}
    for path in files:
        if counted(path):
            try:
                with open(path, encoding="utf-8") as f:
                    out[path] = non_test_lines(f.read())
            except FileNotFoundError:  # deleted but not yet staged
                pass
    return out


def count_rev(rev):
    files = git("ls-tree", "-r", "--name-only", rev).split("\n")
    return {
        path: non_test_lines(git("show", f"{rev}:{path}"))
        for path in files
        if counted(path)
    }


def per_crate(counts):
    out = {}
    for path, n in counts.items():
        out[crate_of(path)] = out.get(crate_of(path), 0) + n
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", help="commit to compare the working tree against")
    args = ap.parse_args()
    now = count_worktree()
    if args.base is None:
        crates = per_crate(now)
        for crate in sorted(crates):
            print(f"{crate:<22} {crates[crate]:>7}")
        print(f"{'total':<22} {sum(crates.values()):>7}")
        return 0
    base = count_rev(args.base)
    print(f"per file (base {args.base} -> working tree):")
    for path in sorted(set(base) | set(now)):
        b, n = base.get(path, 0), now.get(path, 0)
        if b != n:
            print(f"  {n - b:>+7}  {path}  ({b} -> {n})")
    cb, cn = per_crate(base), per_crate(now)
    print(f"{'crate':<22} {'base':>7} {'now':>7} {'delta':>7}")
    for crate in sorted(set(cb) | set(cn)):
        b, n = cb.get(crate, 0), cn.get(crate, 0)
        print(f"{crate:<22} {b:>7} {n:>7} {n - b:>+7}")
    tb, tn = sum(cb.values()), sum(cn.values())
    print(f"{'total':<22} {tb:>7} {tn:>7} {tn - tb:>+7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
