#!/usr/bin/env python3
"""Counts the lines of each Rust file that come before its test module,
per file and per directory: the non-test size that ROADMAP.md and
CHANGES.md quote, so a size claim can be reproduced.

    tools/loc.py                          # every crates/*/src, one total per crate
    tools/loc.py crates/baselines/src     # the given directories, one line per file

The test module starts at a `#[cfg(test)]` in column 0 whose next line
declares a `mod`; an indented `#[cfg(test)]` inside other code does not
end the count. Every line counts, comments and blank lines included. A
file without a test module counts whole. Run it from the repository
root, or pass paths that resolve from where it runs.
"""
import glob
import os
import re
import sys

TEST_MOD = re.compile(r"(pub(\([^)]*\))? )?mod ")


def non_test_lines(path):
    """Lines of `path` before its `#[cfg(test)]` module."""
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()
    for i, (line, next_line) in enumerate(zip(lines, lines[1:])):
        if line.rstrip() == "#[cfg(test)]" and TEST_MOD.match(next_line):
            return i
    return len(lines)


def rust_files(root):
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        found.extend(os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".rs"))
    return found


def main():
    paths = sys.argv[1:]
    if any(p.startswith("-") for p in paths):
        sys.exit(__doc__)
    roots = paths or sorted(glob.glob("crates/*/src"))
    if not roots:
        sys.exit("no directories to count (run from the repository root or pass paths)")
    total = 0
    for root in roots:
        if not os.path.isdir(root):
            sys.exit(f"not a directory: {root}")
        subtotal = 0
        for path in rust_files(root):
            lines = non_test_lines(path)
            subtotal += lines
            if paths:
                print(f"{lines:7d}  {path}")
        print(f"{subtotal:7d}  {root}{'  (total)' if paths else ''}")
        total += subtotal
    if len(roots) > 1:
        print(f"{total:7d}  all")


if __name__ == "__main__":
    main()
