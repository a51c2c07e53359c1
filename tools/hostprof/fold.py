#!/usr/bin/env python3
"""Folds a hostprof.<pid>.out into `root;...;leaf count` lines, inlined frames
included: the format of BENCH_cpu_folded.txt, ready for any flamegraph tool.

    fold.py hostprof.1234.out                            # folded stacks, heaviest first
    fold.py hostprof.1234.out --top 15                   # top 15 frames by inclusive share
    fold.py hostprof.1234.out --self 15                  # top 15 workspace frames by self share
    fold.py hostprof.1234.out --exclude calibration_s    # drop samples with a matching frame

`--exclude PATTERN` (a regular expression, searched in each frame name; may
be repeated) drops every sample whose stack holds a matching frame before
anything is counted, so shares are of what is left; how many went is
printed to stderr. `--self N` charges each sample to the nearest frame of
this workspace (a function of a `spider*` crate) at or above its leaf, so
hashing or allocating inside the standard library counts for the code that
asked for it.
"""
import argparse
import collections
import os
import re
import subprocess
import sys

# A function of one of this workspace's crates (`spider`, `spider_irmc`, ...,
# `spider_benchmark`), also as the self type of a trait impl.
WORKSPACE_FRAME = re.compile(r"^<?spider\w*::")


def stacks_of(path):
    """Each sample's frames, root first, inlined frames included."""
    text, _, maps = open(path).read().partition("--maps--\n")
    samples = [[int(a, 16) for a in line.split()] for line in text.splitlines() if line.strip()]
    # Executable mappings: (start, end, file). A file's load base is the start
    # of its first mapping (position-independent code: ELF address = pc - base).
    segments, base = [], {}
    for line in maps.splitlines():
        f = line.split()
        if len(f) < 6 or not f[5].startswith("/"):
            continue
        start, end = (int(x, 16) for x in f[0].split("-"))
        base.setdefault(f[5], start)
        if "x" in f[1]:
            segments.append((start, end, f[5]))
    exe = next(iter(base))  # the kernel lists the program's own mapping first

    def locate(pc):
        return next(((file, pc - base[file]) for s, e, file in segments if s <= pc < e), (None, pc))

    # Frames 0 and 1 are the handler and the signal trampoline; frame 2 is the
    # interrupted pc; the rest are return addresses (step back into the call).
    located = [[locate(pc - (i > 0)) for i, pc in enumerate(s[2:])] for s in samples]
    wanted = sorted({addr for s in located for file, addr in s if file == exe})
    names = {}
    if wanted:
        out = subprocess.run(
            ["addr2line", "-a", "-i", "-f", "-C", "-e", exe] + [hex(a) for a in wanted],
            capture_output=True, text=True, check=True).stdout.splitlines()
        for line in out:  # per address: its line, then (function, file:line) per inlined frame
            if line.startswith("0x"):
                frames, is_function = names.setdefault(int(line, 16), []), True
            else:
                if is_function:
                    frames.append(line.replace(";", ":"))
                is_function = not is_function
    stacks = []
    for s in located:
        frames = []
        for file, addr in s:  # leaf first; addr2line lists the innermost inlined frame first
            frames += names.get(addr) or ["[%s]" % os.path.basename(file or "?")]
        stacks.append(frames[::-1])
    return stacks


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("path")
    p.add_argument("--top", type=int, metavar="N", help="top N frames by inclusive share")
    p.add_argument("--self", type=int, metavar="N", dest="self_n",
                   help="top N workspace frames by self share")
    p.add_argument("--exclude", action="append", default=[], metavar="PATTERN",
                   help="drop samples with a frame matching PATTERN (repeatable)")
    args = p.parse_args()

    stacks = stacks_of(args.path)
    if args.exclude:
        patterns = [re.compile(x) for x in args.exclude]
        kept = [s for s in stacks if not any(p.search(f) for p in patterns for f in s)]
        print("excluded %d of %d samples (%s)" % (len(stacks) - len(kept), len(stacks),
                                                   ", ".join(args.exclude)), file=sys.stderr)
        stacks = kept
    total = len(stacks) or 1

    if args.top:
        # Inclusive share per frame, below the frames every sample shares
        # (the runtime's start-up and the program's own main path).
        shared = len(os.path.commonprefix(stacks)) if stacks else 0
        inclusive = collections.Counter()
        for frames in stacks:
            for name in set(frames[shared:]):
                inclusive[name] += 1
        for name, n in inclusive.most_common(args.top):
            print("%5.1f%%  %s" % (100.0 * n / total, name))
    elif args.self_n:
        owner = collections.Counter()
        for frames in stacks:
            mine = [f for f in frames if WORKSPACE_FRAME.match(f)]
            owner[mine[-1] if mine else "(no workspace frame)"] += 1
        for name, n in owner.most_common(args.self_n):
            print("%5.1f%%  %s" % (100.0 * n / total, name))
    else:
        folded = collections.Counter(";".join(frames) for frames in stacks)
        for stack, n in folded.most_common():
            print(stack, n)


if __name__ == "__main__":
    main()
