#!/usr/bin/env python3
"""Folds a hostprof.<pid>.out into `root;...;leaf count` lines, inlined frames
included: the format of BENCH_cpu_folded.txt, ready for any flamegraph tool.

    fold.py hostprof.1234.out            # folded stacks, heaviest first
    fold.py hostprof.1234.out --top 15   # top 15 frames by inclusive share
"""
import collections
import os
import subprocess
import sys


def main(path, top=None):
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
    stacks = [[locate(pc - (i > 0)) for i, pc in enumerate(s[2:])] for s in samples]
    wanted = sorted({addr for s in stacks for file, addr in s if file == exe})
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
    folded = collections.Counter()
    for s in stacks:
        frames = []
        for file, addr in s:  # leaf first; addr2line lists the innermost inlined frame first
            frames += names.get(addr) or ["[%s]" % os.path.basename(file or "?")]
        folded[";".join(reversed(frames))] += 1
    if top:
        # Inclusive share per frame, below the frames every sample shares
        # (the runtime's start-up and the program's own main path).
        split = [stack.split(";") for stack in folded]
        shared = len(os.path.commonprefix(split))
        inclusive = collections.Counter()
        for frames, n in zip(split, folded.values()):
            for name in set(frames[shared:]):
                inclusive[name] += n
        for name, n in inclusive.most_common(top):
            print("%5.1f%%  %s" % (100.0 * n / len(stacks), name))
    else:
        for stack, n in folded.most_common():
            print(stack, n)


if __name__ == "__main__":
    args = sys.argv[1:]
    main(args[0], int(args[args.index("--top") + 1]) if "--top" in args else None)
