#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload static_tr|stream_small|serve_mixed \
        --seed N --seconds S --trace 0|1

Builds `perfbench` (and the `tipdecomp` server it drives) with
`cargo build --release` into $CARGO_TARGET_DIR (default `.bench_build`),
then runs it with the same arguments plus provenance: the git commit when
there is one, a digest of the sources, and the rustc version. Cargo's
output goes to stderr; the last line on stdout is the JSON result. Exits
non-zero, printing no result, if the build fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Everything the benchmark binary is built from.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x != "target")
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def command_output(argv):
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # Only a repository rooted here names this checkout's commit.
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    in_repo = top is not None and os.path.realpath(top) == os.path.realpath(ROOT)
    commit = (in_repo and command_output(["git", "rev-parse", "HEAD"])) or "no-git"
    rustc = command_output(["rustc", "--version"]) or "unknown"
    exe = os.path.join(target, "release", "perfbench")
    argv = [exe] + sys.argv[1:] + [
        "--commit", "%s src-%s" % (commit, source_digest()),
        "--rustc", rustc,
    ]
    return subprocess.run(argv, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
