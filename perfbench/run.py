#!/usr/bin/env python3
"""Build and run the APT simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <stream-single|stream-backlog|closed-grid>
                             [--seed N] [--seconds S] [--trace 0|1]

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
path-depends on the simulator crates under crates/. This script builds it
in release mode into $CARGO_TARGET_DIR (default: .bench_build), runs one
workload and relays the binary's output. The last line of standard output
is the result object {correct, attempted, failed, metrics}; a `build` line
before it records the toolchain and the source tree that was measured.
Results from different builds are not comparable.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ("stream-single", "stream-backlog", "closed-grid")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
# What the source digest covers: everything the benchmark binary is built from.
SOURCE_PATHS = ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench")
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def run(cmd, timeout, **kwargs):
    """Run `cmd` in its own process group; on timeout kill the whole group
    and wait for it, so no compiler or benchmark process outlives us."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def source_digest():
    h = hashlib.sha256()
    for top in SOURCE_PATHS:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            rel = f.relative_to(ROOT)
            if SKIP_DIRS.intersection(rel.parts) or not f.is_file():
                continue
            h.update(str(rel).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build_info():
    info = {"rustc": "unknown", "git_commit": None, "source_sha256": source_digest()}
    try:
        code, out = run(["rustc", "--version"], 30, stdout=subprocess.PIPE, text=True)
        if code == 0:
            info["rustc"] = out.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    if (ROOT / ".git").exists():
        try:
            code, out = run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if code == 0:
                info["git_commit"] = out.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return info


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "crates" / "stream" / "Cargo.toml").is_file():
        print("run.py: the simulator crates are missing; run from a full checkout",
              file=sys.stderr)
        return 2

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    code, _ = run(["cargo", "build", "--release", "--offline", "--locked", "--quiet",
                   "--manifest-path", str(BENCH / "Cargo.toml")],
                  BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"run.py: build failed ({code})", file=sys.stderr)
        return 1

    cmd = [str(target / "release" / "apt-perfbench"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        print(f"run.py: benchmark exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("run.py: malformed result line", file=sys.stderr)
        return 1
    print("\n".join(lines[:-1]))
    print("build " + json.dumps(build_info()))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
