#!/usr/bin/env python3
"""Benchmark entry point: build the measuring binary, run one workload,
check its outputs, stamp the result and print the result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; with --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones. The full stamped record (seed, threads, nproc, sample
counts, source-tree digest, checks, spans) goes to perfbench/out/.

A run is correct only if every check the binary made passed and the
digest of its default-seed run equals the one pinned in
perfbench/meta.json. A failed check prints CORRECTNESS FAILURE on stderr,
reports correct: false and exits with code 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
# whole run, build included, must end well inside 180 s
DEADLINE_S = 170.0
THREADS = "1"
# source roots whose content the tree digest covers
TREE_ROOTS = ["Cargo.toml", "Cargo.lock", "BENCHMARK.json", "src", "crates", "perfbench"]
# build outputs and results inside those roots
SKIP_DIRS = {"target", "perfbench/out", "perfbench/target", "__pycache__"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def tree_digest():
    """SHA-256 over the path and content of every file under TREE_ROOTS."""
    h = hashlib.sha256()
    files = []
    for root in TREE_ROOTS:
        path = os.path.join(ROOT, root)
        if os.path.isfile(path):
            files.append(root)
        for dirpath, dirnames, filenames in os.walk(path):
            rel = os.path.relpath(dirpath, ROOT)
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in SKIP_DIRS and os.path.join(rel, d) not in SKIP_DIRS)
            for f in filenames:
                files.append(os.path.relpath(os.path.join(dirpath, f), ROOT))
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest(), len(files)


def git_stamp():
    """HEAD and a dirty flag when the tree is a git checkout, else None."""
    def git(*args):
        r = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    try:
        if git("rev-parse", "--is-inside-work-tree") != "true":
            return None
        rev = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--", *TREE_ROOTS)
    except OSError:
        return None
    return {"head": rev, "dirty": bool(status)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    start = time.monotonic()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        with open(os.path.join(BENCH, "meta.json")) as fh:
            meta = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read the benchmark definition: {e}")
    if a.workload not in meta["workloads"]:
        fail(f"unknown workload {a.workload}")
    pinned = meta["workloads"][a.workload]
    wanted = spec["per_layer"] if a.trace == "1" else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    env["TANGO_THREADS"] = THREADS
    manifest = os.path.join(BENCH, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env, cwd=ROOT, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = os.path.join(target, "release", "perfbench")

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    left = DEADLINE_S - (time.monotonic() - start)
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True, timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        fail("measurement overran its deadline")
    if run.returncode != 0:
        fail(f"measuring binary exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"unreadable measurement output: {e}")

    problems = [f"check {c['name']} failed: {c['detail']}" for c in rec["checks"] if not c["ok"]]
    if rec["failed"] != 0:
        problems.append(f"{rec['failed']} of {rec['attempted']} checked runs failed")
    if rec["golden_digest"] != pinned["golden_digest"]:
        problems.append(
            f"default-seed digest {rec['golden_digest']} != pinned {pinned['golden_digest']}")
    if set(rec["metrics"]) != set(units):
        problems.append(f"metric set mismatch: {sorted(set(rec['metrics']) ^ set(units))}")
    correct = not problems

    tree, n_files = tree_digest()
    rec["stamp"] = {
        "seed": a.seed,
        "seconds": a.seconds,
        "threads": rec["threads"],
        "nproc": rec["nproc"],
        "samples": rec["samples"],
        "source_tree_sha256": tree,
        "source_tree_files": n_files,
        "git": git_stamp(),
        "pinned_golden_digest": pinned["golden_digest"],
        "correct": correct,
        "problems": problems,
    }
    out_dir = os.path.join(BENCH, "out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(rec, fh, indent=1)
        fh.write("\n")

    result = {
        "correct": correct,
        "attempted": rec["attempted"],
        "failed": rec["failed"] if correct else max(rec["failed"], 1),
        "metrics": {k: {"value": rec["metrics"][k], "unit": units[k]}
                    for k in units if k in rec["metrics"]},
    }
    for p in problems:
        print(f"CORRECTNESS FAILURE: {p}", file=sys.stderr)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
