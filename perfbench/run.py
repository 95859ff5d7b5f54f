#!/usr/bin/env python3
"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload csv-explore --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The script builds the benchmark and
`rawq` from source (into .bench_build/), generates the seed's inputs once
(into .bench_data/), warms them, runs the workload in one process, checks
every answer with the oracle in another, and prints one JSON object as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = {
    "csv-explore": "csv",
    "binary-explore": "fwb",
    "served-refresh": "log",
}
BUILD_DIR = ".bench_build"
DATA_DIR = ".bench_data"
KEEP_DATASETS = 8
GENERATORS = [os.path.join("perfbench", "data.ml")] + [
    os.path.join("lib", "formats", f) for f in ("csv.ml", "fwb.ml", "hep.ml")]
RUN_LIMIT_S = 175


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, capture=True):
    """Run cmd in its own process group; on timeout kill the whole group
    (the served workload's server included) and wait for it."""
    p = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = p.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        sys.stderr.write(err[-4000:])
        die("failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    sys.stderr.write(err)
    return out


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        die("no result line")
    return json.loads(lines[-1])


def build():
    if shutil.which("dune") is None:
        die("dune is not on PATH")
    run(
        [
            "dune", "build", "--root", ".", "--cache=disabled",
            "--build-dir", BUILD_DIR, "--display=quiet",
            "./perfbench/bench.exe", "./bin/rawq.exe",
        ],
        timeout=880,
        capture=False,
    )
    exe = os.path.join(BUILD_DIR, "default")
    return os.path.join(exe, "perfbench", "bench.exe"), os.path.join(exe, "bin", "rawq.exe")


def fingerprint():
    """Hash of the generators' sources: a dataset is reused only while they
    are unchanged."""
    h = hashlib.sha256()
    for f in GENERATORS:
        with open(f, "rb") as src:
            h.update(src.read())
    return h.hexdigest()[:10]


def dataset(bench, name, seed, deadline):
    """Generate (once) and return the directory of one seed's dataset."""
    d = os.path.join(DATA_DIR, "%s-%d-%s" % (name, seed, fingerprint()))
    done = os.path.join(d, ".done")
    if not os.path.exists(done):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        run([bench, "gen", "--dataset", name, "--seed", str(seed), "--dir", d],
            timeout=deadline - time.time())
        open(done, "w").close()
    os.utime(done)
    # bound the disk used by datasets of earlier seeds
    others = sorted(
        (os.path.getmtime(os.path.join(DATA_DIR, x, ".done")), x)
        for x in os.listdir(DATA_DIR)
        if os.path.exists(os.path.join(DATA_DIR, x, ".done"))
    )
    for _, x in others[:-KEEP_DATASETS]:
        shutil.rmtree(os.path.join(DATA_DIR, x), ignore_errors=True)
    return d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    if a.seed < 0 or a.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    for need in ("dune-project", "lib", os.path.join("bin", "rawq.ml"), os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("run from the root of a checkout of the repository (missing %s)" % need)

    bench, rawq = build()
    deadline = time.time() + RUN_LIMIT_S
    os.makedirs(DATA_DIR, exist_ok=True)
    data = dataset(bench, WORKLOADS[a.workload], a.seed, deadline)
    probe = dataset(bench, "probe", a.seed, deadline)
    answers = os.path.join(data, "answers-%d.jsonl" % os.getpid())
    common = ["--workload", a.workload, "--seed", str(a.seed), "--data", data,
              "--probe", probe, "--answers", answers]
    try:
        res = last_json(run(
            [bench, "run", "--seconds", str(a.seconds), "--trace", str(a.trace),
             "--rawq", rawq] + common,
            timeout=deadline - time.time()))
        verdict = last_json(run([bench, "oracle"] + common, timeout=deadline - time.time()))
    finally:
        for f in (answers, answers + ".probe"):
            if os.path.exists(f):
                os.remove(f)

    for s in verdict["samples"]:
        print("not correct: " + s)
    print("oracle: %d answers checked, %d wrong, %d errors"
          % (verdict["checked"], verdict["wrong"], verdict["errors"]))
    attempted = res["attempted"]
    failed = res["failed"] + verdict["wrong"]
    correct = verdict["wrong"] == 0 and res["failed"] == 0 and verdict["checked"] == attempted
    print("error_rate: %d/%d" % (failed, attempted))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
