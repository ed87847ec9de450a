#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

A run builds perfbench/perfbench.exe (release profile, build directory
.bench_build/dune), times the workload's set-up in separate processes as
well as in the measuring one, runs the measurement, writes a capture with
a host fingerprint under .bench_build/perfbench/captures/, and prints as
its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer ones with --trace 1.  End-to-end times are scaled to a nominal
host by a reference loop timed in the same processes (perfbench/host.ml,
perfbench/README.md); the capture keeps the wall-clock figures.

--self-test runs the benchmark's own tests, checks that BENCHMARK.json
lists the per-layer metrics the program reports, then repeats a short
traced run of every workload and lists the allocation counts that differ.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "dune")
OUT_DIR = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
PROFILE = "release"
# Set-ups timed per run: this many minus one in their own processes, plus
# the measuring process's own.
SETUPS = 3
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def env():
    # The dune cache lives outside the checkout; keep every write inside it.
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run me from the root of a repository checkout (no dune-project or lib/ here)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", PROFILE, "./perfbench/perfbench.exe"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env(), timeout=880)
    except (OSError, subprocess.TimeoutExpired) as exc:
        die("build failed: %s" % exc)
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed:\n" + r.stderr[-4000:])


def call(args, timeout=RUN_TIMEOUT_S):
    try:
        r = subprocess.run([EXE] + args, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("timed out: perfbench.exe " + " ".join(args))
    if r.returncode != 0:
        die("perfbench.exe %s exited %d:\n%s" % (" ".join(args), r.returncode, r.stderr[-4000:]))
    lines = r.stdout.strip().splitlines()
    if not lines:
        die("perfbench.exe %s printed nothing" % " ".join(args))
    return json.loads(lines[-1])


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        return r.stdout.strip() if r.returncode == 0 else None
    except OSError:
        return None


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    commit = command_output(["git", "rev-parse", "HEAD"])
    if commit:
        return "git:" + commit
    h = hashlib.sha256()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "sha256:" + h.hexdigest()[:16]


def fingerprint(seed):
    return {
        "nproc": os.cpu_count(),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"])
        or command_output(["ocaml", "-vnum"]),
        "profile": PROFILE,
        "source": source_id(),
        "seed": seed,
    }


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        die("cannot read BENCHMARK.json: %s" % exc)


def measure(args, spec):
    build()
    trace = args.trace == 1
    rows = spec["per_layer" if trace else "end_to_end"]
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not trace:
        setups = [call(base + ["--setup-only"])["setup_s"] for _ in range(SETUPS - 1)]
    os.makedirs(os.path.join(OUT_DIR, "captures"), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    run_args = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace:
        run_args += ["--spans", os.path.join(OUT_DIR, "captures", tag + ".spans.jsonl")]
    out = call(run_args, timeout=RUN_TIMEOUT_S)
    setups.append(out["setup_s"])
    measured = dict(out["metrics"])
    if not trace:
        measured["setup_s"] = statistics.median(setups)
    missing = [r["name"] for r in rows if r["name"] not in measured]
    metrics = {r["name"]: {"value": measured[r["name"]], "unit": r["unit"]}
               for r in rows if r["name"] in measured}
    capture = {"fingerprint": fingerprint(args.seed), "workload": args.workload,
               "seconds": args.seconds, "trace": args.trace, "setup_samples_s": setups,
               "run": out}
    with open(os.path.join(OUT_DIR, "captures", tag + ".json"), "w") as f:
        json.dump(capture, f, indent=1)
    for msg in out.get("failures", []) + out.get("notes", []) + ["missing metric " + m for m in missing]:
        print("perfbench: " + msg, file=sys.stderr)
    print(json.dumps({"fingerprint": capture["fingerprint"], "info": out.get("info", {})}))
    print(json.dumps({
        "correct": bool(out["correct"]) and not missing,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))


def self_test(spec):
    build()
    r = subprocess.run([EXE, "--self-test"], timeout=600)
    status = r.returncode
    listed = subprocess.run([EXE, "--list-per-layer"], capture_output=True, text=True,
                            timeout=60).stdout.split()
    if listed != [m["name"] for m in spec["per_layer"]]:
        print("FAIL  BENCHMARK.json per_layer differs from the metrics perfbench.exe reports")
        status = 1
    else:
        print("ok    BENCHMARK.json per_layer names the metrics perfbench.exe reports")
    # Allocation words of a fixed amount of work must repeat exactly.
    for w in spec["workloads"]:
        runs = [call(["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", "1"])
                for _ in range(2)]
        a, b = (x["metrics"] for x in runs)
        differ = sorted(k for k in a if k.endswith(".alloc_mw") and a[k] != b.get(k))
        print("%-5s %s: allocation repeats%s" % ("ok" if not differ else "DIFF", w["name"],
              "" if not differ else " except " + ", ".join(differ)))
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    spec = load_spec()
    if args.self_test:
        sys.exit(self_test(spec))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("--workload must be one of " + ", ".join(names))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    measure(args, spec)


if __name__ == "__main__":
    main()
