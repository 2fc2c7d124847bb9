#!/usr/bin/env python3
"""Runs one workload of bskel's benchmark and reports it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source with cargo (into
$CARGO_TARGET_DIR, default `.bench_build`), runs the workload, and
prints every metric by name with its unit, the failed correctness
checks and the host provenance. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the `end_to_end` metrics of BENCHMARK.json on an untraced
run, its `per_layer` metrics on a traced one. A per-layer metric whose
layer the workload does not touch reads 0.

The full result, with provenance, is written to
`perfbench/out/<workload>-s<seed>-t<trace>.json` and appended to
`perfbench/out/history.jsonl`.

Exit status: 0 when every correctness check passed; 1 when one failed;
2 or more when the benchmark could not be built or run (nothing is
printed on the last line then).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
# Inputs of the build: a digest of them identifies the code measured
# when the checkout is not a git repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(2, f"cannot read {path}: {e}")
    return spec


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("out", "target"))
            files += [os.path.join(d, n) for n in sorted(names)]
        for p in files:
            if p.endswith(".lock") and os.path.dirname(p) == HERE:
                continue
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30, cwd=ROOT)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def provenance(args, load_at_start):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]),
        # Only the checkout's own repository, never an enclosing one.
        "git_commit": (command_output(["git", "rev-parse", "HEAD"])
                       if os.path.isdir(os.path.join(ROOT, ".git")) else None),
        "source_digest": source_digest(),
        "loadavg_start": list(load_at_start),
        "started_unix": time.time(),
    }


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(3, f"build failed: {e}")
    if r.returncode != 0:
        fail(3, f"build failed with status {r.returncode}")
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(4, f"{args.workload} printed no result (status {r.returncode})")
    if r.returncode not in (0, 1):
        fail(4, f"{args.workload} exited with status {r.returncode}")
    return result


def select(spec, result, traced):
    """The metrics of BENCHMARK.json for this mode, from the result."""
    section = "per_layer" if traced else "end_to_end"
    measured = result["metrics"]
    chosen, not_on_path = {}, []
    for m in spec[section]:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if not traced:
                fail(5, f"end-to-end metric {name} was not measured")
            not_on_path.append(name)
            chosen[name] = {"value": 0.0, "unit": unit}
            continue
        if got["unit"] != unit:
            fail(5, f"{name} measured in {got['unit']}, BENCHMARK.json says {unit}")
        chosen[name] = {"value": got["value"], "unit": unit}
    return chosen, not_on_path


def earlier_faults(workload, seed):
    """`net.faults_injected` of earlier runs of this workload and seed."""
    counts = set()
    try:
        with open(os.path.join(OUT, "history.jsonl")) as f:
            for line in f:
                h = json.loads(line)
                if h["workload"] == workload and h["seed"] == seed:
                    n = h["metrics"].get("net.faults_injected")
                    if n is not None:
                        counts.add(n)
    except (OSError, ValueError, KeyError):
        pass
    return counts


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    load_at_start = os.getloadavg()
    spec = load_spec()
    binary = build()
    prov = provenance(args, load_at_start)
    result = run(binary, args)
    chosen, not_on_path = select(spec, result, bool(args.trace))

    for k, v in prov.items():
        print(f"# {k}: {v}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    if not_on_path:
        print(f"# layers not on this workload's path (reported as 0): {', '.join(not_on_path)}")
    for name, value in result.get("notes", {}).items():
        print(f"# note {name}: {value}")
    failed_checks = [n for n, ok in result.get("checks", {}).items() if not ok]
    print(f"# checks: {len(result.get('checks', {})) - len(failed_checks)} passed"
          + (f", FAILED: {', '.join(failed_checks)}" if failed_checks else ""))

    faults = result["metrics"].get("net.faults_injected", {}).get("value")
    if args.workload == "pool_chaos" and faults is not None:
        earlier = earlier_faults(args.workload, args.seed) - {faults}
        if earlier:
            print(f"# WARNING: net.faults_injected = {faults} differs from earlier runs of "
                  f"seed {args.seed} ({sorted(earlier)}): a different fault schedule, "
                  "not a speed change")
            result.setdefault("notes", {})["fault_schedule_vs_history"] = "changed"

    os.makedirs(OUT, exist_ok=True)
    record = {"provenance": prov, "result": result, "not_on_path": not_on_path}
    path = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    with open(os.path.join(OUT, "history.jsonl"), "a") as f:
        summary = {k: prov[k] for k in ("workload", "seed", "trace", "source_digest",
                                         "git_commit", "started_unix")}
        summary["correct"] = result["correct"]
        summary["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
        f.write(json.dumps(summary) + "\n")

    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": chosen,
    }))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
