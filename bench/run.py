"""ssgamma benchmark: one workload, end to end or traced.

    python3 bench/run.py --workload so-deep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ./src.
Workloads: so-deep, table-wide, oracle-gl (see README.md here).

--trace 0 measures the end-to-end metrics.  It runs the workload in a
fresh interpreter, once or more, for up to 60% of --seconds.  For the
rest it repeats a cold-start cycle: a reference probe, a cold CLI spawn,
and a fresh interpreter that only imports the package.  It reports medians, in reference seconds: wall time with the
machine's changing speed divided out (refclock.py for the workload,
the reference probes for the cold starts).  --trace 1 runs the workload once plain and
twice traced with the same seed, checks that the two traced runs count
exactly the same work, and reports the per-layer metrics and the
tracing overhead.

Every result is checked at exact equality.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it carries the environment and the sha256 of
the canonical output records.  Both, with the per-run details, are also
written to .bench_out/ (spans of traced runs to .bench_out/spans/).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("so-deep", "table-wide", "oracle-gl")

UNIT_SHARE = 0.6  # of --seconds, for workload executions; the rest is for cold starts
MIN_COLD = 8  # cold-start cycles per end-to-end run, at least
CHILD_TIMEOUT = 150  # seconds for one child process
BUDGET = 150  # seconds: no cold-start cycle is started after this


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def unit(*args) -> dict:
    """Run bench/unit.py in a fresh interpreter and parse its last line.

    The child's own wall time, as the parent sees it, is added as
    process_wall_s."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "unit.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"unit {args} timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"unit {args} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return dict(json.loads(lines[-1]), process_wall_s=perf_counter() - start)


# The console-script entry point of the CLI.
CLI_ENTRY = "import sys; from ssgamma.cli import main; sys.exit(main(sys.argv[1:]))"

# The reference probe: a fresh interpreter that imports a fixed set of
# standard-library modules and prints how long that took.  Process start
# and imports run at a different speed from the workloads' arithmetic
# when the host is busy, so cold starts are scaled by this probe instead
# of the arithmetic kernel of refclock.py.  It touches neither ssgamma
# nor its dependencies, so no change to the program changes it.
REF_ENTRY = """import time
start = time.perf_counter()
import argparse, ast, asyncio, csv, dataclasses, decimal, difflib, email.parser, fractions, http.client
import inspect, json, logging, pathlib, pydoc, statistics, tarfile, typing, unittest, urllib.request
import xml.dom.minidom, xml.etree.ElementTree, zipfile
print(time.perf_counter() - start)
"""
REF_PROBE_S = 0.2  # seconds: the reference probe's process at the reference speed
REF_IMPORT_S = 0.1  # seconds: the reference probe's imports at the reference speed


def spawn(code, args=()):
    """Run `python -c code args` from the checkout: (wall seconds, process),
    or (None, None) on timeout."""
    start = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, None
    return perf_counter() - start, proc


def ref_probe():
    """(process wall seconds, import seconds) of one reference probe."""
    wall, proc = spawn(REF_ENTRY)
    if wall is None or proc.returncode != 0:
        raise ChildFailed(f"reference probe failed: {proc and proc.stderr.decode()[-400:]}")
    return wall, float(proc.stdout)


def cli_spawn(cli_args, want_records):
    """One cold CLI process: (wall seconds, stdout bytes, error)."""
    wall, proc = spawn(CLI_ENTRY, cli_args)
    if wall is None:
        return None, b"", "CLI timed out"
    if proc.returncode != 0:
        return wall, proc.stdout, f"CLI exited {proc.returncode}: {proc.stderr.decode()[-400:]}"
    doc = json.loads(proc.stdout)
    if doc.get("computed") != want_records or doc.get("matches") is not True:
        return wall, proc.stdout, "CLI result differs from the closed form"
    return wall, proc.stdout, None


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:  # the ceiling keeps git from looking above the checkout
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sympy": version("sympy"),
        "numpy": version("numpy"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def digest(units, cli_outputs=()) -> str | None:
    """sha256 over the workload's canonical records and the CLI bytes."""
    shas = {u["records_sha256"] for u in units}
    if len(shas) != 1 or len(set(cli_outputs)) > 1:
        return None  # executions with one seed disagreed
    h = hashlib.sha256(shas.pop().encode())
    for out in cli_outputs[:1]:
        h.update(out)
    return h.hexdigest()


def end_to_end(args, report) -> dict:
    """Workload executions for up to UNIT_SHARE of --seconds, at least one;
    then cold-start cycles for the rest, at least MIN_COLD of them."""
    warm = subprocess.run(  # writes the bytecode caches; not timed
        [sys.executable, "-c", "import ssgamma.cli"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if warm.returncode != 0:
        raise ChildFailed(f"import ssgamma.cli failed: {warm.stderr.strip()[-800:]}")
    spawns, units, crashed, probes, refs = [], [], [], [], []
    start = monotonic()

    def next_would_end_after(began, limit):
        now = monotonic()
        return now - start + (now - began) > limit

    while True:
        began = monotonic()
        try:
            units.append(unit("--mode", "plain", "--clock", "ref", "--workload", args.workload, "--seed", str(args.seed)))
        except ChildFailed as exc:
            crashed.append(str(exc))
            break
        if next_would_end_after(began, UNIT_SHARE * args.seconds):
            break
    if not units:
        raise ChildFailed("; ".join(crashed))
    while True:
        began = monotonic()
        refs.append(ref_probe())
        spawns.append(cli_spawn(units[0]["cli_args"], units[0]["cli_records"]))
        probes.append(unit("--mode", "setup")["setup_s"])
        if len(probes) >= MIN_COLD and next_would_end_after(began, args.seconds) or monotonic() - start > BUDGET:
            break

    cli_errors = [err for *_, err in spawns if err]
    sha = digest(units, [out for _, out, _ in spawns])
    cells = [s for u in units for s in u["cell_s"]]
    cli = [s for s, *_ in spawns if s is not None]
    # cold starts, scaled by the reference probes of the same run
    ref_wall = statistics.median(w for w, _ in refs)
    ref_import = statistics.median(i for _, i in refs)
    setup_s = statistics.median(probes) * REF_IMPORT_S / ref_import
    cli_cold_s = statistics.median(cli) * REF_PROBE_S / ref_wall if cli else None
    report.update(units=[{k: v for k, v in u.items() if k != "cell_s"} for u in units])
    report.update(sha256=sha, crashed=crashed, cli_errors=cli_errors)
    report.update(setup_wall_s=probes, cli_wall_s=cli, ref_probe_s=refs)

    def median(key):
        return statistics.median(u[key] for u in units)

    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median("wall_s"), "s"),
        "points_per_s": (statistics.median(u["points"] / u["wall_s"] for u in units), "1/s"),
        "cells_per_s": (statistics.median(len(u["cell_s"]) / u["wall_s"] for u in units), "1/s"),
        "cell_p50_s": (statistics.median(cells) if cells else None, "s"),
        "cell_p90_s": (statistics.quantiles(cells, n=10)[8] if len(cells) > 1 else None, "s"),
        "cli_cold_s": (cli_cold_s, "s"),
    }
    attempted = sum(u["attempted"] for u in units) + len(crashed) + len(spawns)
    failed = sum(u["failed"] for u in units) + len(crashed) + len(cli_errors)
    return {"correct": failed == 0 and sha is not None, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args, report) -> dict:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = unit("--mode", "plain", "--clock", "wall", *base)
    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    runs = [
        unit("--mode", "traced", *base, "--spans", str(spans_dir / f"{args.workload}-seed{args.seed}-{tag}.jsonl.gz"))
        for tag in ("a", "b")
    ]
    same_counts = runs[0]["counts"] == runs[1]["counts"] and runs[0]["points"] == runs[1]["points"]
    sha = digest([plain, *runs])
    layers = {}
    for key, value in runs[0]["layers"].items():
        timed = key.endswith("_s") or key.endswith(".s")
        layers[key] = (statistics.mean(r["layers"][key] for r in runs) if timed else value, unit_of(key))
    layers["trace.overhead_s"] = (statistics.mean(r["wall_s"] for r in runs) - plain["wall_s"], "s")
    report.update(
        units=[{k: v for k, v in u.items() if k != "cell_s"} for u in (plain, *runs)],
        sha256=sha,
        same_counts=same_counts,
        absent=runs[0]["absent"],
    )
    attempted = sum(u["attempted"] for u in (plain, *runs))
    failed = sum(u["failed"] for u in (plain, *runs))
    correct = failed == 0 and sha is not None and same_counts
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": layers}


def unit_of(key):
    if key.endswith("_s") or key.endswith(".s"):
        return "s"
    if key.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ssgamma benchmark (see bench/README.md)")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ssgamma" / "__init__.py").is_file():
        print(f"error: no ssgamma package under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2

    report = {"env": environment(args)}
    try:
        result = traced(args, report) if args.trace else end_to_end(args, report)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [k for k, (v, _) in result["metrics"].items() if v is None]
    if missing:
        print(f"error: no value for {missing}; failures: {report.get('crashed')}", file=sys.stderr)
        return 1
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    report["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"env": report["env"], "sha256": report["sha256"], "report": f".bench_out/{name}"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
