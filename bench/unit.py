"""One workload execution in a fresh interpreter; run.py starts it.

    python3 bench/unit.py --workload so-deep --seed 1 --mode plain --clock ref
    python3 bench/unit.py --workload so-deep --seed 1 --mode traced --spans out.jsonl.gz
    python3 bench/unit.py --mode setup

The package is imported from ./src of the current directory, never from
an installed copy.  The last line of standard output is one JSON object.
Modes: "plain" runs the workload untraced; "traced" first times
`import sympy`, then wraps the layers (tracer.py) and runs the workload
with spans and counters.  Both also give the seeded CLI case (after the
workload) with its closed-form records.  "setup" only times the import.
With --clock ref every time is in reference seconds (refclock.py);
with --clock wall, the default and the only clock of "traced", it is
wall time.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

from refclock import RefClock

SRC = Path.cwd() / "src"


def import_package(clock) -> float:
    """Time `import ssgamma` from ./src; fail if it resolves elsewhere."""
    sys.path.insert(0, str(SRC))
    start = clock()
    import ssgamma

    setup_s = clock() - start
    if SRC.resolve() not in Path(ssgamma.__file__).resolve().parents:
        raise SystemExit(f"ssgamma imported from {ssgamma.__file__}, not from {SRC}")
    return setup_s


def clock_report(out, clock):
    """Stop the reference clock and give its kernel samples' range."""
    if clock is not perf_counter:
        clock.stop()
        out["kernel_s"] = {"n": len(clock.samples), "min": min(clock.samples), "max": max(clock.samples)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    ap.add_argument("--clock", choices=("wall", "ref"), default="wall")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spans", help="gzip JSON-lines file for the spans (traced mode)")
    args = ap.parse_args(argv)
    if args.mode == "traced" and args.clock != "wall":
        ap.error("traced runs use the wall clock")
    if args.mode != "setup" and not args.workload:
        ap.error("--workload is required")

    clock = RefClock().start() if args.clock == "ref" else perf_counter
    out = {}
    if args.mode == "setup":
        print(json.dumps({"setup_s": import_package(clock)}))
        return 0
    if args.mode == "traced":
        start = perf_counter()
        import sympy  # noqa: F401  (timed on its own, before the package)

        out["sympy_import_s"] = perf_counter() - start
    out["setup_s"] = import_package(clock)
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    if args.mode == "traced":
        tracer.install()
        tracer.active = True
    # cells are timed over a window in end-to-end runs only
    window = workloads.CELL_WINDOW_S if args.clock == "ref" else 0.0
    summary = workloads.run_workload(args.workload, args.seed, tracer, clock, window)
    tracer.active = False
    clock_report(out, clock)
    out.update(summary)
    out["cli_args"], out["cli_records"] = workloads.cli_case(args.seed)
    if args.mode == "traced":
        out["layers"] = tracer.layer_metrics(summary["points"])
        out["layers"]["integrals.enumerate_s"] = summary["enumerate_s"]
        out["layers"]["integrals.brute_s"] = summary["brute_s"]
        out["layers"]["cyclotomic.sympy_import_s"] = out["sympy_import_s"]
        out["counts"] = tracer.counts_snapshot()
        out["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
