"""The benchmark's workloads and the exact checks on their results.

Every workload is a closed loop with one caller: each operation starts
when the previous one has been checked.  The seed chooses the cell
order, the values tau(pi) (any nonzero rational) and the CLI arguments;
it never chooses p, l, N or V, so the work of a run is fixed.  README.md
in this directory says why each workload was chosen.

An operation is one of: an enumeration call (phi_eval or phi_star_eval,
cold or warm), a gamma cell, a brute-versus-fast comparison, a support
scan or a JPSS gamma.  Each is timed, then checked at exact equality
with the tracer paused; any exception, BoundaryNonvanishing included,
marks that operation failed and the run goes on.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from ssgamma import characters, cli, integrals
from ssgamma.characters import TameCharacter
from ssgamma.cyclotomic import CyclotomicNumber
from ssgamma.scalars import ExactScalar

SUPPORT = "support-aware"
BRUTE = "brute-force"

# In end-to-end runs a cell is called again until its calls have taken
# this long (seconds), and its latency is their mean.  On a shared host
# the machine's speed flickers within tens of milliseconds: the same
# 3 ms cell read 2.8 ms in one run and 4.8 ms in the next, and a
# percentile over single short calls measured the flicker.  Table-wide
# cells, 40 ms or more, are called once.
CELL_WINDOW_S = 0.04


class Mismatch(Exception):
    """A result differs from its exact expected value."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


@dataclass(frozen=True)
class Group:
    """One (p, l, N, V, mode) domain of the SO integrals."""

    p: int
    ell: int
    level: int
    cutoff: int
    mode: str = SUPPORT

    def side_points(self) -> int:
        """Domain points of one side (Phi or Phi*): |Z| * |Y|^(l-1)."""
        p, n, v = self.p, self.level, self.cutoff
        if self.mode == SUPPORT:
            z = y = p ** (n - 1)
        else:  # valuations -V-1..V+1 of units mod p^N; p^-V o mod p^N plus its shell
            z = (2 * v + 3) * (p - 1) * p ** (n - 1)
            y = p ** (n + v + 1)
        return z * y ** (self.ell - 1)


def es(p, c, q_half=0, s_power=0):
    return ExactScalar.from_coeff(p, c, q_half=q_half, s_power=s_power)


def tau_value(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


def so_cells(rng, p):
    """Every (zeta sign, tame exponent j, sign of tau(pi)) for one p, with a
    seeded magnitude of tau(pi), in seeded order."""
    cells = [(zs, j, sign * tau_value(rng)) for zs in (1, -1) for j in range(p - 1) for sign in (1, -1)]
    rng.shuffle(cells)
    return cells


def so_config(g: Group, zs, j, tau_pi):
    tau = TameCharacter(g.p, j, es(g.p, tau_pi))
    zeta = CyclotomicNumber.from_rational(zs)
    return integrals.IntegralConfig(g.p, g.ell, zeta, tau, level=g.level, cutoff=g.cutoff, mode=g.mode)


def closed_so_gamma(cfg):
    """zeta * tau(-pi) * q^(1/2 - s)."""
    p = cfg.prime
    return es(p, cfg.zeta) * characters.tame_eval(cfg.tau, -p) * es(p, 1, 1, 1)


def closed_phi(g: Group):
    """vol(p)^(l-1) * vol(1+p) = q^(-(l-1)/2) / (q - 1)."""
    return es(g.p, Fraction(1, g.p - 1), -(g.ell - 1))


def closed_gl_gamma(n, tau, zeta):
    """tau(-1)^(n-1) * tau(pi) * zeta * q^(1/2 - s)."""
    p = tau.prime
    return characters.tame_eval(tau, -1) ** (n - 1) * tau.value_at_uniformizer * es(p, zeta, 1, 1)


def cli_case(seed):
    """Seeded arguments of the cold CLI spawns: gamma-so at p = 3, l = 1."""
    rng = random.Random(f"cli-{seed}")
    zs, j, tau_pi = rng.choice((1, -1)), rng.randrange(2), rng.choice((1, -1)) * tau_value(rng)
    args = ["gamma-so", "--p", "3", "--ell", "1", "--zeta", str(zs), "--tau-j", str(j), f"--tau-pi={tau_pi}"]
    cfg = so_config(Group(3, 1, 2, 1), zs, j, tau_pi)
    return args, closed_so_gamma(cfg).to_records()


class Run:
    """One execution of a workload: timed, checked operations."""

    def __init__(self, tracer, clock=perf_counter, window=0.0):
        self.tracer = tracer
        self.clock = clock
        self.window = window
        self.extra = 0.0  # time of the extra calls
        self.ops = []
        self.records = []
        self.points = 0
        self.t0 = clock()

    def op(self, kind, compute, check, **info):
        """Time compute() (traced), then check its value (untraced).

        check returns the operation's canonical output record or raises.
        A cell is called until its calls have taken self.window seconds,
        and its latency is the mean call plus the check.  The extra calls
        are timed only; their time is left out of wall_s."""
        op_id = len(self.ops)
        start = self.clock()
        calls = []
        checked = error = None
        try:
            with self.tracer.operation(op_id, kind):
                value = compute()
            calls.append(self.clock() - start)
            while kind == "cell" and sum(calls) < self.window:
                began = self.clock()
                compute()
                calls.append(self.clock() - began)
            checked = self.clock()
            with self.tracer.paused():
                self.records.append(check(value))
        except Exception as exc:  # the run goes on; the operation counts as failed
            error = f"{type(exc).__name__}: {exc}"
        end = self.clock()
        if checked is None:
            checked = end
        self.extra += sum(calls[1:])
        call_s = sum(calls) / len(calls) if calls else checked - start
        self.ops.append(
            dict(info, id=op_id, kind=kind, end=end - self.t0 - self.extra, s=call_s + end - checked, call_s=call_s, error=error)
        )

    def render(self, x):
        """The CLI's text and record rendering of one result."""
        with self.tracer.span("cli.render"):
            return cli.scalar_str(x), x.to_records()

    # -- building blocks --------------------------------------------------

    def enumerate_group(self, g: Group, cfg):
        """phi_eval and phi_star_eval once cold and once warm."""
        closed = {"phi": lambda: closed_phi(g), "phi_star": lambda: closed_so_gamma(cfg) * closed_phi(g)}
        self.points += 2 * g.side_points()
        for temp in ("cold", "warm"):
            for side, fn in (("phi", integrals.phi_eval), ("phi_star", integrals.phi_star_eval)):

                def check(value, side=side, temp=temp):
                    expect(value == closed[side](), f"{side} at {g} differs from its closed value")
                    return {"op": f"{side}.{temp}", "group": str(g), "value": value.to_records()}

                self.op("enumerate." + temp, lambda fn=fn: fn(cfg), check, group=str(g), side=side, mode=g.mode)

    def so_cell(self, cfg, label):
        def compute():
            res = integrals.gamma_so(cfg)
            return res, self.render(res.computed)

        def check(value):
            res, (text, records) = value
            want = closed_so_gamma(cfg)
            expect(res.computed == want, f"gamma {label} differs from the closed form")
            expect(res.matches, f"gamma {label} not reported as matching")
            expect(records == want.to_records(), f"records of gamma {label} differ")
            return {"cell": label, "gamma": records, "text": text}

        self.op("cell", compute, check)

    def so_groups(self, rng, groups, passes=1):
        """The enumeration calls of every group, then `passes` passes over
        every group's cell grid, each with fresh tau(pi) values, all in one
        seeded order.  Mixing the groups' cells makes their latencies
        sample the same stretch of the run."""
        cells = []
        for g in groups:
            grids = [so_cells(rng, g.p) for _ in range(passes)]
            self.enumerate_group(g, so_config(g, *grids[0][0]))
            cells += [(g, *cell) for grid in grids for cell in grid]
        rng.shuffle(cells)
        for g, zs, j, tau_pi in cells:
            self.so_cell(so_config(g, zs, j, tau_pi), [g.p, g.ell, zs, j, str(tau_pi)])

    def brute_cell(self, fast: Group, brute: Group, zs, j, tau_pi):
        cf, cb = so_config(fast, zs, j, tau_pi), so_config(brute, zs, j, tau_pi)
        label = [brute.p, brute.ell, zs, j, str(tau_pi)]

        def compute():
            gb, gf = integrals.gamma_so(cb), integrals.gamma_so(cf)
            values = [(f(cb), f(cf)) for f in (integrals.phi_eval, integrals.phi_star_eval)]
            return gb, gf, values, self.render(gb.computed)

        def check(value):
            gb, gf, values, (text, records) = value
            want = closed_so_gamma(cb)
            expect(gb.computed == want and gf.computed == want, f"brute/fast gamma {label} differ")
            expect(gb.matches and gf.matches, f"gamma {label} not reported as matching")
            expect(all(b == f for b, f in values), f"brute/fast Phi or Phi* {label} differ")
            expect(values[0][0] == closed_phi(brute), f"brute Phi {label} differs from its closed value")
            return {"compare": label, "gamma": records, "text": text}

        self.op("cell", compute, check)

    def scan(self, g: Group, side):
        want_points = g.side_points()
        self.points += want_points

        def check(value):
            points, verdict = value
            expect(verdict is True, f"scan {side} verdict {verdict}")
            expect(len(points) == want_points, f"scan {side}: {len(points)} points, config gives {want_points}")
            expect(all(pt.nonzero == pt.predicted for pt in points), f"scan {side}: nonzero != predicted")
            nonzero = [[str(pt.z), [str(c) for c in pt.y]] for pt in points if pt.nonzero]
            expect(nonzero, f"scan {side}: no nonzero point")
            return {"scan": side, "points": len(points), "nonzero": nonzero}

        self.op(
            "scan",
            lambda: integrals.scan_support(g.p, g.ell, side, level=g.level, cutoff=g.cutoff),
            check,
        )

    def jpss(self, n, p, level, cutoff, k, j, tau_pi, kind="cell"):
        tau = TameCharacter(p, j, es(p, tau_pi))
        zeta = CyclotomicNumber.root_of_unity(n, k)
        label = [n, p, k, j, str(tau_pi)]

        def compute():
            res = integrals.jpss_gl_gamma(n, tau, zeta, level=level, cutoff=cutoff)
            return res, self.render(res.computed)

        def check(value):
            res, (text, records) = value
            want = closed_gl_gamma(n, tau, zeta)
            expect(res.computed == want, f"JPSS gamma {label} differs from the closed form")
            expect(res.matches, f"JPSS gamma {label} not reported as matching")
            return {"jpss": label, "gamma": records, "text": text}

        self.op(kind, compute, check)

    # -- summary ---------------------------------------------------------

    def summary(self) -> dict:
        ok = [o for o in self.ops if o["error"] is None]
        cells = [o for o in ok if o["kind"] == "cell"]
        enum = [o for o in self.ops if o["kind"].startswith("enumerate.")]
        cold = sum(o["call_s"] for o in enum if o["kind"] == "enumerate.cold")
        warm = sum(o["call_s"] for o in enum if o["kind"] == "enumerate.warm")
        digest = hashlib.sha256(json.dumps(self.records, sort_keys=True).encode()).hexdigest()
        return {
            "wall_s": max((o["end"] for o in self.ops), default=0.0),
            "cell_s": [o["s"] for o in cells],
            "points": self.points,
            "attempted": len(self.ops),
            "failed": len(self.ops) - len(ok),
            "errors": [o["error"] for o in self.ops if o["error"]][:5],
            "records_sha256": digest,
            "enumerate_s": cold - warm,
            "brute_s": sum(o["call_s"] for o in enum if o["mode"] == BRUTE),
        }


# ---------------------------------------------------------------------------
# workloads


def so_deep(run, rng):
    """Enumeration-bound: 36,052 support-aware points, all inside the I+ boxes.

    Five passes over each cell grid give 200 cells, 20 of them beyond
    p90, so that the sparse tail of the heavier (5, 3) cells is sampled
    well."""
    run.so_groups(rng, [Group(5, 3, 3, 1), Group(7, 2, 3, 1)], passes=5)


def table_wide(run, rng):
    """Assembly- and rendering-bound: all 112 cells at l = 1, N = 3, twice,
    with fresh tau(pi) values."""
    run.so_groups(rng, [Group(p, 1, 3, 1) for p in (7, 11, 13)], passes=2)


def oracle_gl(run, rng):
    """Bound by the generic coset solvers: the brute-force oracle, support
    scans and the JPSS GL(3) x GL(1) integral.

    Its warm cells (brute-vs-fast comparisons and JPSS gammas) come in
    three passes around the two scans, and each JPSS pass draws two tau(pi)
    values per (zeta, j, sign): 168 cells, so that 16 lie beyond p90."""
    fast, brute = Group(3, 2, 2, 1), Group(3, 2, 2, 1, BRUTE)
    n, p = 3, 5
    so_grids = [so_cells(rng, 3) for _ in range(3)]
    gl_grids = []
    for _ in range(3):
        grid = [(k, j, sign * tau_value(rng)) for k in range(n) for j in range(p - 1) for sign in (1, -1) for _ in range(2)]
        rng.shuffle(grid)
        gl_grids.append(grid)
    run.enumerate_group(fast, so_config(fast, *so_grids[0][0]))
    run.enumerate_group(brute, so_config(brute, *so_grids[0][0]))
    run.jpss(n, p, 2, 1, *gl_grids[0][0], kind="jpss.cold")
    for so_grid, gl_grid, side in zip(so_grids, gl_grids, ("phi", "phi_star", None)):
        cells = [(run.brute_cell, (fast, brute, *c)) for c in so_grid] + [(run.jpss, (n, p, 2, 1, *c)) for c in gl_grid]
        rng.shuffle(cells)
        for fn, cell in cells:
            fn(*cell)
        if side:
            run.scan(brute, side)


WORKLOADS = {"so-deep": so_deep, "table-wide": table_wide, "oracle-gl": oracle_gl}


def run_workload(name, seed, tracer, clock=perf_counter, window=0.0) -> dict:
    run = Run(tracer, clock, window)
    WORKLOADS[name](run, random.Random(f"{name}-{seed}"))
    return run.summary()
