"""The four workloads: seeded inputs, timed set-up, operation lists, checks.

A workload is built in three steps. ``inputs(seed)`` draws every seeded
input with numpy alone. ``setup(inputs)`` is the part the ``setup_s`` metric
times: it builds measures and drivers and makes one small warm-up call per
operation kind, so lazy quadrature caches are full before any pass.
``ops(ctx)`` computes the oracles (untimed, independent of the package) and
returns the fixed operation list one pass runs, each operation paired with
the check that classifies its output.

A failure is any of: a refusal or exception, an oracle error above the
reported bound (counted per lane), a wrong verdict, a Stieltjes mass
outside its tolerance, a CLI exit code outside {0, 1, 2}, a traceback on
stderr, or CLI stdout that is not strict JSON/CSV.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracles

GRID_RE = np.linspace(-4.0, 4.0, 20)
GRID_IM = np.linspace(0.2, 4.0, 10)
TIMES = (0.25, 0.5, 1.0, 2.0)
SCALAR_T = 0.25           # b of every scalar solve_transition(fam, 0, b, z)
BATCH_T = 1.0
BATCH_LANES = 10_000
JITTER = 1e-3             # seeded offset of re-used grid points; far below the grid spacing
HORIZON = 4.0
MIX_SWITCH = 0.8
ATOM = [(0.0, 0.0), (4.0, 2.0)]
ATOM_SEAMS = [(0.0, 0.0), (1.0, 1.0), (2.0, -0.5), (4.0, 0.5)]
EPS_LADDER = [0.4 / 2 ** k for k in range(8)]
ORDERS = (8, 16, 24, 32)
CAUCHY_LATTICE = (40, 25)
# cauchy_transform reports no bound and documents no accuracy target. Its
# lanes are held to the package's only stated target (SolverConfig.tol), and
# the batch counts as one operation, so the near-axis error that ROADMAP D1
# names weighs as much as one verdict.
CAUCHY_TOL = 1e-9
CLI_TIMEOUT_S = 120


# ---------------------------------------------------------------------------
# operations and checks


@dataclass
class Check:
    """Classification of one operation's output."""

    lanes: int
    failed: int
    detail: str = ""
    refused: bool = False
    max_err: float = 0.0
    max_bound: float = 0.0
    bad_output: bool = False


@dataclass
class Refused:
    """Stands in for the output of an operation that raised."""

    exc: BaseException


@dataclass
class Op:
    name: str
    layer: str            # the layer the benchmark calls into
    task: str             # grid, batch, scalar, transform, invert, grunsky, hayman, evolve
    call: Callable[[], Any]
    check: Callable[[Any], Check]
    lanes: int = 1
    tag: str = ""         # driver, measure or order label used by per-layer metrics
    single: bool = False  # one call whose latency feeds call_p50_ms / call_p90_ms


def classify(op: Op, out) -> Check:
    if isinstance(out, Refused):
        exc = out.exc
        return Check(op.lanes, op.lanes, f"refused: {type(exc).__name__}: {exc}", refused=True)
    return op.check(out)


def check_lanes(oracle, tol, out) -> Check:
    """Batched values with per-lane bounds against oracle values.

    A lane fails when its error exceeds its reported bound, or when the
    bound itself exceeds ``tol``, the accuracy the call promises: a bound
    inflated past the promise would otherwise pass any value.
    """
    vals, bounds = np.asarray(out[0]).ravel(), np.asarray(out[1], dtype=float).ravel()
    err = np.abs(vals - np.asarray(oracle).ravel())
    err = np.where(np.isfinite(err), err, np.inf)  # a NaN value misses any bound
    over = ~(bounds <= tol)
    bad = ~(err <= bounds) | over
    n_bad = int(bad.sum())
    detail = ""
    if n_bad:
        ratio = np.nan_to_num(err / np.maximum(bounds, 1e-300), nan=np.inf)
        worst = int(np.argmax(np.where(bad, ratio, -1.0)))
        detail = (f"{n_bad} lanes above bound, worst err {err[worst]:.3g} "
                  f"vs bound {bounds[worst]:.3g}")
        if over.any():
            detail += f"; {int(over.sum())} bounds above the promised {tol:.3g}"
    # the largest finite error and bound; the non-finite ones are failures above
    return Check(vals.size, n_bad, detail, max_err=float(np.max(err[np.isfinite(err)], initial=0.0)),
                 max_bound=float(np.max(bounds[np.isfinite(bounds)], initial=0.0)))


def check_as_one(inner, out) -> Check:
    """``inner``'s verdict on a batch, counted as one operation."""
    c = inner(out)
    return Check(1, int(c.failed > 0), c.detail, max_err=c.max_err, max_bound=c.max_bound)


def check_scalar(oracle, tol, out) -> Check:
    err = abs(complex(out) - complex(oracle))
    ok = err <= tol
    return Check(1, 0 if ok else 1, "" if ok else f"err {err:.3g} vs tol {tol:.3g}",
                 max_err=err, max_bound=tol)


def check_verdict(expected, out) -> Check:
    ok = out.verdict == expected
    return Check(1, 0 if ok else 1, "" if ok else f"verdict {out.verdict!r}, expected {expected!r}")


def check_close(expected, tol, got) -> Check:
    err = abs(float(got) - expected)
    ok = err <= tol
    return Check(1, 0 if ok else 1, "" if ok else f"value {got!r}, expected {expected} +- {tol:g}",
                 max_err=err, max_bound=tol)


def check_nevanlinna(expected, tol, out) -> Check:
    got = (out.b, out.c, out.nu_mass)
    err = max(abs(g - e) for g, e in zip(got, expected))
    ok = err <= tol
    return Check(1, 0 if ok else 1, "" if ok else f"(b, c, nu) = {got}, expected {expected}",
                 max_err=err, max_bound=tol)


@dataclass
class Workload:
    name: str
    inputs: Callable[[int, bool], dict]
    setup: Callable[[dict], dict]
    ops: Callable[[dict], list]
    # module attributes the traced run rebinds: (owner, attr, span name, layer, kind)
    probes: Callable[[], list] = field(default=lambda: [])


def grid_points():
    return (GRID_RE[:, None] + 1j * GRID_IM[None, :]).ravel()


def jittered(rng, zs):
    """The same points in seeded order, each moved by at most JITTER.

    Returns the points and, for each, its index in ``zs``, which names it
    the same way under every seed.
    """
    order = rng.permutation(zs.size)
    zs = zs[order]
    return zs + JITTER * (rng.uniform(-1.0, 1.0, zs.size) + 1j * rng.uniform(0.0, 1.0, zs.size)), order


def _shrink(zs, tiny):
    return zs[::20] if tiny else zs


# ---------------------------------------------------------------------------
# flow-const and flow-atom: the loewner layer


def _flow_inputs(seed, tiny, batch):
    rng = np.random.default_rng(seed)
    grid = _shrink(grid_points(), tiny)
    scalar, index = jittered(rng, grid_points())
    out = {"tiny": tiny, "grid": grid, "times": TIMES[:1] if tiny else TIMES,
           "scalar": _shrink(scalar, tiny), "scalar_index": _shrink(index, tiny)}
    if batch:
        n = 100 if tiny else BATCH_LANES
        out["batch"] = rng.uniform(-4.0, 4.0, n) + 1j * rng.uniform(0.2, 4.0, n)
    return out


def _flow_setup(builders, inp):
    from chordal import loewner, numerics

    t0 = time.perf_counter()
    numerics.cheb_grid(getattr(loewner, "_NODES", 24))
    cheb_first = time.perf_counter() - t0
    t0 = time.perf_counter()
    fams = {name: build() for name, build in builders.items()}
    build_s = time.perf_counter() - t0
    for fam in fams.values():
        loewner.transition_grid(fam, 0.0, 0.25, inp["grid"][:4])
        loewner.solve_transition(fam, 0.0, 0.25, 2j)
    return {"fams": fams, "build_s": build_s, "cheb_first_s": cheb_first, **inp}


def _flow_ops(ctx, oracle_of, scalar_drivers, batch_driver=None):
    from chordal import loewner

    fams, grid = ctx["fams"], ctx["grid"]
    tol = loewner.SolverConfig().tol
    ops = []
    for drv, fam in fams.items():
        for t in ctx["times"]:
            ops.append(Op(f"grid.{drv}.t{t:g}", "loewner", "grid",
                          partial(loewner.transition_grid, fam, 0.0, t, grid),
                          partial(check_lanes, oracle_of[drv](grid, t), tol), grid.size, drv))
    if batch_driver:
        zs = ctx["batch"]
        ops.append(Op(f"batch.{batch_driver}-10k", "loewner", "batch",
                      partial(loewner.transition_grid, fams[batch_driver], 0.0, BATCH_T, zs),
                      partial(check_lanes, oracle_of[batch_driver](zs, BATCH_T), tol), zs.size,
                      batch_driver))
    scalar = []
    for drv in scalar_drivers:
        zs = ctx["scalar"]
        expect = oracle_of[drv](zs, SCALAR_T)
        for k, (z, index) in enumerate(zip(zs, ctx["scalar_index"])):
            scalar.append(Op(f"scalar.{drv}.p{index:03d}", "loewner", "scalar",
                             partial(loewner.solve_transition, fams[drv], 0.0, SCALAR_T, z),
                             partial(check_scalar, expect[k], tol), 1, drv, single=True))
    # spread the scalar calls evenly between the batched ones, so their
    # latency percentiles sample the whole pass rather than one stretch of it
    chunks = np.array_split(np.arange(len(scalar)), len(ops))
    return [o for op, idx in zip(ops, chunks) for o in (op, *(scalar[i] for i in idx))]


def flow_const() -> Workload:
    """Constant drivers: delta_0, the 64-node semicircle, and delta_0 -> semicircle."""

    def setup(inp):
        from chordal import DriverFamily, point_mass, semicircle

        return _flow_setup({
            "d0": lambda: DriverFamily.constant(point_mass(0.0), horizon=HORIZON),
            "semi": lambda: DriverFamily.constant(semicircle(), horizon=HORIZON),
            "mix": lambda: DriverFamily.piecewise_constant(
                [0.0, MIX_SWITCH], [point_mass(0.0), semicircle()], horizon=HORIZON),
        }, inp)

    oracle_of = {
        "d0": oracles.slit,
        "semi": oracles.semicircle_flow,
        "mix": lambda z, t: oracles.piecewise_const_flow(
            z, t, [(0.0, oracles.slit), (MIX_SWITCH, oracles.semicircle_flow)]),
    }
    return Workload("flow-const", partial(_flow_inputs, batch=True), setup,
                    lambda ctx: _flow_ops(ctx, oracle_of, ("d0", "semi"), "d0"))


def flow_atom() -> Workload:
    """Moving atoms: a linear path and a piecewise-linear path with seams."""

    def setup(inp):
        from chordal import DriverFamily

        return _flow_setup({
            "atom": lambda: DriverFamily.moving_atom(ATOM),
            "atom-seams": lambda: DriverFamily.moving_atom(ATOM_SEAMS),
        }, inp)

    oracle_of = {
        "atom": lambda z, t: oracles.moving_atom_flow(z, t, ATOM),
        "atom-seams": lambda z, t: oracles.moving_atom_flow(z, t, ATOM_SEAMS),
    }
    return Workload("flow-atom", partial(_flow_inputs, batch=False), setup,
                    lambda ctx: _flow_ops(ctx, oracle_of, ("atom", "atom-seams")))


# ---------------------------------------------------------------------------
# diagnose: measures, numerics, grunsky and capacity through the library

# Known answers. Certificates: the semicircle's Grunsky matrix is 0 (pass);
# the arcsine gives g(z) = z - 1/z and delta_0 gives g = psi, both with
# |eigenvalues| = 1 (boundary). For bernoulli(s), g(z) = z + (1 - s^2)/z +
# s^2/z^3 + ..., so the leading 2x2 block of the Grunsky matrix is
# diag(1 - s^2, 2 s^2 + (1 - s^2)^2) up to sign: its top eigenvalue is 2
# (s = 1) or 1.0625 (s = 0.5). Every larger truncation contains that block,
# so by interlacing the verdict is fail at every order >= 2.
CERT_EXPECTED = {"semi": "pass", "arcsine": "boundary", "d0": "boundary",
                 "b1": "fail", "b05": "fail"}
HAYMAN_EXPECTED = {"semi": "consistent_with_univalence",
                   "arcsine": "consistent_with_univalence", "b1": "inconsistent"}
# mu((a,b)) + mu([a,b]) for the three inversions
STIELTJES_CASES = (("semi", (-2.0, 2.0), 2.0), ("d0", (1.0, 2.0), 0.0), ("d0", (-1.0, 1.0), 2.0))
NEVANLINNA_SEMI = (0.0, 1.0, (math.sqrt(5.0) - 1.0) / 2.0)  # F = (z + sqrt(z^2 - 4))/2
NEVANLINNA_TOL = 1e-3       # the ladder settle tolerance the CLI reports


def _diag_inputs(seed, tiny):
    rng = np.random.default_rng(seed)
    nre, nim = (8, 5) if tiny else CAUCHY_LATTICE
    lattice = (np.linspace(-4.0, 4.0, nre)[:, None] + 1j * np.linspace(0.2, 4.0, nim)[None, :]).ravel()
    return {"tiny": tiny, "cauchy_z": jittered(rng, lattice)[0],
            "orders": ORDERS[:1] if tiny else ORDERS}


def _measures():
    from chordal import arcsine, bernoulli, point_mass, semicircle

    return {"semi": semicircle(), "arcsine": arcsine(), "d0": point_mass(0.0),
            "b1": bernoulli(1.0), "b05": bernoulli(0.5)}


def _stieltjes(mu, interval, ladder):
    from chordal import measures

    return measures.stieltjes_invert(lambda z: measures.cauchy_transform(mu, z), interval, ladder)


def _nevanlinna(mu):
    from chordal import measures

    return measures.nevanlinna_triple(lambda z: measures.reciprocal_cauchy(mu, z))


def diagnose() -> Workload:
    def setup(inp):
        from chordal import capacity, grunsky, measures

        t0 = time.perf_counter()
        mus = _measures()
        moments = {k: [measures.moment(mu, n) for n in range(2 * max(ORDERS) + 1)]
                   for k, mu in mus.items()}
        build_s = time.perf_counter() - t0
        grunsky.univalence_certificate(moments["semi"], 2)
        capacity.hayman_report(mus["semi"], n=8, resolution=64)
        _stieltjes(mus["d0"], (1.0, 2.0), EPS_LADDER)
        measures.cauchy_transform(mus["semi"], inp["cauchy_z"][:4])
        _nevanlinna(mus["semi"])
        return {"mus": mus, "moments": moments, "build_s": build_s, **inp}

    def ops(ctx):
        from chordal import capacity, grunsky, measures

        mus, tiny = ctx["mus"], ctx["tiny"]
        out = []
        for name, moments in ctx["moments"].items():
            for order in ctx["orders"]:
                out.append(Op(f"certificate.{name}.o{order}", "grunsky", "grunsky",
                              partial(grunsky.univalence_certificate, moments, order),
                              partial(check_verdict, CERT_EXPECTED[name]), tag=f"o{order}",
                              single=True))
        hayman_kw = {"n": 16, "resolution": 256} if tiny else {}
        for name, expected in HAYMAN_EXPECTED.items():
            out.append(Op(f"hayman.{name}", "capacity", "hayman",
                          partial(capacity.hayman_report, mus[name], **hayman_kw),
                          partial(check_verdict, expected), tag=name, single=True))
        for name, interval, expected in STIELTJES_CASES[1:] if tiny else STIELTJES_CASES:
            out.append(Op(f"stieltjes.{name}.{interval[0]:g},{interval[1]:g}", "measures", "invert",
                          partial(_stieltjes, mus[name], interval, EPS_LADDER),
                          partial(check_close, expected, 1e-3 * max(1.0, abs(expected))),
                          tag=name, single=True))
        zs = ctx["cauchy_z"]
        out.append(Op("cauchy.semi.batch", "measures", "transform",
                      partial(measures.cauchy_transform, mus["semi"], zs),
                      partial(check_as_one, lambda g, ref=oracles.semicircle_cauchy(zs): check_lanes(
                          ref, CAUCHY_TOL, (g, np.full(zs.size, CAUCHY_TOL)))),
                      tag="cauchy", single=True))
        out.append(Op("nevanlinna.semi", "measures", "transform",
                      partial(_nevanlinna, mus["semi"]),
                      partial(check_nevanlinna, NEVANLINNA_SEMI, NEVANLINNA_TOL),
                      tag="nevanlinna", single=True))
        return out

    def probes():
        from chordal import capacity, measures

        return [
            (capacity, "boundary_image", "capacity.boundary_image", "capacity", "span"),
            (capacity, "discrete_transfinite_diameter", "capacity.fekete", "capacity", "span"),
            (measures.RealMeasure, "dense_nodes", "measures.dense_nodes", "measures", "span"),
            (measures, "adaptive_simpson", "numerics.adaptive_simpson", "numerics", "span"),
            (measures, "cauchy_transform", "measures.cauchy_transform", "measures", "counter"),
        ]

    return Workload("diagnose", _diag_inputs, setup, ops, probes)


# ---------------------------------------------------------------------------
# cli: one sequential client running `python -m chordal.cli`

SEMI_JSON = {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle", "order": 64}],
             "mass": 1.0}
D0_JSON = {"atoms": [[0.0, 1.0]], "mass": 1.0}
D0_DRIVER = {"horizon": HORIZON, "driver": {"type": "piecewise_constant", "breaks": [0.0],
                                            "measures": [D0_JSON]}}
ATOM_DRIVER = {"driver": {"type": "moving_atom", "samples": [list(p) for p in ATOM]}}
CATALAN_4 = "1,0,1,0,2,0,5,0,14"


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def _cli_inputs(seed, tiny):
    rng = np.random.default_rng(seed)
    return {"tiny": tiny, "grid": _shrink(jittered(rng, grid_points())[0], tiny)}


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON")


def parse_stdout(proc, fmt):
    """(parsed stdout, reason) under the CLI output contract."""
    if proc.returncode not in (0, 1, 2):
        return None, f"exit code {proc.returncode}"
    if "Traceback" in proc.stderr:
        return None, "traceback on stderr: " + proc.stderr.strip().splitlines()[-1]
    if proc.returncode != 0:
        return None, "" if not proc.stdout.strip() else "output on a failing exit"
    try:
        if fmt == "json":
            return json.loads(proc.stdout, parse_constant=_reject_constant), ""
        return parse_csv(proc.stdout), ""
    except ValueError as exc:
        return None, f"stdout is not strict {fmt}: {exc}"


def parse_csv(text):
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        if len(vals) != len(header) or not all(math.isfinite(v) for v in vals):
            raise ValueError(f"bad CSV row {line!r}")
        rows.append(vals)
    return {"header": header, "rows": np.array(rows)}


def _cli_check(fmt, expect_exit, semantic, lanes, proc) -> Check:
    parsed, reason = parse_stdout(proc, fmt)
    if reason:
        return Check(lanes, lanes, reason, bad_output=True)
    if proc.returncode != expect_exit:
        return Check(lanes, lanes, f"exit {proc.returncode}, expected {expect_exit}: "
                                   f"{proc.stderr.strip()}")
    return semantic(parsed) if semantic else Check(lanes, 0)


def _cli_lanes(oracle, tol, parsed) -> Check:
    rows = parsed["rows"]
    got = rows[:, 3] + 1j * rows[:, 4]
    if got.size != oracle.size:
        return Check(oracle.size, oracle.size, f"{got.size} rows for {oracle.size} points")
    return check_lanes(oracle, tol, (got, rows[:, 5]))


def _cli_transform(expected, parsed) -> Check:
    got = complex(*parsed["value"])
    return check_scalar(expected, parsed["roundoff_bound"], got)


def _cli_curve(path, inner, parsed) -> Check:
    chk = inner(parsed)
    try:
        curve = parse_csv(Path(path).read_text())
    except (OSError, ValueError) as exc:
        return Check(1, 1, f"curve CSV: {exc}", bad_output=True)
    if curve["header"] != ["re", "im"] or curve["rows"].shape[0] < 16:
        return Check(1, 1, "curve CSV has the wrong shape", bad_output=True)
    return chk


def cli() -> Workload:
    def setup(inp):
        subprocess.run([sys.executable, "-c", "import chordal.cli"], env=cli_env(inp["src"]),
                       check=True, timeout=CLI_TIMEOUT_S)
        t0 = time.perf_counter()
        _measures()
        return {"build_s": time.perf_counter() - t0, **inp}

    def ops(ctx):
        from chordal import loewner

        work, src = Path(ctx["workdir"]), ctx["src"]
        tol = loewner.SolverConfig().tol  # what `evolve` promises without --tol
        files = {"semi.json": SEMI_JSON, "d0.json": D0_JSON, "zero.json": {},
                 "d0-driver.json": D0_DRIVER, "atom-driver.json": ATOM_DRIVER,
                 "grid.json": [[z.real, z.imag] for z in ctx["grid"]]}
        for name, obj in files.items():
            (work / name).write_text(json.dumps(obj))
        grid = ctx["grid"]
        ladder = ",".join(repr(e) for e in EPS_LADDER)
        verdict = lambda want: lambda p: check_verdict(want, SimpleNamespace(verdict=p["verdict"]))
        mass = lambda want: lambda p: check_close(want, p["extrapolation_settle_tol"], p["value"])
        nev = lambda p: check_nevanlinna(NEVANLINNA_SEMI, p["ladder_settle_tol"],
                                         SimpleNamespace(b=p["b"], c=p["c"], nu_mass=p["nu_mass"]))
        curve = str(work / "curve.csv")
        # (name, task, tag, argv, format, expected exit, semantic check, lanes)
        table = [
            ("transform.2i", "transform", "", ["transform", "--measure", "semi.json", "--z", "2i"],
             "json", 0, partial(_cli_transform, complex(oracles.semicircle_cauchy(2j))), 1),
            ("transform.0.01i", "transform", "", ["transform", "--measure", "semi.json", "--z", "0.01i"],
             "json", 0, partial(_cli_transform, complex(oracles.semicircle_cauchy(0.01j))), 1),
            ("transform.nevanlinna", "transform", "", ["transform", "--measure", "semi.json",
                                                         "--op", "nevanlinna"], "json", 0, nev, 1),
            ("transform.nan", "transform", "", ["transform", "--measure", "semi.json", "--z", "nan+1i"],
             "json", 2, None, 1),
            ("invert.d0", "invert", "", ["invert", "--measure", "d0.json", "--interval", "-1,1",
                                         "--eps-ladder", ladder], "json", 0, mass(2.0), 1),
            ("evolve.d0", "evolve", "d0", ["evolve", "--driver", "d0-driver.json", "--t", "1",
                                           "--grid", "grid.json"], "csv", 0,
             partial(_cli_lanes, oracles.slit(grid, 1.0), tol), grid.size),
            ("evolve.atom", "evolve", "atom", ["evolve", "--driver", "atom-driver.json", "--t", "1",
                                               "--grid", "grid.json"], "csv", 0,
             partial(_cli_lanes, oracles.moving_atom_flow(grid, 1.0, ATOM), tol), grid.size),
            ("grunsky.semi.o8", "grunsky", "", ["grunsky", "--measure", "semi.json", "--order", "8"],
             "json", 0, verdict("pass"), 1),
            ("grunsky.semi.o24", "grunsky", "", ["grunsky", "--measure", "semi.json", "--order", "24"],
             "json", 0, verdict("pass"), 1),
            ("grunsky.moments.o4", "grunsky", "", ["grunsky", "--moments", CATALAN_4, "--order", "4"],
             "json", 0, verdict("pass"), 1),
            ("hayman.semi", "hayman", "plain", ["hayman", "--measure", "semi.json"], "json", 0,
             verdict("consistent_with_univalence"), 1),
            ("hayman.semi.curve-csv", "hayman", "curve-csv",
             ["hayman", "--measure", "semi.json", "--curve-csv", curve], "json", 0,
             partial(_cli_curve, curve, verdict("consistent_with_univalence")), 1),
            ("hayman.zero", "hayman", "", ["hayman", "--measure", "zero.json"], "json", 2, None, 1),
        ]
        env = cli_env(src)
        return [Op(name, "cli", task,
                   partial(subprocess.run, [sys.executable, "-m", "chordal.cli", *argv], cwd=work,
                           env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S),
                   partial(_cli_check, fmt, code, semantic, lanes), lanes, tag, single=True)
                for name, task, tag, argv, fmt, code, semantic, lanes in table]

    return Workload("cli", _cli_inputs, setup, ops)


WORKLOADS = {w.name: w for w in (flow_const(), flow_atom(), diagnose(), cli())}
