#!/usr/bin/env python3
"""Self-test of the benchmark: oracles, checkers and the output contract.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that

* every oracle agrees with an independent computation (mpmath at 40 digits,
  or a fine-step RK4) far below the bounds it is used to judge;
* the checkers flag a value perturbed by 1e-6, a bound inflated past the
  promised tolerance, a wrong verdict, and CLI output that breaks the
  exit-code or strict JSON/CSV contract;
* one failure beyond the seed's known failures turns ``correct`` false;
* a tiny run of each workload, untraced and traced, prints every metric
  named in BENCHMARK.json with its unit and nothing else.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE_TOL = 1e-12   # oracle error must sit this far below the ~1e-10 bounds it checks
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def rk4_fine(velocity, z, t, steps):
    w, h = np.array(z, dtype=complex), -t / steps
    for i in range(steps):
        s = t + i * h
        k1 = velocity(w, s)
        k2 = velocity(w + 0.5 * h * k1, s + 0.5 * h)
        k3 = velocity(w + 0.5 * h * k2, s + 0.5 * h)
        k4 = velocity(w + h * k3, s + h)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


def test_oracles():
    import oracles
    import workloads

    zs = workloads.grid_points()
    mpmath.mp.dps = 40

    def h(w):
        s = mpmath.sqrt(w - 2) * mpmath.sqrt(w + 2)
        return w * w / 4 + w * s / 4 - mpmath.log(w + s)

    worst = 0.0
    for z in zs[::9]:
        got = complex(oracles.semicircle_flow(np.array([z]), 1.0)[0])
        target = h(mpmath.mpc(z.real, z.imag)) - 1
        w = mpmath.mpc(got.real, got.imag)
        for _ in range(4):
            s = mpmath.sqrt(w - 2) * mpmath.sqrt(w + 2)
            w -= (h(w) - target) / ((w + s) / 2)
        worst = max(worst, abs(complex(w) - got))
    expect(worst < ORACLE_TOL, f"semicircle flow vs 40-digit Newton: {worst:.2e}")

    dens = lambda x: mpmath.sqrt(4 - x * x) / (2 * mpmath.pi)
    worst = 0.0
    for z in (2j, 0.3 + 0.2j, -1.5 + 0.05j):
        ref = mpmath.quad(lambda x: dens(x) / (mpmath.mpc(z.real, z.imag) - x), [-2, 0, 2])
        worst = max(worst, abs(complex(ref) - complex(oracles.semicircle_cauchy(z))))
    expect(worst < ORACLE_TOL, f"semicircle G vs 40-digit quadrature: {worst:.2e}")

    for t in (0.5, 2.0):
        fine = rk4_fine(lambda w, s: 1.0 / w, zs, t, 20000)
        err = np.abs(fine - oracles.slit(zs, t)).max()
        expect(err < ORACLE_TOL, f"slit map vs fine RK4 at t={t}: {err:.2e}")
        for name, samples in (("atom", workloads.ATOM), ("atom-seams", workloads.ATOM_SEAMS)):
            arr = np.asarray(samples)
            u = lambda s: np.interp(s, arr[:, 0], arr[:, 1])
            # RK4 steps land on the seams (integer times), so the path is smooth per step
            fine = rk4_fine(lambda w, s: 1.0 / (w - u(s)), zs, t, int(10000 * t))
            err = np.abs(fine - oracles.moving_atom_flow(zs, t, samples)).max()
            expect(err < ORACLE_TOL, f"{name} flow vs fine RK4 at t={t}: {err:.2e}")
    t = 2.0
    mid = rk4_fine(lambda w, s: oracles.semicircle_cauchy(w), zs, t - workloads.MIX_SWITCH, 12000)
    fine = oracles.slit(mid, workloads.MIX_SWITCH)
    got = oracles.piecewise_const_flow(zs, t, [(0.0, oracles.slit),
                                                (workloads.MIX_SWITCH, oracles.semicircle_flow)])
    err = np.abs(fine - got).max()
    expect(err < ORACLE_TOL, f"delta_0 -> semicircle flow vs fine RK4: {err:.2e}")


def test_checkers():
    import workloads as W

    zs = W.grid_points()
    ref = zs * 0.5
    tol = 1e-9
    bounds = np.full(zs.size, tol)
    expect(W.check_lanes(ref, tol, (ref, bounds)).failed == 0, "exact lanes pass")
    expect(W.check_lanes(ref, tol, (ref + 1e-6, bounds)).failed == zs.size, "lanes off by 1e-6 fail")
    bumped = ref.copy()
    bumped[7] += 1e-6
    expect(W.check_lanes(ref, tol, (bumped, bounds)).failed == 1, "one lane off by 1e-6 fails alone")
    expect(W.check_lanes(ref, tol, (ref * np.nan, bounds)).failed == zs.size, "NaN lanes fail")
    for inflated in (1.0, np.inf, np.nan):
        wide = bounds.copy()
        wide[7] = inflated
        got = W.check_lanes(ref, tol, (bumped, wide))
        expect(got.failed == 1, f"lane off by 1e-6 inside an inflated bound {inflated} still fails")
        got = W.check_lanes(ref, tol, (ref, wide))
        expect(got.failed == 1, f"exact lane with bound {inflated} above the promised tol fails")
    one = W.check_as_one(lambda out: W.check_lanes(ref, tol, out), (bumped, bounds))
    expect((one.lanes, one.failed) == (1, 1), "a batch counted as one op fails once")
    expect(W.check_scalar(1j, 1e-9, 1j + 1e-6).failed == 1, "scalar off by 1e-6 fails")
    expect(W.check_scalar(1j, 1e-9, 1j).failed == 0, "exact scalar passes")
    expect(W.check_close(2.0, 2e-3, 2.0 + 1e-6).failed == 0, "mass inside its tolerance passes")
    expect(W.check_close(0.0, 1e-3, 2e-3).failed == 1, "mass outside its tolerance fails")
    expect(W.check_verdict("pass", SimpleNamespace(verdict="fail")).failed == 1, "wrong verdict fails")
    expect(W.check_verdict("boundary", SimpleNamespace(verdict="boundary")).failed == 0,
           "right verdict passes")
    op = W.Op("x", "loewner", "grid", None, None, lanes=200)
    expect(W.classify(op, W.Refused(RuntimeError("no"))).failed == 200, "a refusal fails every lane")

    import metrics

    ops = [W.Op("grid.semi.t1", "loewner", "grid", None, None, lanes=200),
           W.Op("certificate.semi.o8", "grunsky", "grunsky", None, None)]
    known = {"grid.semi.t1": 8}
    right = W.check_verdict("pass", SimpleNamespace(verdict="pass"))
    wrong = W.check_verdict("pass", SimpleNamespace(verdict="fail"))
    seed = [W.Check(200, 8), right]
    expect(not metrics.unexpected_failures(ops, [seed, seed], known), "the known failures keep correct")
    expect(metrics.unexpected_failures(ops, [seed, [W.Check(200, 8), wrong]], known),
           "one new wrong verdict in one pass makes correct false")
    expect(metrics.unexpected_failures(ops, [[W.Check(200, 9), right]], known),
           "one more failing lane on a known op makes correct false")
    expect(not metrics.unexpected_failures(ops, [[W.Check(200, 0), right]], known),
           "fixing a known failure keeps correct")

    proc = lambda code, out="", err="": SimpleNamespace(returncode=code, stdout=out, stderr=err)
    cases = [
        (proc(0, '{"value": NaN}'), "json", True, "NaN in JSON"),
        (proc(1, "", "Traceback (most recent call last):\n  x\nTypeError: y"), "json", True, "traceback"),
        (proc(3, ""), "json", True, "exit code 3"),
        (proc(0, "t,re\n1,nan\n"), "csv", True, "nan in CSV"),
        (proc(0, '{"value": 1.5}'), "json", False, "strict JSON"),
        (proc(2, "", "error: bad input"), "json", False, "exit 2 with a message"),
        (proc(0, "t,re\n1,2\n"), "csv", False, "strict CSV"),
    ]
    for p, fmt, bad, what in cases:
        _, reason = W.parse_stdout(p, fmt)
        expect(bool(reason) == bad, f"CLI contract: {what} -> {'flagged' if bad else 'accepted'}")


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract keys")
    names = [m["name"] for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]]
    expect(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
           "names are unique and well formed")
    expect(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]), "units well formed")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()) and bounds.get("setup_s") == max(bounds.values()),
           "bounds in (0, 0.25], setup_s has the largest")
    expect(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]), "one-line whys")
    return spec


def test_tiny_runs(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            cmd = [*spec["command"], "--workload", wl["name"], "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            out = subprocess.run([sys.executable, *cmd[1:]], cwd=ROOT, capture_output=True, text=True,
                                 timeout=300)
            what = f"tiny {wl['name']} --trace {trace}"
            if out.returncode != 0:
                expect(False, f"{what}: exit {out.returncode}: {out.stderr[-300:]}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            finite = all(isinstance(v["value"], float) and math.isfinite(v["value"])
                         for v in res["metrics"].values())
            expect(set(res) == {"correct", "attempted", "failed", "metrics"} and got == want and finite
                   and res["attempted"] >= 1, f"{what}: every metric with its unit")
            expect(res["correct"] is True, f"{what}: no failure beyond the known ones")


def main():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    test_oracles()
    test_checkers()
    test_tiny_runs(test_spec())
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
