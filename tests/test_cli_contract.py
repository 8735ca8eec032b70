"""The command-line contract, one row per call: every `chordal` input ends in
exit 0 with the report alone, or in exit 1 or 2 with one stderr line and no
stdout.  Each row runs as its own process, so that a numpy warning or a
traceback would reach stderr.

A row holds an id, the argv, the exit code, a stdout check (a substring, or
a predicate on the text), the stderr line (empty for exit 0) and a timeout
in seconds.  An argv entry that is not a string is an input file: it is
written to ``tmp_path`` as JSON and its path takes its place.
"""

import json
import math
import subprocess
import sys

import pytest

SEMI = {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle"}]}
SEMI64 = {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle", "order": 64}]}
D0 = {"atoms": [[0.0, 1.0]]}
BERNOULLI_1 = {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}
# total mass 1.7e308 is finite, so the measure is accepted
HUGE_ATOMS = {"atoms": [[0.0, 1e308], [1.0, 7e307]]}
FAR_ATOMS = {"atoms": [[-1e308, 0.5], [1e308, 0.5]]}
ATOM_PIECES = {"type": "piecewise_constant", "breaks": [0.0], "measures": [D0]}
MOVING = {"type": "moving_atom", "samples": [[0.0, 0.0], [2.0, 1.0]]}
D0_DRIVER = {"horizon": 2.0, "driver": ATOM_PIECES}
SEMI_DRIVER = {"horizon": 1.0, "driver": {**ATOM_PIECES, "measures": [SEMI]}}
SEMI_SEGMENT = SEMI["segments"][0]
EPS_LADDER = ",".join(str(0.4 / 2**k) for k in range(8))
NUMBERS = "must hold numbers, not strings, booleans or objects"


def binomials(n):
    """The arcsine moments a_0..a_n: binom(k, k/2) for even k, 0 for odd k."""
    return ",".join(str(math.comb(k, k // 2) * (1 - k % 2)) for k in range(n + 1))


def huge_poly(lo, hi):
    return {"segments": [{"interval": [lo, hi], "density": "poly:1e-300,1,1e308"}]}


def report(text):
    """The JSON report; Infinity and NaN are not JSON and fail the row."""
    return json.loads(text, parse_constant=lambda name: pytest.fail(name))


def value(text):
    return complex(*report(text)["value"])


def positive_bound(text):
    return report(text)["roundoff_bound"] > 0


def far_above_axis(text):
    header, line = text.strip().split("\n")
    vals = [float(v) for v in line.split(",")]
    return vals[:5] == [1.0, 0.0, 1e200, 0.0, 1e200] and 0.0 < vals[5] <= 1e-9


def transform(measure, z, *flags):
    return ["transform", "--measure", measure, "--z", z, *flags]


def evolve(driver, t="5", z="1i"):
    return ["evolve", "--driver", driver, "--t", t, "--z", z]


def invert(interval, ladder):
    return ["invert", "--measure", D0, f"--interval={interval}", "--eps-ladder", ladder]


def nevanlinna(measure):
    return ["transform", "--measure", measure, "--op", "nevanlinna"]


def row(id, argv, code=0, out=None, err="", timeout=120):
    return pytest.param(argv, code, out, err, timeout, id=id)


ROWS = [
    # -- reports: exit 0, the report alone on stdout, nothing on stderr
    row("entry-point", transform(D0, "0.5+0.5i"),
        out=lambda o: abs(value(o) - 1 / (0.5 + 0.5j)) < 1e-15),
    row("catalan-pass", ["grunsky", "--moments", "1,0,1,0,2,0,5,0,14", "--order", "4"],
        out='"verdict": "pass"'),
    # the central binomials through a_32 are exact integers: no rounding is
    # charged, and the arcsine's g(z) = z - 1/z reads boundary
    row("binomials-boundary", ["grunsky", "--order", "16", "--moments", binomials(32)],
        out='"verdict": "boundary"'),
    row("semicircle-pass", ["grunsky", "--measure", SEMI, "--order", "8"],
        out='"verdict": "pass"'),
    # c = 1 for a probability measure, so the y-ladder settles within 1e-3 max(1, c)
    row("nevanlinna-settle-tol", nevanlinna(SEMI), out='"ladder_settle_tol": 0.001'),
    # the semicircle's density bound sizes the substeps (about 0.1 s); the
    # atom constants 1/eta, 1/eta^2 took about 10 s
    row("evolve-semicircle-endpoint", evolve(SEMI_DRIVER, "0.5", "2+0.001i"),
        out="t,re_z,im_z,re_f,im_f,err_bound", timeout=10),
    # Im z = 1e200 squares to inf inside the substep rule; that is the right limit
    row("evolve-far-above-axis", evolve(D0_DRIVER, "1", "1e200i"), out=far_above_axis),
    # Stieltjes inversion over the whole support counts the mass twice: 2
    row("invert-full-support",
        ["invert", "--measure", SEMI, "--interval", "-2,2", "--eps-ladder", EPS_LADDER],
        out=lambda o: abs(report(o)["value"] - 2.0) <= 1e-3, timeout=20),
    # the largest resolution the 2^24 exchange table admits at n = 8
    row("hayman-largest-resolution",
        ["hayman", "--measure", SEMI, "--resolution", "1048576", "--n", "8"],
        out='"n_points": 8', timeout=20),
    # the sum times n times eps, taken left to right, overflowed to Infinity
    row("huge-atoms-finite-bound", transform(HUGE_ATOMS, "1i"), out=positive_bound),
    # the closed form's coefficients overflow (and warned): the segment falls
    # back to its nodes, and the frozen-node report stands
    row("poly-huge-report", transform(huge_poly(-1.0, 1.0), "1i"), out=lambda o: report(o) == {
        "op": "cauchy", "roundoff_bound": 7.572111476201128e+293,
        "value": [3.508313044104e+290, -4.292036732051026e+307], "z": [0.0, 1.0]}),
    # |F|^2 taken as a float power overflowed into a traceback
    row("reciprocal-1e300i", transform(SEMI64, "1e300i", "--op", "reciprocal"),
        out=lambda o: positive_bound(o) and abs(value(o) - 1e300j) <= 1e-14 * 1e300),
    row("reciprocal-1e200+1e-200i", transform(SEMI64, "1e200+1e-200i", "--op", "reciprocal"),
        out=positive_bound),

    # -- input errors: exit 2
    # argparse took "-i" for an option string and printed its usage message
    row("z-minus-i", transform(SEMI, "-i"),
        2, err="error: z must lie in the open upper half-plane"),
    row("invert-width-overflows", invert("-1e308,1e308", "0.4,0.2,0.1"),
        2, err="error: interval width hi - lo overflows"),
    row("invert-inf-end", invert("0,inf", "0.4,0.2,0.1"),
        2, err="error: interval endpoints must be finite"),
    row("invert-nan-end", invert("nan,1", "0.4,0.2,0.1"),
        2, err="error: interval endpoints must be finite"),
    row("invert-nan-rung", invert("0,1", "0.4,nan"), 2, err="error: eps ladder must be finite"),
    row("invert-inf-rung", invert("0,1", "inf,0.4"), 2, err="error: eps ladder must be finite"),
    # rejected before any transform, which printed a RuntimeWarning and NaN
    # or Infinity with exit 0
    row("measure-width-overflows",
        transform({"segments": [{"interval": [-1e308, 1e308], "density": "uniform"}]}, "i"),
        2, err="error: segment width hi - lo overflows"),
    row("measure-mass-overflows", transform({"atoms": [[0.0, 1e308], [1.0, 1e308]]}, "i"),
        2, err="error: total mass overflows"),
    # each asked numpy for terabytes and ended in a MemoryError traceback
    row("order-1e6", transform({"segments": [{**SEMI_SEGMENT, "order": 10**6}]}, "2i"),
        2, err="error: quadrature order must be an integer in [2, 2048]"),
    row("resolution-1e12", ["hayman", "--measure", SEMI, "--resolution", str(10**12)],
        2, err="error: 2*resolution*n exceeds 2^24, the size of the exchange table"),
    # 1e308 x^2 passes the float range on the nodes: three RuntimeWarnings
    # came before the refusal
    row("poly-overflow-2-2", transform(huge_poly(-2.0, 2.0), "1i"),
        2, err="error: density must be finite and nonnegative on nodes"),
    row("poly-overflow-0-3", transform(huge_poly(0.0, 3.0), "1i"),
        2, err="error: density must be finite and nonnegative on nodes"),
    # the uniform density's bound 1/(hi - lo) ended in a ZeroDivisionError traceback
    row("segment-on-a-point",
        transform({"segments": [{"interval": [1.0, 1.0], "density": "uniform"}]}, "i"),
        2, err="error: segment needs lo < hi"),
    # with --eps 1 three RuntimeWarnings and "d_image": NaN came with exit 0;
    # without it the refusal named an epsilon that was never passed
    row("hayman-wide-support-eps-1", ["hayman", "--measure", FAR_ATOMS, "--eps", "1"],
        2, err="error: support width hi - lo overflows"),
    row("hayman-wide-support-default-eps", ["hayman", "--measure", FAR_ATOMS],
        2, err="error: support width hi - lo overflows"),
    # the moments overflow: two RuntimeWarnings came before the refusal
    row("grunsky-far-atom", ["grunsky", "--measure", {"atoms": [[1e300, 1.0]]}, "--order", "8"],
        2, err="error: moments must be finite"),
    row("grunsky-far-uniform", ["grunsky", "--order", "8", "--measure", {
        "segments": [{"interval": [1e200, 2e200], "density": "uniform"}]}],
        2, err="error: moments must be finite"),
    # numbers written as strings and booleans: float() and numpy read "1" and
    # true, and each printed G = -i with exit 0
    row("measure-string-mass", transform({"atoms": [["0", "1"]], "mass": "1"}, "1i"),
        2, err=f"error: declared mass {NUMBERS}"),
    row("measure-string-atoms", transform({"atoms": [["0", "1"]]}, "1i"),
        2, err=f"error: atoms {NUMBERS}"),
    row("measure-boolean-weight", transform({"atoms": [[0, True]]}, "1i"),
        2, err=f"error: atoms {NUMBERS}"),
    row("measure-string-interval",
        transform({"segments": [{**SEMI_SEGMENT, "interval": ["-2", "2"]}]}, "1i"),
        2, err=f"error: segment interval {NUMBERS}"),
    # a misspelt key read as the zero measure or was dropped without a word
    row("measure-key-atom", transform({"atom": [[0, 1]]}, "1i"),
        2, err="error: unknown measure key 'atom' (expected atoms, segments, mass)"),
    row("measure-key-segmnts", transform({"segmnts": [SEMI_SEGMENT]}, "1i"),
        2, err="error: unknown measure key 'segmnts' (expected atoms, segments, mass)"),
    row("measure-key-ordr", transform({"segments": [{**SEMI_SEGMENT, "ordr": 8}]}, "1i"),
        2, err="error: unknown segment key 'ordr' (expected interval, density, order)"),
    row("driver-string-breaks", evolve({"driver": {**ATOM_PIECES, "breaks": ["0"]}}),
        2, err=f"error: breaks {NUMBERS}"),
    row("driver-string-horizon", evolve({"horizon": "2", "driver": ATOM_PIECES}),
        2, err=f"error: horizon {NUMBERS}"),
    row("driver-boolean-horizon", evolve({"horizon": True, "driver": ATOM_PIECES}),
        2, err=f"error: horizon {NUMBERS}"),
    row("driver-string-samples",
        evolve({"driver": {**MOVING, "samples": [[0.0, 0.0], ["2", 1.0]]}}),
        2, err=f"error: samples {NUMBERS}"),
    # evolve --t 5 answered past the horizon the file meant
    row("driver-key-horizn", evolve({"horizn": 4.0, "driver": ATOM_PIECES}),
        2, err="error: unknown driver wrapper key 'horizn' (expected horizon, driver)"),
    row("driver-bare-horizon", evolve({**MOVING, "horizon": 6.0}),
        2, err="error: unknown driver key 'horizon' (expected type, samples)"),
    row("driver-measure-key-atom",
        evolve({"driver": {**ATOM_PIECES, "measures": [{"atom": [[0, 1]]}]}}),
        2, err="error: unknown measure key 'atom' (expected atoms, segments, mass)"),
    # read as the points 0+1i and 1+2i with exit 0
    row("grid-strings-and-booleans",
        ["evolve", "--driver", D0_DRIVER, "--t", "0.5", "--grid", [["0", "1"], [True, 2]]],
        2, err=f"error: --grid entries {NUMBERS}"),

    # -- numerical refusals: exit 1
    # no horizon, t = 1e300: the substep rule overflows before the first step
    row("evolve-huge-span", evolve({"driver": ATOM_PIECES}, "1e300"),
        1, err="non-convergence: time span too long for the requested tolerance"),
    # 1e6 time units at max_step 1 need more than the 200,000-round cap
    row("evolve-round-cap", evolve({"driver": ATOM_PIECES}, "1e6"),
        1, err="non-convergence: substep count exceeded the global cap", timeout=10),
    row("grunsky-huge-moments", ["grunsky", "--moments", "1,1e200,1,0,2", "--order", "2"],
        1, err="non-convergence: Grunsky matrix overflowed"),
    # at 0.5+0.5i the bound's sum overflows, at 0.5+0.001i the value too;
    # G(1e-300i) = -1e-300i puts |F|^2 near 1e600, and atoms at +-1e308 give
    # G(i) = -i/(1e616 + 1), which underflows to 0
    row("transform-overflow-bound", transform(HUGE_ATOMS, "0.5+0.5i"),
        1, err="non-convergence: cauchy transform overflowed"),
    row("transform-overflow-value", transform(HUGE_ATOMS, "0.5+0.001i"),
        1, err="non-convergence: cauchy transform overflowed"),
    row("reciprocal-overflow-bound", transform(BERNOULLI_1, "1e-300i", "--op", "reciprocal"),
        1, err="non-convergence: reciprocal transform overflowed"),
    row("reciprocal-underflow-value", transform(FAR_ATOMS, "1i", "--op", "reciprocal"),
        1, err="non-convergence: Cauchy transform underflowed to zero"),
    # G(i) is the subnormal 1.66e-316 on a 2e300-wide uniform, so F(i) =
    # 1/G(i) overflows; atoms at +-1e150 give F(z) = z - 1e300/z, whose
    # c = 1 lies far below the rounding of the rungs
    row("nevanlinna-f-of-i",
        nevanlinna({"segments": [{"interval": [-1e300, 1e300], "density": "uniform"}]}),
        1, err="non-convergence: F(i) is not finite"),
    row("nevanlinna-rungs", nevanlinna({"atoms": [[-1e150, 0.5], [1e150, 0.5]]}),
        1, err="non-convergence: linear-coefficient ladder did not settle"),
]


@pytest.mark.parametrize("argv, code, out, err, timeout", ROWS)
def test_cli_contract(tmp_path, argv, code, out, err, timeout):
    args = []
    for k, a in enumerate(argv):
        if not isinstance(a, str):
            path = tmp_path / f"input{k}.json"
            path.write_text(json.dumps(a))
            a = str(path)
        args.append(a)
    proc = subprocess.run([sys.executable, "-m", "chordal.cli", *args],
                          capture_output=True, text=True, timeout=timeout)
    assert (proc.returncode, proc.stderr) == (code, err + "\n" if err else "")
    if code:
        assert proc.stdout == ""
    elif isinstance(out, str):
        assert out in proc.stdout
    else:
        assert out(proc.stdout), proc.stdout
