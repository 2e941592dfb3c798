"""Inputs and task lists of the four benchmark workloads.

`build(workload, seed, workdir)` makes a workload's inputs from the seed and
returns its fixed task list, one round of work.  Every task calls ietlab
through module attributes (`measures.estimate_ergodic_count`, ...) at call
time, so the traced run can wrap those functions from outside.  Each task's
check returns True, returns False for a counted failure, or raises
CheckError.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from ietlab import (dimension_group, iet, induction, measures, numbers,
                    rotation, serialize, symbolic)

import checks
from checks import require

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# census: 16 starts of 1e5 float steps per spec
CENSUS_STARTS, CENSUS_STEPS = 16, 10 ** 5
CENSUS_TOL = 0.1          # cluster tolerance, as in acceptance criterion 9
LEBESGUE_L1_TOL = 0.02    # oriented, minimal: empirical vs bin widths
# itinerary
CODE_STEPS, STATS_N = 10_000, 8
FLOAT_ORBIT_STEPS = 50_000
EXACT_ORBIT_STEPS = 400
# certify
MAX_BLOCK = 12
VERDICT_DEPTHS = (40, 200)
ROTATION_DS = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 23)
MODULAR_DEPTH = 300


@dataclass
class Task:
    name: str
    kind: str                        # warm-up runs one task of each kind
    run: Callable[[], object]
    check: Callable[[object], bool]
    argv: list = field(default_factory=list)   # cli tasks only


def _irreducible(pi) -> bool:
    return all(max(pi[:k]) != k for k in range(1, len(pi)))


PERMS4 = [p for p in itertools.permutations(range(1, 5)) if _irreducible(p)]
GOLDEN_F = (math.sqrt(5) - 1) / 2


# bound at import, so that output checks stay outside the traced run's spans
TO_JSON = serialize.scalar_to_json


def float_4iet(rng, flips=False):
    raw = [rng.random() + 0.1 for _ in range(4)]
    lam = [v / sum(raw) for v in raw]
    lam[-1] = 1.0 - sum(lam[:-1])
    pi = rng.choice(PERMS4)
    signs = [1] * 4
    if flips:
        signs = [rng.choice((1, -1)) for _ in range(4)]
        signs[rng.randrange(4)] = -1
    return iet.validate(lam, pi, signs, mode="float")


def self_similar_4iet(rng, max_steps=24):
    """Oriented 4-IET with a periodic Rauzy path: a random closed walk in
    the Rauzy graph whose product M is positive, lengths the Perron
    eigenvector of M.  Such an IET is minimal and uniquely ergodic (Veech),
    satisfies Keane's condition and is of bounded type, so its orbits
    equidistribute fast enough for 1e5-step censuses and 1e4-symbol
    complexity counts to show the limits."""
    while True:
        pi = rng.choice(PERMS4)
        top, bottom = [1, 2, 3, 4], [0] * 4
        for i, p in enumerate(pi, start=1):
            bottom[p - 1] = i
        start, m = (top[:], bottom[:]), np.eye(4, dtype=np.int64)
        for _ in range(max_steps):
            t, b = top[-1], bottom[-1]
            e = np.eye(4, dtype=np.int64)
            if rng.random() < 0.5:          # top letter wins
                bottom.pop()
                bottom.insert(bottom.index(t) + 1, b)
                e[t - 1, b - 1] = 1
            else:
                top.pop()
                top.insert(top.index(b) + 1, t)
                e[b - 1, t - 1] = 1
            m = m @ e
            if (top, bottom) == start and np.all(m > 0):
                vals, vecs = np.linalg.eig(m.astype(float))
                v = np.abs(vecs[:, np.argmax(vals.real)].real)
                lam = list(v / v.sum())
                lam[-1] = 1.0 - sum(lam[:-1])
                return iet.validate(lam, pi, mode="float")


def golden_float():
    return iet.validate((1 - GOLDEN_F, GOLDEN_F), (2, 1), mode="float")


def golden_exact():
    a = numbers.golden_alpha()
    return iet.validate((1 - a, a), (2, 1))


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def _check_census(spec, census, golden):
    flips = not spec.oriented
    require(sum(c for _, c in census.clusters) == CENSUS_STARTS,
            "cluster members do not add up to the starts")
    require(census.estimated_count == len(census.clusters), "count mismatch")
    require(census.bound == checks.measure_bound(spec.n, flips),
            f"bound {census.bound} for n={spec.n} flips={flips}")
    require(census.bound_respected is not False, "measure bound exceeded")
    require((census.bound_respected is None) == census.non_minimal_flag,
            "bound check not informational exactly when non-minimal")
    for m, _ in census.clusters:
        require(m.iterates == CENSUS_STEPS, "iterate count")
        require(abs(sum(m.masses) - 1.0) < 1e-9, "masses do not sum to 1")
        if spec.oriented and not census.non_minimal_flag:
            l1 = checks.lebesgue_l1(m.bin_edges, m.masses)
            require(l1 <= LEBESGUE_L1_TOL,
                    f"L1 {l1:.4f} from Lebesgue on an oriented minimal run")
    if golden:
        require(census.estimated_count == 1, "golden rotation: >1 cluster")
        m = census.clusters[0][0]
        cut = 1 - GOLDEN_F
        avg = sum(mass for hi, mass in zip(m.bin_edges[1:], m.masses)
                  if hi <= cut + 1e-12)
        require(abs(avg - cut) <= 1e-3,
                f"golden Birkhoff average {avg} vs {cut}")
    return True


def census_tasks(rng):
    specs = [("oriented", self_similar_4iet(rng)),
             ("oriented", self_similar_4iet(rng)),
             ("flips", float_4iet(rng, True)), ("flips", float_4iet(rng, True)),
             ("golden", golden_float())]
    tasks = []
    for i, (label, spec) in enumerate(specs):
        starts = [rng.random() for _ in range(CENSUS_STARTS)]

        def run(spec=spec, starts=starts):
            return measures.estimate_ergodic_count(
                spec, starts, CENSUS_STEPS, cluster_tol=CENSUS_TOL)

        tasks.append(Task(f"census {label} {i}", "census", run,
                          lambda c, spec=spec, g=label == "golden":
                          _check_census(spec, c, g)))
    return tasks


# ---------------------------------------------------------------------------
# itinerary
# ---------------------------------------------------------------------------

def _check_code(out, n_minus_1):
    ray, stats = out
    require(len(ray) == CODE_STEPS + 1, "ray length")
    for s in stats:
        p = n_minus_1 * s.N + 1
        require(s.distinct_blocks == p, f"p({s.N}) = {s.distinct_blocks}, "
                f"expected {p}")
        require(s.transitivity is not None and s.covering is not None,
                f"N={s.N}: missing index")
        require(s.transitivity >= s.covering >= p + s.N - 1,
                f"N={s.N}: phi {s.transitivity} theta {s.covering} p {p}")
    return True


def _check_exact_golden(x0, orb):
    require(len(orb.points) == EXACT_ORBIT_STEPS + 1, "orbit length")
    for k, pt in enumerate(orb.points):
        got = checks.pair(pt, 5, TO_JSON)
        require(got == checks.golden_orbit_point(x0, k),
                f"exact golden point {k} from {x0}")
    return True


def _check_float_orbit(spec, orb):
    pts = np.asarray(orb.points, dtype=float)
    idx = np.asarray(orb.interval_indices)
    require(len(pts) == FLOAT_ORBIT_STEPS + 1 and len(idx) == len(pts),
            "orbit length")
    require(bool(np.all((pts >= 0) & (pts < 1))), "point outside [0, 1)")
    lam = np.asarray(spec.lengths)
    beta = np.concatenate(([0.0], np.cumsum(lam)))
    ref = np.minimum(np.searchsorted(beta[1:-1], pts, side="right") + 1,
                     spec.n)
    near = np.min(np.abs(pts[:, None] - beta[None, 1:-1]), axis=1) < 1e-12
    require(bool(np.all((ref == idx) | near)), "interval index mismatch")
    # oriented: x_{k+1} - x_k is the translation of x_k's interval
    inv = np.argsort(spec.pi)
    beta_pi = np.concatenate(([0.0], np.cumsum(lam[inv])))
    shift = beta_pi[np.asarray(spec.pi) - 1] - beta[:-1]
    step = pts[1:] - pts[:-1] - shift[idx[:-1] - 1]
    require(float(np.max(np.abs(step))) < 1e-9, "not a translation step")
    return True


def _itinerary(spec, gold_spec, x_float, x_exact):
    orb = iet.orbit(spec, x_float, FLOAT_ORBIT_STEPS)
    gold = iet.orbit(gold_spec, x_exact, EXACT_ORBIT_STEPS)
    ray = symbolic.code_orbit(spec, x_float, CODE_STEPS)
    stats = [symbolic.block_stats(ray, n) for n in range(1, STATS_N + 1)]
    return orb, gold, ray, stats


def _check_itinerary(spec, x_exact, out):
    orb, gold, ray, stats = out
    return (_check_float_orbit(spec, orb)
            and _check_exact_golden(x_exact, gold)
            and _check_code((ray, stats), spec.n - 1))


def itinerary_tasks(rng):
    """Six itineraries of one make-up, so that task times are alike: a
    float orbit, an exact golden orbit, and the coding of the float orbit
    with its block statistics for N = 1..8.  The five 4-IETs are fixed and
    the seed draws the starting points: the cost of `block_stats` varies by
    19% between specs, which would otherwise spread `wall_s` across seeds
    more than the host does."""
    fixed = random.Random("itinerary-specs")
    specs = [self_similar_4iet(fixed) for _ in range(5)] + [golden_float()]
    gold = golden_exact()
    tasks = []
    for i, spec in enumerate(specs):
        x_float, x_exact = rng.random(), Fraction(rng.randrange(1, 97), 97)
        tasks.append(Task(
            f"itinerary {i}", "itinerary",
            lambda spec=spec, xf=x_float, xe=x_exact:
                _itinerary(spec, gold, xf, xe),
            lambda out, spec=spec, xe=x_exact:
                _check_itinerary(spec, xe, out)))
    return tasks


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _recovery(spec, seq, to_json=TO_JSON):
    """M_1 ... M_K lambda_K proportional to lambda: exactly for exact specs
    (pairs over Q(sqrt d)), within 1e-10 for float specs."""
    prod = None
    for m in seq.matrices:
        require(sum(v for row in m for v in row) == len(m) + 1
                and all(v in (0, 1) for row in m for v in row),
                "matrix not elementary")
        prod = m if prod is None else checks.mat_mul(prod, m)
    if spec.mode == "float":
        v = np.asarray(prod, dtype=float) @ np.asarray(seq.final_lengths)
        lam = np.asarray(spec.lengths)
        require(float(np.max(np.abs(v / v.sum() - lam))) < 1e-10,
                "float length recovery")
        return True
    d = next((to_json(x)["d"] for x in spec.lengths
              if isinstance(to_json(x), dict)), 1)
    lam = [checks.pair(x, d, to_json) for x in spec.lengths]
    fin = [checks.pair(x, d, to_json) for x in seq.final_lengths]
    v = [checks.pdot(row, fin) for row in prod]
    for i in range(len(v)):
        lhs = checks.pmul(v[i], lam[0], d)
        rhs = checks.pmul(v[0], lam[i], d)
        require(lhs == rhs, "exact length recovery not proportional")
    return True


def _induce_simplices(spec):
    seq = induction.induce(spec, 40)
    return seq, [dimension_group.state_simplex(seq, k)
                 for k in range(1, 41, 3)]


def _check_simplices(approxes):
    prev = None
    for a in approxes:
        for col in a.columns:
            require(sum(col) == 1, f"simplex column at k={a.k} sums to "
                    f"{sum(col)}")
        require(prev is None or a.diameter <= prev,
                f"diameter grows at k={a.k}")
        prev = a.diameter
    return True


def _check_verdict(verdict):
    require(verdict.status in ("StrictlyErgodic", "LikelyErgodic",
                               "Inconclusive"), f"status {verdict.status}")
    if verdict.status == "StrictlyErgodic":
        c = verdict.certificate
        m = np.asarray(c.witness.block_product, dtype=float)
        rho = float(max(abs(np.linalg.eigvals(m))))
        require(c.pf.lower_cw <= c.pf.upper_cw
                and float(c.pf.lower_cw) <= rho * (1 + 1e-9)
                and float(c.pf.upper_cw) >= rho * (1 - 1e-9),
                "PF bracket misses the spectral radius")
    return True


def _connection_free(lengths, pi, depth) -> bool:
    """Rauzy induction on 60-digit rational approximations of the lengths:
    False when two competing lengths agree to 40 digits, which is how an
    exact connection (a KeaneViolation in ietlab) shows."""
    n = len(pi)
    top, bottom = list(range(1, n + 1)), [0] * n
    for i, p in enumerate(pi, start=1):
        bottom[p - 1] = i
    lam = dict(zip(top, lengths))
    for _ in range(depth):
        t, b = top[-1], bottom[-1]
        diff = lam[t] - lam[b]
        if abs(diff) < Fraction(1, 10 ** 40):
            return False
        if diff > 0:
            lam[t] = diff
            bottom.pop()
            bottom.insert(bottom.index(t) + 1, b)
        else:
            lam[b] = -diff
            top.pop()
            top.insert(top.index(b) + 1, t)
    return True


def quadratic_iet(rng, n, depth):
    """Exact IET with lengths m_i + k_i*frac(sqrt d), m_i, k_i in 1..9,
    normalised to sum 1 in ietlab's own arithmetic; drawn again until
    induction runs `depth` steps without a connection."""
    perms = [p for p in itertools.permutations(range(1, n + 1))
             if _irreducible(p)]
    while True:
        d = rng.choice((2, 3, 5, 7))
        coeffs = [(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        pi = rng.choice(perms)
        s = math.isqrt(d)
        approx = Fraction(math.isqrt(d * 10 ** 120), 10 ** 60) - s
        if _connection_free([m + k * approx for m, k in coeffs], pi, depth):
            break
    theta = numbers.quad(-s, 1, d)
    raw = [m + k * theta for m, k in coeffs]
    total = sum(raw[1:], raw[0])
    return iet.validate([x / total for x in raw], pi)


def primitive_2x2(rng):
    while True:
        a, b, c, e = (rng.randint(0, 6) for _ in range(4))
        if b and c and (a or e):          # irreducible and aperiodic
            return ((a, b), (c, e))


def unimodular(rng):
    g = ((1, 0), (0, 1))
    for _ in range(rng.randint(2, 4)):
        g = checks.mat_mul(g, ((rng.randint(1, 3), 1), (1, 0)))
    return g


def certify_tasks(rng):
    tasks = []
    rotations = [("golden", golden_exact(), checks.GOLDEN_RATIO)]
    for d in ROTATION_DS:
        alpha = numbers.quad(-math.isqrt(d), 1, d)
        rotations.append((f"sqrt{d}", iet.validate((1 - alpha, alpha), (2, 1)),
                          checks.sqrt_rotation_ratio(d)))
    for name, spec, ratio in rotations:
        for depth in VERDICT_DEPTHS:
            tasks.append(Task(
                f"verdict {name} d{depth}", f"verdict_rotation_{depth}",
                lambda spec=spec, depth=depth:
                    dimension_group.strict_ergodicity_verdict(
                        spec, depth, MAX_BLOCK),
                lambda v, name=name, ratio=ratio, depth=depth:
                    checks.check_rotation_verdict(name, ratio, depth,
                                                  MAX_BLOCK, v)))
    specs = [("quadratic", quadratic_iet(rng, 3, 40)),
             ("quadratic", quadratic_iet(rng, 4, 40)),
             ("float", float_4iet(rng)), ("float", float_4iet(rng))]
    for i, (label, spec) in enumerate(specs):
        tasks.append(Task(f"induce {label} {i}", f"induce_{label}",
                          lambda spec=spec: _induce_simplices(spec),
                          lambda out, spec=spec: _recovery(spec, out[0])
                          and _check_simplices(out[1])))
        tasks.append(Task(f"verdict {label} {i}", f"verdict_{label}",
                          lambda spec=spec:
                              dimension_group.strict_ergodicity_verdict(
                                  spec, 40, MAX_BLOCK),
                          _check_verdict))
    for i in range(4):
        m = primitive_2x2(rng)
        tasks.append(Task(
            f"pf {m}", "pf", lambda m=m: dimension_group.perron_frobenius(m),
            lambda r, m=m: require(checks.pf_bracket_holds_2x2(
                m, r.lower_cw, r.upper_cw), f"PF bracket of {m}")))
    for i in range(3):
        d = rng.choice((2, 3, 5, 6, 7, 10, 11, 13))
        x = numbers.quad(Fraction(rng.randint(-5, 5), rng.randint(1, 7)),
                         Fraction(1, rng.randint(1, 5)), d)
        (a, b), (c, e) = unimodular(rng)
        gx = (a * x + b) / (c * x + e)
        tasks.append(Task(
            f"modular {i}", "modular",
            lambda x=x, gx=gx: rotation.modular_equivalent(x, gx,
                                                           MODULAR_DEPTH),
            lambda r: require(r is True, "g.x not equivalent to x")))
    x, y = numbers.quad(0, 1, 2), numbers.quad(1, 1, 3)
    tasks.append(Task(
        "modular fields", "modular",
        lambda: rotation.modular_equivalent(x, y, MODULAR_DEPTH),
        lambda r: require(r is False, "sqrt2 ~ sqrt3 reported")))
    for i in range(2):
        # unimodular ((a, ad - 1), (1, d)) with a, d >= 2: every tail map
        # y -> d_j + a_{j+1} - 1/y is hyperbolic, so the surd is irrational
        block = [((a, a * d - 1), (1, d)) for a, d in
                 ((rng.randint(2, 4), rng.randint(2, 4))
                  for _ in range(rng.randint(1, 3)))]
        tasks.append(Task(
            f"surd {i}", "surd",
            lambda block=block: rotation.detect_quadratic_surd(block),
            lambda s, block=block: _check_surd(block, s)))
    return tasks


def _check_surd(block, surd):
    """The surd's root solves its polynomial and is the limit of the
    fraction a1/c1 - c1^-2/(d1/c1 + a2/c2 - c2^-2/(...)), evaluated here
    from the inside out over many periods."""
    A, B, C = surd.coefficients
    require(A > 0 and math.gcd(A, B, C) == 1, "coefficients not primitive")
    disc = B * B - 4 * A * C
    require(disc > 0 and math.isqrt(disc) ** 2 != disc, "root not irrational")
    root = (-B + surd.root_sign * math.sqrt(disc)) / (2 * A)
    mats = block * (60 // len(block) + 1)
    tail = mats[-1][1][1] / mats[-1][1][0]
    for j in range(len(mats) - 2, -1, -1):
        (_, _), (cj, dj) = mats[j]
        (an, _), (cn, _) = mats[j + 1]
        tail = dj / cj + an / cn - 1 / (cn * cn * tail)
    (a1, _), (c1, _) = mats[0]
    theta = a1 / c1 - 1 / (c1 * c1 * tail)
    require(abs(theta - root) < 1e-9 and abs(surd.approx - root) < 1e-9,
            f"surd root {root} vs fraction {theta}")
    return True


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def child_env():
    """Environment of every child interpreter: ietlab from this checkout,
    and bytecode cached under bench/out/pycache (never in src/) whatever
    PYTHONDONTWRITEBYTECODE says, as an installed package has it; without
    the cache every child compiled ietlab again, 12% of a CLI call."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               PYTHONPYCACHEPREFIX=str(HERE / "out" / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


def run_cli(argv, env) -> CliRun:
    """One fresh `python -m ietlab.cli` process, with its own rusage."""
    proc = subprocess.Popen([sys.executable, "-m", "ietlab.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    out = proc.stdout.read()
    err = proc.stderr.read()
    proc.stdout.close()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(proc.returncode, out, err, usage.ru_maxrss)


def in_process(task: Task) -> Task:
    """The same CLI call through `ietlab.cli.main` inside this process."""
    def run():
        from ietlab import cli      # not part of the set-up of other runs
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(task.argv)
        return CliRun(code, buf.getvalue().encode(), b"", 0)
    return Task(task.name, task.kind, run, task.check, task.argv)


class CliChecker:
    """Exit code, schema and closed-form checks of one CLI document."""

    def __init__(self):
        self._validator = None
        self._seen = {}

    def doc(self, run: CliRun, replay_key=None):
        require(run.code == 0, f"exit {run.code}: {run.stderr[-300:]!r}")
        if self._validator is None:
            import jsonschema
            schema = json.loads((SRC / "ietlab" / "schemas"
                                 / "result.schema.json").read_text())
            self._validator = jsonschema.Draft7Validator(schema)
        doc = json.loads(run.stdout)
        errors = [e.message for e in self._validator.iter_errors(doc)]
        require(not errors, f"schema: {errors[:2]}")
        if replay_key is not None:
            first = self._seen.setdefault(replay_key, run.stdout)
            require(first == run.stdout, f"{replay_key}: replay differs")
        return doc["result"]


def cli_tasks(rng, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()
    golden = workdir / "golden.json"
    golden.write_text(json.dumps({
        "lambda": [{"a": "3/2", "b": "-1/2", "d": 5},
                   {"a": "-1/2", "b": "1/2", "d": 5}],
        "pi": [2, 1], "epsilon": [1, 1], "mode": "exact"}))
    gfloat = workdir / "golden_float.json"
    gfloat.write_text(json.dumps(serialize.spec_to_dict(golden_float())))
    four = workdir / "four.json"
    four.write_text(json.dumps(serialize.spec_to_dict(self_similar_4iet(rng))))
    fib = workdir / "fib.json"
    fib.write_text('[[["2","1"],["1","1"]]]')
    xq = Fraction(rng.randrange(1, 97), 97)
    x = f"{xq.numerator}/{xq.denominator}"
    pf_m = primitive_2x2(rng)
    n = rng.randint(3, 9)
    measure_seed = rng.randrange(1000)
    ck = CliChecker()
    alpha = GOLDEN_F

    def c_eval(r):
        res = ck.doc(r)
        first = float(xq) < 1 - alpha
        want = float(xq) + alpha if first else float(xq) - (1 - alpha)
        require(abs(res["value"] - want) < 1e-12, f"eval {res['value']}")
        require(res["interval_index"] == (1 if first else 2), "eval index")
        return True

    def c_orbit(r):
        res = ck.doc(r)
        pts = res["points"]
        require(len(pts) == 51, "orbit length")
        want = [(float(xq) + k * alpha) % 1 for k in range(51)]
        require(max(abs(a - b) for a, b in zip(pts, want)) < 1e-9, "orbit")
        return True

    def c_code(r):
        res = ck.doc(r)
        require(len(res["symbols"]) == 5001, "code length")
        for s in res["block_stats"]:
            p = 3 * s["N"] + 1
            require(s["p"] == p and s["phi"] >= s["theta"] >= p + s["N"] - 1,
                    f"code stats {s}")
        return True

    def c_induce(r):
        res = ck.doc(r)
        require(len(res["matrices"]) == 40 and set(res["tags"]) <= {"a", "b"},
                "induce")
        tags = "".join(res["tags"])
        require(tags == checks.rotation_path(checks.GOLDEN_RATIO, 40)[0],
                "golden Rauzy path")
        return True

    def c_stationary(r):
        w = ck.doc(r)["witness"]
        require(w is not None and w["block_length"] == 2, "golden witness")
        return True

    def c_ergodic(depth):
        def check(r):
            res = ck.doc(r)
            require(res["status"] == "StrictlyErgodic", "golden not strict")
            cert = res["certificate"]
            m = tuple(tuple(int(v) for v in row)
                      for row in cert["witness"]["block_product"])
            require(checks.pf_bracket_holds_2x2(
                m, Fraction(cert["pf"]["lower"]), Fraction(cert["pf"]["upper"])),
                "ergodic PF bracket")
            diams = cert["diameters"]
            require(len(diams) == depth and all(
                b <= a for a, b in zip(diams, diams[1:])), "diameters")
            return True
        return check

    def c_simplex(r):
        res = ck.doc(r)
        cols = [[Fraction(v) for v in col] for col in res["columns"]]
        require(all(sum(c) == 1 for c in cols), "simplex columns")
        return True

    def c_pf(r):
        res = ck.doc(r)
        require(checks.pf_bracket_holds_2x2(
            pf_m, Fraction(res["lower"]), Fraction(res["upper"])), "pf bracket")
        (a, b), (c, e) = pf_m
        root = (a + e + math.sqrt((a + e) ** 2 - 4 * (a * e - b * c))) / 2
        require(abs(res["eigenvalue"] - root) < 1e-9 * root, "pf eigenvalue")
        return True

    def c_rotation(r):
        res = ck.doc(r)
        require(res["surd"]["coefficients"] == [1, -1, -1], "fib surd")
        require(abs(res["value"] - (1 + math.sqrt(5)) / 2) < 1e-9, "fib value")
        return True

    def c_measures(r):
        res = ck.doc(r, replay_key="measures")
        require(res["estimated_count"] == 1 and res["bound"] == 1,
                "golden census")
        return True

    def c_bounds(flips):
        def check(r):
            require(ck.doc(r)["bound"] == checks.measure_bound(n, flips),
                    "bounds")
            return True
        return check

    def c_kgroups(r):
        res = ck.doc(r)
        require((res["k0_rank"], res["k1_rank"]) == (n, 1), "kgroups")
        return True

    def c_surface(r):
        got = [(p["genus"], p["boundary_components"])
               for p in ck.doc(r)["parameters"]]
        require(got == checks.surface_parameters(n), "surface")
        return True

    calls = [
        (["eval", "--spec", golden, "--x", x], c_eval),
        (["orbit", "--spec", golden, "--x", x, "--steps", "50"], c_orbit),
        (["code", "--spec", four, "--x", str(rng.random()), "--steps", "5000",
          "--stats-n", "6"], c_code),
        (["induce", "--spec", golden, "--steps", "40"], c_induce),
        (["stationary", "--spec", golden, "--steps", "40"], c_stationary),
        (["ergodic", "--spec", golden, "--depth", "40", "--max-block", "12"],
         c_ergodic(40)),
        (["ergodic", "--spec", golden, "--depth", "200", "--max-block", "12"],
         c_ergodic(200)),
        (["simplex", "--spec", golden, "--depth", "40"], c_simplex),
        (["pf", "--matrix", json.dumps([list(r) for r in pf_m])], c_pf),
        (["rotation", "--matrices", fib, "--surd"], c_rotation),
        (["measures", "--spec", gfloat, "--starts", "4", "--steps", "20000",
          "--seed", str(measure_seed)], c_measures),
        (["measures", "--spec", gfloat, "--starts", "4", "--steps", "20000",
          "--seed", str(measure_seed)], c_measures),
        (["bounds", "--n", str(n), "--oriented"], c_bounds(False)),
        (["bounds", "--n", str(n), "--flips"], c_bounds(True)),
        (["kgroups", "--n", str(n)], c_kgroups),
        (["surface", "--n", str(n)], c_surface),
    ]
    tasks = []
    for i, (argv, check) in enumerate(calls):
        argv = [str(a) for a in argv]
        # one kind: a single warm-up call fills the page cache for all
        tasks.append(Task(f"{argv[0]} {i}", "cli",
                          lambda argv=argv: run_cli(argv, env), check, argv))
    return tasks


def build(workload: str, seed: int, workdir: Path):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return census_tasks(rng)
    if workload == "itinerary":
        return itinerary_tasks(rng)
    if workload == "certify":
        return certify_tasks(rng)
    return cli_tasks(rng, workdir)
