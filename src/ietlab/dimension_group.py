"""State-simplex iteration, Perron-Frobenius certificates and ergodicity
verdicts.

The state space of the dimension group attached to a multiplicity-matrix
sequence is approximated by the nested simplices spanned by the normalized
images of the dual basis vectors; its affine dimension counts linearly
independent invariant ergodic measures, and dimension one is unique
ergodicity.  Stationary sequences with a primitive block product are
certified strictly ergodic through an exact Collatz-Wielandt bracket around
the Perron eigenvalue.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple, Optional, Sequence

from . import intmat
from .errors import (DomainError, FlipUnsupported, KeaneViolation,
                     MaxIterExceeded, NotIrreducible, NotPrimitive,
                     PrecisionLoss, Reducible, SequenceTooShort, ZeroVector)
from .iet import IETSpec
from .induction import (MAX_BLOCK, MatrixSequence, StationarityWitness,
                        detect_stationarity, induce)
from .intmat import IntMatrix

# bits kept of perron_frobenius's iterate: above the 3,987 that any test,
# CLI replay or benchmark input reaches, so none of them is shifted
PF_MAX_BITS = 4096
PF_MAX_ITER = 2000
PF_TOL = 1e-12      # width of the Perron-Frobenius bracket
RANK_TOL = 1e-8     # singular values at most this count as zero
INDUCTION_DEPTH = 40  # Rauzy steps the verdict induces


def collatz_wielandt(p: IntMatrix, x: Sequence):
    """min over supported coordinates of (Px)_i / x_i; coordinates with
    x_i = 0 are excluded.  A guaranteed lower bound on the Perron root."""
    intmat.check_nonnegative(p)
    if all(v == 0 for v in x):
        raise ZeroVector("Collatz-Wielandt needs a nonzero vector")
    px = intmat.mat_vec(p, x)
    ratios = []
    for num, den in zip(px, x):
        if den > 0:
            if isinstance(num, int) and isinstance(den, int):
                ratios.append(Fraction(num, den))
            else:
                ratios.append(num / den)
    return min(ratios)


# ---------------------------------------------------------------------------
# cyclic structure / primitivity
# ---------------------------------------------------------------------------

class CyclicStructure(NamedTuple):
    period: int
    block_permutation: tuple[tuple[int, ...], ...]   # 1-based vertex classes
    peripheral_spectrum_moduli: tuple[float, ...]


def _period_levels(p: IntMatrix) -> tuple[int, list[int]]:
    """Period of the digraph of P and the BFS levels from vertex 0.

    P is irreducible when the BFS reaches every vertex and every vertex
    reaches 0 back.  The period is the gcd over edges u -> v of level[u] +
    1 - level[v].  A digraph with no cycle (the 1x1 zero matrix) has no
    period and raises."""
    intmat.check_nonnegative(p)
    n = len(p)
    if any(len(row) != n for row in p):
        raise ValueError("P must be square")
    level = [0] + [None] * (n - 1)
    queue = [0]
    for u in queue:
        for v in range(n):
            if p[u][v] and level[v] is None:
                level[v] = level[u] + 1
                queue.append(v)
    back = [0]      # the vertices that reach 0, found along reversed edges
    for v in back:
        back += [u for u in range(n) if p[u][v] and u not in back]
    if len(queue) < n or len(back) < n:
        raise NotIrreducible("digraph of P is not strongly connected")
    r = 0
    for u in range(n):
        for v in range(n):
            if p[u][v]:
                r = math.gcd(r, level[u] + 1 - level[v])
    if r == 0:
        raise NotIrreducible("digraph of P has no cycle")
    return r, level


def cyclic_structure(p: IntMatrix) -> CyclicStructure:
    """Period r = gcd of cycle lengths of the digraph of P, with the vertex
    classes of the cyclic normal form; r = 1 iff P is primitive.  The
    peripheral spectrum of an irreducible P is rho(P) times the r-th roots
    of unity (Frobenius), so its moduli are r copies of rho(P)."""
    r, level = _period_levels(p)
    classes = tuple(tuple(v + 1 for v in range(len(p)) if level[v] % r == c)
                    for c in range(r))
    return CyclicStructure(r, classes, (_spectral_radius(p),) * r)


def _spectral_radius(p: IntMatrix) -> float:
    """rho(P) by bisection between the least and greatest row sums, which
    bracket it: x > rho(P) exactly when xI - P is a nonsingular M-matrix,
    that is when elimination without pivoting meets only positive pivots."""
    try:
        lo, hi = float(min(map(sum, p))), float(max(map(sum, p)))
    except OverflowError:
        raise PrecisionLoss("row sum of P beyond the float range") from None
    while lo < (x := (lo + hi) / 2) < hi:
        a = [[(x if i == j else 0.0) - v for j, v in enumerate(row)]
             for i, row in enumerate(p)]
        for k, pivot in enumerate(a):
            if pivot[k] <= 0:
                lo = x
                break
            for row in a[k + 1:]:
                f = row[k] / pivot[k]
                for j in range(k + 1, len(row)):
                    row[j] -= f * pivot[j]
        else:
            hi = x
    return hi


def is_primitive(p: IntMatrix) -> bool:
    """Irreducible with period 1 (Perron-Frobenius), decided on the digraph
    of P alone."""
    try:
        return _period_levels(p)[0] == 1
    except NotIrreducible:
        return False


# ---------------------------------------------------------------------------
# Perron-Frobenius with exact brackets
# ---------------------------------------------------------------------------

class PFResult(NamedTuple):
    eigenvalue: float
    eigenvector: tuple[float, ...]
    lower_cw: Fraction
    upper_cw: Fraction
    iterations: int
    residual: float
    history: tuple[tuple[Fraction, Fraction], ...] = ()


def perron_frobenius(p: IntMatrix, tol: float = PF_TOL) -> PFResult:
    """Power iteration from the all-ones vector on exact integer vectors.

    The Collatz-Wielandt minimum and the max-ratio dual are computed as exact
    rationals at every step, so lower <= Perron root <= upper is guaranteed;
    iteration stops when the bracket width drops below tol.  An iterate
    longer than PF_MAX_BITS is shifted right, which keeps the bracket valid
    and the cost of a step bounded.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not is_primitive(p):
        raise NotPrimitive("no power of P is strictly positive")
    n = len(p)
    x = (1,) * n
    history = []
    tol_f = Fraction(tol)
    for it in range(1, PF_MAX_ITER + 1):
        px = intmat.mat_vec(p, x)
        ratios = [Fraction(num, den) for num, den in zip(px, x)]
        lower, upper = min(ratios), max(ratios)
        history.append((lower, upper))
        if upper - lower <= tol_f:
            # x outgrows the floats after many steps: shift it into range
            # (no shift below 2**1000 leaves those vectors as they were)
            total = sum(x)
            shift = max(total.bit_length() - 1000, 0)
            vec = tuple(float(v >> shift) / (total >> shift) for v in x)
            try:
                lam = float((lower + upper) / 2)
                pv = intmat.mat_vec(p, vec)
            except OverflowError:
                raise PrecisionLoss("Perron root or entry of P beyond the "
                                    "float range") from None
            residual = float(sum(abs(a - lam * b) for a, b in zip(pv, vec)))
            return PFResult(lam, vec, lower, upper, it, residual,
                            tuple(history))
        g = math.gcd(*px)
        x = tuple(v // g for v in px)
        # the bracket holds for every positive x, so past the budget the
        # low bits go, every entry staying at least 1
        shift = max(v.bit_length() for v in x) - PF_MAX_BITS
        if shift > 0:
            x = tuple(max(v >> shift, 1) for v in x)
    raise MaxIterExceeded(
        f"bracket wider than {tol} after {PF_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# state-simplex iteration
# ---------------------------------------------------------------------------

class StateSpaceApprox(NamedTuple):
    k: int
    columns: tuple[tuple[Fraction, ...], ...]   # L1-normalized, exact
    diameter: Fraction
    numeric_rank: int


# the running products of the last sequence asked for, held with it so
# that it is matched by identity: (seq, (V_0, ..., V_j)), each V_j as the
# tuple of its columns.  A longer path is a new tuple, bound in one step.
_PATH: tuple = (None, ())


def _path(seq: MatrixSequence, k: int) -> tuple:
    """The columns of V_j = M_1^T ... M_j^T for j = 0..k at least; the
    columns of V_j span the j-th simplex.  They are the rows of
    V_j^T = M_j V_{j-1}^T, so each is one `intmat.mat_mul(m, cols)`: a row
    add for M = I + E_ij.  Built once per sequence and extended only as far
    as k: a matrix past k is never read."""
    global _PATH
    if k < 0:
        raise DomainError("simplex depth must be nonnegative")
    if k > len(seq.matrices):
        raise SequenceTooShort(f"need {k} matrices, have {len(seq.matrices)}")
    if not seq.matrices:
        raise SequenceTooShort("empty sequence")
    held, path = _PATH
    if held is not seq:
        path = (intmat.identity(len(seq.matrices[0])),)
    cols, new = path[-1], []
    for m in seq.matrices[len(path) - 1:k]:
        intmat.check_no_zero_line(m)
        cols = intmat.mat_mul(m, cols)
        new.append(cols)
    if held is not seq or new:
        path += tuple(new)
        _PATH = seq, path
    return path


def _simplex(seq: MatrixSequence, k: int):
    return _with_sums(_path(seq, k)[k])


def _with_sums(cols) -> tuple[tuple, list[int]]:
    """Columns of V and their sums: vertex j is column j over its sum."""
    return cols, [sum(c) for c in cols]


def _diameter(cols, sums) -> Fraction:
    """Exact maximal pairwise L1 distance between the vertices, from
    |a/A - b/B|_1 = sum |a_i B - b_i A| / (AB): the pairs are compared on
    integers and only the largest becomes a Fraction."""
    num, den = 0, 1
    for (a, sa), (b, sb) in combinations(zip(cols, sums), 2):
        d = sum(abs(x * sb - y * sa) for x, y in zip(a, b))
        if d * den > num * sa * sb:
            num, den = d, sa * sb
    return Fraction(num, den)


def _affine_dim(cols, sums, tol: float) -> int:
    """One more than the singular values above tol of the vertices centred
    on their mean, at most their number.  Int true division rounds
    correctly, so x / s is float(Fraction(x, s))."""
    pts = [[x / s for x in c] for c, s in zip(cols, sums)]
    mean = [sum(xs) / len(pts) for xs in zip(*pts)]
    centred = [[x - m for x, m in zip(pt, mean)] for pt in pts]
    rank = sum(s > tol for s in _singular_values(centred))
    return min(rank + 1, len(pts))


def _singular_values(rows: list[list[float]]) -> list[float]:
    """One-sided Jacobi (Hestenes, 1958): rotate pairs of rows until every
    pair has a cosine of at most 1e-15; the row norms are then the singular
    values, to high relative accuracy (Demmel and Veselic, SIAM J. Matrix
    Anal. Appl. 13, 1992)."""
    for _ in range(60):     # sweeps converge quadratically; a safety cap
        rotated = False
        for p, q in combinations(range(len(rows)), 2):
            x, y = rows[p], rows[q]
            alpha, beta, gamma = (sum(map(mul, x, x)), sum(map(mul, y, y)),
                                  sum(map(mul, x, y)))
            if abs(gamma) <= 1e-15 * math.sqrt(alpha) * math.sqrt(beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2 * gamma)
            t = math.copysign(1 / (abs(zeta) + math.hypot(1, zeta)), zeta)
            c = 1 / math.hypot(1, t)
            s = c * t
            rows[p] = [c * u - s * v for u, v in zip(x, y)]
            rows[q] = [s * u + c * v for u, v in zip(x, y)]
        if not rotated:
            break
    return [math.sqrt(sum(map(mul, row, row))) for row in rows]


def _state_dim(cols, sums, diameter: Fraction, tol: float) -> int:
    return 1 if diameter < tol else _affine_dim(cols, sums, tol)


def state_simplex(seq: MatrixSequence, k: int,
                  rank_tol: float = RANK_TOL) -> StateSpaceApprox:
    """Simplex spanned by the normalized images of the dual basis after the
    first k matrices; diameter is the exact maximal pairwise L1 distance."""
    cols, sums = _simplex(seq, k)
    vertices = tuple(tuple(Fraction(x, s) for x in c)
                     for c, s in zip(cols, sums))
    return StateSpaceApprox(k, vertices, _diameter(cols, sums),
                            _affine_dim(cols, sums, rank_tol))


def simplex_diameters(seq: MatrixSequence) -> list[Fraction]:
    """Exact diameters of the simplices after the first k matrices, for
    k = 1..len(seq.matrices): entry k-1 equals state_simplex(seq, k).diameter.
    The columns come from the path of the last sequence asked for, so after
    a verdict on seq they are read, not built again."""
    path = _path(seq, len(seq.matrices))
    return [_diameter(*_with_sums(cols)) for cols in path[1:]]


def estimate_state_dim(seq: MatrixSequence, k_max: int) -> int:
    """Numeric affine dimension of the column set at depth k_max: the number
    of independent invariant ergodic measures seen by the approximation."""
    cols, sums = _simplex(seq, min(k_max, len(seq.matrices)))
    return _state_dim(cols, sums, _diameter(cols, sums), RANK_TOL)


# ---------------------------------------------------------------------------
# verdicts and closed-form counts
# ---------------------------------------------------------------------------

class ErgodicityCertificate(NamedTuple):
    witness: Optional[StationarityWitness]
    pf: Optional[PFResult]
    final_diameter: Optional[float]


class ErgodicityVerdict(NamedTuple):
    status: str          # StrictlyErgodic | LikelyErgodic | Inconclusive
    certificate: Optional[ErgodicityCertificate]
    state_dim_estimate: Optional[int]
    diagnostics: tuple[str, ...] = ()
    # the induced sequence the verdict was drawn from; None when induction
    # failed
    sequence: Optional[MatrixSequence] = None

    def __repr__(self):   # the sequence stays out
        return (f"ErgodicityVerdict(status={self.status!r}, "
                f"certificate={self.certificate!r}, "
                f"state_dim_estimate={self.state_dim_estimate!r}, "
                f"diagnostics={self.diagnostics!r})")


def strict_ergodicity_verdict(spec: IETSpec,
                              induction_depth: int = INDUCTION_DEPTH,
                              max_block: int = MAX_BLOCK, *,
                              tol: float = RANK_TOL) -> ErgodicityVerdict:
    """Induce, look for MIN_REPEATS equal blocks of length <= max_block,
    certify the block via Perron-Frobenius to PF_TOL; otherwise fall back
    to the state-dimension estimate at rank tolerance tol.

    Only the stationary => strictly ergodic direction is proved, so
    non-stationary runs are never labeled beyond LikelyErgodic.
    """
    try:
        seq = induce(spec, induction_depth)
    except (KeaneViolation, Reducible, FlipUnsupported) as exc:
        step = getattr(exc, "step", None)
        at = "" if step is None else f" at step {step}"
        diag = f"{type(exc).__name__}{at}: {exc}"
        return ErgodicityVerdict("Inconclusive", None, None, (diag,))

    witness = None
    try:
        witness = detect_stationarity(seq, max_block)
    except SequenceTooShort:
        pass

    cols, sums = _simplex(seq, len(seq.matrices))
    diam = _diameter(cols, sums)
    if witness is not None and is_primitive(witness.block_product):
        pf = perron_frobenius(witness.block_product)
        cert = ErgodicityCertificate(witness, pf, float(diam))
        return ErgodicityVerdict("StrictlyErgodic", cert, 1, sequence=seq)

    dim = _state_dim(cols, sums, diam, tol)
    cert = ErgodicityCertificate(witness, None, float(diam))
    if dim == 1:
        return ErgodicityVerdict("LikelyErgodic", cert, dim, sequence=seq)
    return ErgodicityVerdict("Inconclusive", cert, dim,
                             (f"state dimension estimate {dim} > 1",),
                             sequence=seq)


def k_groups(n: int) -> tuple[int, int]:
    """Free ranks of (K0, K1) for the algebra of an n-interval exchange."""
    if n < 2:
        raise ValueError("need n >= 2 intervals")
    return (n, 1)


def measure_bounds(n: int, has_flips: bool) -> int:
    """Upper bound on the number of ergodic invariant measures: n + 2 with
    flips (Keane), floor(n / 2) for oriented transformations (Veech)."""
    if n < 2:
        raise ValueError("need n >= 2 intervals")
    return n + 2 if has_flips else n // 2
