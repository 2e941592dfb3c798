"""Rauzy-Veech induction, multiplicity-matrix sequences and Bratteli diagrams.

Induction is performed on a two-row state (top order, bottom order, lengths
per letter).  Working in letter coordinates keeps every emitted multiplicity
matrix elementary (identity plus a single off-diagonal 1) and makes the
length-recovery relation

    lambda_original  proportional to  M_1 * ... * M_K * lambda_K

hold exactly, with lambda_K the final lengths in letter order
(``MatrixSequence.final_lengths``).  ``rauzy_step`` additionally reports the
matrix in the positional convention of the returned spec, so that
old-lambda = M * new-lambda holds against the new spec's length vector.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from . import intmat
from .errors import (BadCutPoints, DomainError, FlipUnsupported,
                     KeaneViolation, Reducible, SequenceTooShort)
from .iet import IETSpec, is_irreducible, validate
from .intmat import IntMatrix
from .numbers import Quadratic, int_sign, quad

MAX_BLOCK = 12      # longest block detect_stationarity tries
MIN_REPEATS = 3     # equal consecutive blocks that make a witness


class MatrixSequence(NamedTuple):
    """Ordered multiplicity matrices with per-step Rauzy type tags."""
    matrices: tuple[IntMatrix, ...]
    tags: tuple[str, ...]
    final_lengths: Optional[tuple] = None     # letter order, normalized

    def __len__(self):   # the number of matrices, not of fields
        return len(self.matrices)


class StationarityWitness(NamedTuple):
    start: int
    block_length: int
    block_product: IntMatrix
    repetitions_verified: int


def _integer_pairs(lengths) -> tuple[int, list[tuple[int, int]]]:
    """(d, pairs) with lengths[k] = (A + B*sqrt(d))/D for pairs[k] = (A, B),
    ints, and one D, the lcm of every denominator.  d is 1 when every
    length is rational, so every B is 0.  A float is read as the dyadic
    rational it is, Fraction(x): a float spec is a rational one."""
    parts = [(x.p, x.q, x.r) if isinstance(x, Quadratic)
             else (*x.as_integer_ratio(), 0) for x in lengths]
    d = next((x.d for x in lengths if isinstance(x, Quadratic)), 1)
    den = math.lcm(*(q for _, q, _ in parts))
    return d, [(p * (den // q), r * (den // q)) for p, q, r in parts]


class _RauzyState:
    """Two-row induction state over letters 1..n.

    Lengths are int pairs (A, B) for (A + B*sqrt(d))/D, with one D for the
    whole spec: a step only subtracts, so D never changes and each
    comparison is one integer sign test.  A float spec enters as its exact
    binary value (d = 1), so float induction is exact induction of the
    floats the spec holds.  Lengths are turned back into numbers of the
    spec's mode, scaled to sum 1, only when read."""

    def __init__(self, spec: IETSpec):
        if not spec.oriented:
            raise FlipUnsupported("Rauzy induction needs an oriented IET")
        if spec.n < 2:   # one interval has nothing to compete with
            raise Reducible("Rauzy induction needs at least two intervals")
        if not is_irreducible(spec.pi):
            raise Reducible(f"permutation {spec.pi} is reducible")
        n = spec.n
        self.n = n
        self.top = list(range(1, n + 1))
        self.bottom = list(spec.pi_inverse())
        self.mode = spec.mode
        self.d, lengths = _integer_pairs(spec.lengths)
        self.lengths = dict(zip(self.top, lengths))

    def step(self) -> tuple[IntMatrix, str]:
        # t != b: t == b means pi(n) = n, and a Rauzy step keeps pi
        # irreducible (Rauzy, Acta Arith. 34, 1979)
        t, b = self.top[-1], self.bottom[-1]
        lt, lb = self.lengths[t], self.lengths[b]
        da, db = lt[0] - lb[0], lt[1] - lb[1]
        sign = int_sign(da, db, self.d)
        if sign == 0:
            raise KeaneViolation("competing lengths are equal")
        # the longer of the two last intervals wins; the loser leaves the
        # end of its row and goes in just behind the winner
        tag, win, lose, row = (("a", t, b, self.bottom) if sign > 0
                               else ("b", b, t, self.top))
        row.pop()
        row.insert(row.index(win) + 1, lose)
        self.lengths[win] = (da, db) if sign > 0 else (-da, -db)
        return intmat.elementary(self.n, win - 1, lose - 1), tag

    def to_spec(self) -> IETSpec:
        lengths = self.letter_lengths()
        pi = tuple(self.bottom.index(ell) + 1 for ell in self.top)
        return validate(tuple(lengths[ell - 1] for ell in self.top), pi,
                        mode=self.mode)

    def letter_lengths(self) -> tuple:
        """Lengths in letter order, summing to 1."""
        lengths = [self.lengths[ell] for ell in range(1, self.n + 1)]
        if self.mode == "float":   # int true division rounds correctly
            total = sum(a for a, _ in lengths)
            return tuple(a / total for a, _ in lengths)
        # D cancels from (A + B*sqrt(d))/D over the sum of all of them
        values = [quad(a, b, self.d) for a, b in lengths]
        total = sum(values)
        return tuple(v / total for v in values)


def rauzy_step(spec: IETSpec) -> tuple[IETSpec, IntMatrix, str]:
    """One induction step: induced spec, positional matrix, type tag."""
    state = _RauzyState(spec)
    m_letter, tag = state.step()
    # the new spec lists its lengths in top order, so its columns are too
    positional = tuple(tuple(row[ell - 1] for ell in state.top)
                       for row in m_letter)
    return state.to_spec(), positional, tag


def induce(spec: IETSpec, steps: int) -> MatrixSequence:
    """Run `steps` Rauzy steps, emitting the elementary matrix sequence.

    A KeaneViolation is re-raised with `.step` and `.partial` (the sequence
    built so far) attached.
    """
    if steps < 0:
        raise DomainError("induction steps must be nonnegative")
    state = _RauzyState(spec)
    matrices: list[IntMatrix] = []
    tags: list[str] = []
    for k in range(steps):
        try:
            m, tag = state.step()
        except KeaneViolation as exc:
            exc.step = k
            exc.partial = MatrixSequence(tuple(matrices), tuple(tags),
                                         state.letter_lengths())
            raise
        matrices.append(m)
        tags.append(tag)
    return MatrixSequence(tuple(matrices), tuple(tags), state.letter_lengths())


def telescope(seq: MatrixSequence, cut_points: Sequence[int]) -> MatrixSequence:
    """Group the sequence into blocks ending at the given cut points and
    replace each block by its ordered product.  A trailing partial block is
    kept so the total product is conserved."""
    cuts = list(cut_points)
    if any(c2 <= c1 for c1, c2 in zip(cuts, cuts[1:])):
        raise BadCutPoints("cut points must be strictly increasing")
    if cuts and (cuts[0] < 1 or cuts[-1] > len(seq)):
        raise BadCutPoints(f"cut points must lie in 1..{len(seq)}")
    if len(seq) > (cuts[-1] if cuts else 0):
        cuts.append(len(seq))
    matrices, tags = [], []
    lo = 0
    for hi in cuts:
        matrices.append(intmat.product(seq.matrices[lo:hi]))
        tags.append("".join(seq.tags[lo:hi]))
        lo = hi
    return MatrixSequence(tuple(matrices), tuple(tags), seq.final_lengths)


def _window_products(seq: MatrixSequence, max_length: int):
    """Yield (L, products) for L = 1..max_length, where products[s] is the
    ordered product of matrices[s:s+L].  Level L is level L-1 times one
    more factor: P_L(s) = P_{L-1}(s) * M_{s+L-1}."""
    ms = seq.matrices
    products = list(ms)
    for length in range(1, max_length + 1):
        if length > 1:
            products = [intmat.mat_mul(p, ms[s + length - 1])
                        for s, p in enumerate(products[:-1])]
        yield length, products


def detect_stationarity(seq: MatrixSequence, max_block: int = MAX_BLOCK,
                        min_repeats: int = MIN_REPEATS
                        ) -> Optional[StationarityWitness]:
    """Search for a repeating block product.

    For block lengths L = 1..max_block in turn, scans every start s for
    min_repeats consecutive blocks matrices[s+kL : s+(k+1)L] with equal
    products, and returns the witness with the smallest L and, on ties, the
    earliest s, or None.  repetitions_verified is the whole run of equal
    blocks from s, which may exceed min_repeats.
    """
    if min_repeats < 1 or max_block < 1:
        raise SequenceTooShort("max_block and min_repeats must be >= 1")
    effective_max = min(max_block, len(seq) // min_repeats)
    if effective_max < 1:
        raise SequenceTooShort(
            f"{len(seq)} matrices cannot hold {min_repeats} blocks")
    for length, products in _window_products(seq, effective_max):
        for s, p in enumerate(products):
            run = 1
            while (s + run * length < len(products)
                   and products[s + run * length] == p):
                run += 1
            if run >= min_repeats:
                return StationarityWitness(s, length, p, run)
    return None


def simplicity_check(seq: MatrixSequence, window: int) -> bool:
    """True iff some product of <= window consecutive matrices is strictly
    positive (primitivity surrogate for simplicity)."""
    if not seq.matrices:
        raise SequenceTooShort("empty sequence")
    if window < 1:
        raise SequenceTooShort("window must be >= 1")
    return any(intmat.is_strictly_positive(p) for _, products
               in _window_products(seq, min(window, len(seq)))
               for p in products)


# ---------------------------------------------------------------------------
# 0/1 factorization and Bratteli diagrams
# ---------------------------------------------------------------------------

class BratteliDiagram(NamedTuple):
    """Explicit 0/1 edge matrices, grouped per input multiplicity matrix."""
    blocks: tuple[tuple[IntMatrix, ...], ...]

    @property
    def level_sizes(self) -> tuple[int, ...]:
        """Vertices per level: the rows of the first factor, then the
        columns of every factor."""
        return (len(self.blocks[0][0]),
                *(len(f[0]) for block in self.blocks for f in block))

    def all_factors(self) -> tuple[IntMatrix, ...]:
        return tuple(f for block in self.blocks for f in block)

    def block_products(self) -> tuple[IntMatrix, ...]:
        return tuple(intmat.product(block) for block in self.blocks)

    def to_dot(self) -> str:
        lines = ["digraph bratteli {", "  rankdir=TB;"]
        factors = self.all_factors()
        for lvl, size in enumerate(self.level_sizes):
            for v in range(size):
                lines.append(f'  "L{lvl}_{v}" [label="{v + 1}"];')
        for lvl, f in enumerate(factors):
            for i, row in enumerate(f):
                for j, e in enumerate(row):
                    if e:
                        lines.append(f'  "L{lvl}_{i}" -> "L{lvl + 1}_{j}";')
        lines.append("}")
        return "\n".join(lines)


def _peel_elementary(m: IntMatrix) -> tuple[list[IntMatrix], IntMatrix]:
    """Split off factors I + E_{ij} (subtract row j from row i) greedily."""
    n = len(m)
    rows = [list(r) for r in m]
    factors: list[IntMatrix] = []
    while not intmat.is_zero_one(rows):
        best = None
        for i in range(n):
            for j in range(n):
                if i == j or rows[i] == rows[j]:
                    continue
                if all(x >= y for x, y in zip(rows[i], rows[j])):
                    weight = sum(rows[j])
                    if best is None or weight > best[0]:
                        best = (weight, i, j)
        if best is None:
            break
        _, i, j = best
        factors.append(intmat.elementary(n, i, j))
        rows[i] = [x - y for x, y in zip(rows[i], rows[j])]
    return factors, tuple(tuple(r) for r in rows)


def _binary_split(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Write m = B * C with B a 0/1 matrix and C of roughly half the height
    of m's entries.  Both factors keep nonzero rows and columns."""
    n, p = len(m), len(m[0])
    low = [[v & 1 for v in row] for row in m]
    high = [[v >> 1 for v in row] for row in m]
    keep_low_cols = [j for j in range(p) if any(low[i][j] for i in range(n))]
    keep_high_rows = [i for i in range(n) if any(high[i])]
    b_rows = []
    for i in range(n):
        row = [low[i][j] for j in keep_low_cols]
        row += [1 if i == r else 0 for r in keep_high_rows]
        row += [1 if i == r else 0 for r in keep_high_rows]
        b_rows.append(row)
    c_rows = [[1 if j == k else 0 for k in range(p)] for j in keep_low_cols]
    c_rows += [list(high[i]) for i in keep_high_rows]
    c_rows += [list(high[i]) for i in keep_high_rows]
    return (tuple(tuple(r) for r in b_rows), tuple(tuple(r) for r in c_rows))


def factor_zero_one(m: IntMatrix) -> list[IntMatrix]:
    """Factor a nonnegative integer matrix without zero lines into 0/1
    matrices whose ordered product equals it.

    Elementary row peeling is tried first (it keeps all factors square and
    handles every product of Rauzy matrices); the rectangular doubling
    construction covers the rest.
    """
    intmat.check_no_zero_line(m)
    factors, rest = _peel_elementary(m)
    while not intmat.is_zero_one(rest):
        b, rest = _binary_split(rest)
        factors.append(b)
    factors.append(rest)
    return factors


def to_bratteli(seq: MatrixSequence) -> BratteliDiagram:
    """Replace each multiplicity matrix by explicit 0/1 edge factors."""
    if not seq.matrices:   # a diagram needs a first level
        raise SequenceTooShort("empty sequence")
    return BratteliDiagram(tuple(tuple(factor_zero_one(m))
                                 for m in seq.matrices))
