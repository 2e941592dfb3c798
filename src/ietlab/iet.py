"""Interval exchange transformations with flips.

An IET is the triple (lambda, pi, epsilon): interval lengths summing to 1,
a permutation of {1..n} and orientation signs.  Domain intervals are the
half-open v_i = [beta_{i-1}, beta_i); the map sends v_i isometrically onto
the pi(i)-th target interval, reversing orientation when epsilon_i = -1.

The map is written once, here.  `validate` compiles a spec into one branch
row per interval, (sign, shift, left, lo, hi) in the spec's own arithmetic,
where v_i = [left, ...) goes onto the target [lo, hi):

- an oriented branch sends x to x + shift, with shift = lo - left;
- a flipped branch sends x to shift - x, with shift = hi + left, and its
  left endpoint to lo, so the image of every branch is again half-open and
  the map is a bijection of [0, 1).

One orbit loop, `_record`, reads those rows.  `evaluate`, `orbit`,
`keane_condition` and `count_visits` all step through it; `count_visits`
counts the orbit in one interval a block at a time, bit for bit.  The census,
`count_returns`, reads the same rows a piece of a first-return tower at a
time.  A tower's pieces tile [0, 1); the stretches outside its window and
the float slivers are dead pieces, and every step that no live piece takes
is one step of `_record`.  The oriented starts of one census ride the
towers they share.  A float return rounds once, so a census equals the
orbit's counts in exact mode and on edges away from orbit points.  A
census run keeps a mark, a point it stood on, and the lap it walked since:
back on the mark, it repeats the lap as often as it fits.  An IET is a
bijection of [0, 1), so an exact periodic orbit comes back to the mark
itself.  A float one drifts an ulp or two a lap, so a return that lands
within `_SLIVER` of the mark, in the mark's piece, closes the lap too, if
the drift of all the laps left stays inside the pieces the lap takes;
otherwise the run steps on.  A repeated lap takes the pieces that the
run, stepping on return by return, would take.
Float mode rounds each image once, in that one addition or subtraction,
and then clamps it into [lo, hi): an image that rounded onto hi or past it
becomes nextafter(hi, 0), one that rounded below lo becomes lo.  So every
float image lies in its branch's target, and an orbit never leaves
[0, 1).  Exact arithmetic needs no clamp.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (DomainError, LengthSumError, ModeMismatch,
                     NonBijectivePermutation, NonPositiveLength)
from .numbers import Quadratic, as_int, is_exact

FLOAT_SUM_TOL = 1e-12
KEANE_FLOAT_TOL = 1e-10  # collision tolerance, below drift of 1e4 isometry steps
_BLOCK = 8192            # orbit points recorded at a time on long runs
_WINDOW = Fraction(1, 50)  # length of the census window J, see count_returns
_APPROACH = int(4 / _WINDOW)  # steps a census start walks to a shared window
_SLIVER = 1e-12          # float tower pieces at most this wide are dead


def is_irreducible(pi: Sequence[int]) -> bool:
    """True iff no proper initial segment {1..k} is pi-invariant."""
    n = len(pi)
    top = 0
    for k in range(1, n):
        top = max(top, pi[k - 1])
        if top == k:
            return False
    return True


def _check_permutation(pi) -> tuple[int, ...]:
    pi = tuple(as_int(p) for p in pi)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise NonBijectivePermutation(f"not a permutation of 1..{len(pi)}: {pi}")
    return pi


class IETSpec(NamedTuple):
    lengths: tuple
    pi: tuple[int, ...]
    signs: tuple[int, ...]
    mode: str                      # "exact" | "float"
    beta: tuple
    beta_pi: tuple
    cuts: tuple                    # beta_1 .. beta_{n-1}
    branches: tuple                # (sign, shift, left, lo, hi) per v_i

    def __repr__(self):   # the four fields derived by `validate` stay out
        return (f"IETSpec(lengths={self.lengths!r}, pi={self.pi!r}, "
                f"signs={self.signs!r}, mode={self.mode!r})")

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def oriented(self) -> bool:
        return all(s == 1 for s in self.signs)

    def pi_inverse(self) -> tuple[int, ...]:
        return _inverse_permutation(self.pi)


def _inverse_permutation(pi: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a permutation of 1..n, 1-based."""
    inv = [0] * len(pi)
    for i, p in enumerate(pi, start=1):
        inv[p - 1] = i
    return tuple(inv)


def _cumulative(lengths, mode):
    beta = [0 if mode == "exact" else 0.0]
    acc = beta[0]
    for lam in lengths:
        acc = acc + lam
        beta.append(acc)
    if mode == "float":
        beta[-1] = 1.0  # pin the right endpoint against rounding
    return tuple(beta)


def validate(lengths, pi, signs=None, mode: Optional[str] = None) -> IETSpec:
    """Check and normalize raw (lengths, permutation, signs) into an IETSpec."""
    lengths = tuple(lengths)
    if len(lengths) < 1:
        raise NonPositiveLength("need at least one interval")
    pi = _check_permutation(pi)
    if len(pi) != len(lengths):
        raise NonBijectivePermutation("permutation size differs from lengths")
    if signs is None:
        signs = (1,) * len(lengths)
    signs = tuple(as_int(s) for s in signs)
    if len(signs) != len(lengths) or any(s not in (1, -1) for s in signs):
        raise NonBijectivePermutation("signs must be +1/-1, one per interval")

    exact = all(is_exact(x) for x in lengths)
    if mode is None:
        mode = "exact" if exact else "float"
    if mode not in ("exact", "float"):
        raise ModeMismatch(f"unknown mode {mode!r}, expected exact or float")
    if mode == "exact":
        if not exact:
            raise ModeMismatch("exact mode needs rational or quadratic "
                               "lengths, not floats")
        fields = {x.d for x in lengths if isinstance(x, Quadratic)}
        if len(fields) > 1:
            raise DomainError("lengths in mixed quadratic fields: "
                              + ", ".join(f"sqrt({d})" for d in sorted(fields)))
        lengths = tuple(Fraction(x) if isinstance(x, int) else x for x in lengths)
    else:
        lengths = tuple(float(x) for x in lengths)

    for lam in lengths:
        if not lam > 0:
            raise NonPositiveLength(f"non-positive length {lam!r}")
    total = sum(lengths)
    if mode == "exact":
        if total != 1:
            raise LengthSumError(f"lengths sum to {total}, expected 1")
    elif abs(total - 1.0) > FLOAT_SUM_TOL:
        raise LengthSumError(f"lengths sum to {total!r}, expected 1")

    beta = _cumulative(lengths, mode)
    lengths_pi = tuple(lengths[j - 1] for j in _inverse_permutation(pi))
    beta_pi = _cumulative(lengths_pi, mode)
    return IETSpec(lengths, pi, signs, mode, beta, beta_pi, beta[1:-1],
                   _branches(beta, beta_pi, pi, signs))


def _branches(beta, beta_pi, pi, signs) -> tuple:
    """The branch table: v_i goes onto [lo, hi) by x + shift, or by
    shift - x when flipped."""
    rows = []
    for i, (j, s) in enumerate(zip(pi, signs)):
        left, lo, hi = beta[i], beta_pi[j - 1], beta_pi[j]
        rows.append((s, lo - left if s == 1 else hi + left, left, lo, hi))
    return tuple(rows)


def _scalar(spec: IETSpec, x):
    """x in the spec's arithmetic; an exact spec reads a float as the
    Fraction of its binary value.  A non-finite x raises DomainError."""
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"point {x!r} is not finite")
    if spec.mode == "float":
        return float(x)
    return Fraction(x) if isinstance(x, float) else x


def _start(spec: IETSpec, x):
    x = _scalar(spec, x)
    if not (0 <= x < 1):
        raise DomainError(f"point {x!r} outside [0, 1)")
    return x


def interval_index(spec: IETSpec, x) -> int:
    """1-based index i with x in v_i = [beta_{i-1}, beta_i)."""
    return bisect_right(spec.cuts, _start(spec, x)) + 1


def evaluate(spec: IETSpec, x):
    """Apply the transformation to a point of [0, 1)."""
    return _record(spec, _start(spec, x), 1)[0][1]


def inverse(spec: IETSpec) -> IETSpec:
    """The inverse IET: exchanged lengths, inverted permutation, carried signs."""
    inv = spec.pi_inverse()
    lengths = tuple(spec.lengths[j - 1] for j in inv)
    signs = tuple(spec.signs[j - 1] for j in inv)
    return validate(lengths, inv, signs, mode=spec.mode)


class Orbit(NamedTuple):
    start: object
    points: tuple
    interval_indices: tuple[int, ...]


def _record(spec: IETSpec, x, n_steps: int):
    """The recording loop: x and its next n_steps images, and the 1-based
    branch of each.  x must already be a point of [0, 1) in the spec's
    arithmetic."""
    rows, cuts, clamp = spec.branches, spec.cuts, spec.mode == "float"
    br, nxt = bisect_right, math.nextafter
    pts, idx = [x], []
    for _ in range(n_steps):
        i = br(cuts, x)
        idx.append(i + 1)
        sign, shift, left, lo, hi = rows[i]
        if sign > 0:
            x = x + shift
        elif x == left:
            x = lo
        else:
            x = shift - x
        if clamp:
            if x >= hi:
                x = nxt(hi, 0.0)
            elif x < lo:
                x = lo
        pts.append(x)
    idx.append(br(cuts, x) + 1)
    return pts, idx


def orbit(spec: IETSpec, x0, n_steps: int) -> Orbit:
    """Forward orbit of length n_steps + 1 with per-step interval indices."""
    if n_steps < 0:
        raise DomainError("orbit length must be nonnegative")
    x0 = _start(spec, x0)
    pts, idx = _record(spec, x0, n_steps)
    return Orbit(x0, tuple(pts), tuple(idx))


def count_visits(spec: IETSpec, x0, n_steps: int, lo, hi) -> int:
    """Visits of x0, T(x0), ..., T^(n_steps-1)(x0) to [lo, hi), with lo
    and hi in the spec's arithmetic: the iterates of `orbit`, bit for bit.

    The orbit is recorded `_BLOCK` points at a time by the one orbit loop,
    so memory stays bounded for averages of millions of steps.
    """
    lo, hi, x = _scalar(spec, lo), _scalar(spec, hi), _start(spec, x0)
    count = 0
    for done in range(0, n_steps, _BLOCK):
        pts, _ = _record(spec, x, min(_BLOCK, n_steps - done))
        x = pts.pop()
        count += len([p for p in pts if lo <= p < hi])
    return count


def count_returns(spec: IETSpec, x0, n_steps: int, edges,
                  towers: list) -> list[int]:
    """Bin counts of x0, ..., T^(n_steps-1)(x0) between the sorted edges,
    the outer bins taking the points past them, through the first-return
    tower over a window J of length l = `_WINDOW` on the orbit, cut to [0, 1).

    The tower's pieces tile [0, 1).  Each live piece lies in J and climbs
    floors outside J until one lies in J: on it the return time r, the bin
    of every floor and the map y -> sign*y + tau onto the return floor are
    constant.  A point strictly inside a live piece takes the whole return
    at once.  Every other step is one step of `_record`: before the run
    has a tower, on a piece's base end, on a dead piece (outside J, or a
    float sliver), on the last partial return (r > the steps left), and on
    an unbuilt piece once n_steps floors are built.  The tower is built
    where the walk lands (`_grow`), so thin pieces with long returns that
    no point meets cost nothing.

    The mark is the first point the run meets on its tower, and again the
    first after a closed cycle or a grown piece; its lap is the pieces
    whose returns the run took since, and the bins of its pointwise steps.
    A return or step in the mark's piece closes a cycle on the mark
    itself, and a float return within `_SLIVER` of it when `_laps` finds
    that the laps left cannot drift out of the lap's pieces; the lap
    repeats as often as it fits.  The map is a bijection, so an exact
    periodic orbit comes back to the mark.  A drift too wide for the laps
    left moves the mark to the return, and the run tests again once half
    its steps are left, as fewer laps need less room.

    A float return is one rounding, not r, clamped into the return floor as
    `_record` clamps a step: exact counts are the orbit's, and float counts
    differ only where the orbit comes within rounding of a cut or an edge.

    `towers` holds the towers that earlier runs over the same spec and
    edges built; a run on its own passes [] and centres J at x0.  Given
    towers, a run of more than `_APPROACH` steps walks through `_record`,
    at most `_APPROACH` steps, until it lands in one of their windows and
    rides that tower; one that lands in none keeps the counts it walked
    and centres its own J where it stands.  A new tower goes on `towers`.
    Exact counts are the same either way.
    """
    edges = [_scalar(spec, e) for e in edges]
    inner, x = edges[1:-1], _start(spec, x0)
    float_mode = spec.mode == "float"
    # over a spec with flips a run neither rides nor extends towers: almost
    # every IET with flips has periodic components (Nogueira, Ergodic
    # Theory Dynam. Systems 9, 1989), and a start on one would walk its
    # `_APPROACH` steps towards windows that its component never meets
    towers = towers if spec.oriented else []
    counts = [0] * (len(edges) - 1)
    br, nxt, left, budget = bisect_right, math.nextafter, n_steps, n_steps
    # until the run has a tower, one dead piece tiles [0, 1)
    tower, bases, pieces = None, [spec.beta[0]], [[0, 0, 1, 0, [], -1, 0]]
    # the mark, its piece, and since the mark the pieces whose returns the
    # run took and the bins of its pointwise steps; a return that drifted
    # from the mark is tested once at most `retry` steps are left
    mark = home = None
    path, retry = [], n_steps
    while left:
        i = br(bases, x) - 1
        piece = pieces[i]
        lo, hi, sign, tau, _, r, _ = piece
        if piece is home and (x == mark or float_mode
                              and abs(x - mark) <= _SLIVER):
            if x == mark or left <= retry:
                laps = _laps(mark, x, path, left, bases)
                if laps:               # back at the mark: repeat the cycle
                    for p in path:
                        if p.__class__ is list:
                            p[6] += laps
                            left -= laps * p[5]
                        else:
                            counts[p] += laps
                            left -= laps
                    home = None
                    continue
                retry = left // 2
            mark, path = x, []
        elif home is None and tower is not None:
            mark, home, path = x, piece, []
        if x == bases[i] or r < 0 or r > left or not r and budget < 0:
            if tower is None:
                tower = next((t for t in towers if t.j0 <= x < t.j1), None)
                if tower is None and not (
                        towers and n_steps - left < _APPROACH < n_steps):
                    tower = _window_tower(spec, x, inner)
                    towers.append(tower)
                if tower is not None:
                    bases, pieces = tower.bases, tower.pieces
                    continue
            b = br(inner, x)
            counts[b] += 1
            path.append(b)
            x = _record(spec, x, 1)[0][1]
            left -= 1
            continue
        if not r:                      # _grow replaces the piece
            home = None
            budget -= _grow(spec, tower, i, inner, budget)
            continue
        path.append(piece)
        piece[6] += 1
        left -= r
        x = sign * x + tau
        if float_mode:
            if x >= hi:
                x = nxt(hi, 0.0)
            elif x < lo:
                x = lo
    for piece in pieces:               # this run's visits, and reset them
        if piece[6]:
            for b in piece[4]:
                counts[b] += piece[6]
            piece[6] = 0
    return counts


def _laps(mark, x, path, left, bases) -> int:
    """Laps of `path`, taken from the mark to a return landing at x in the
    mark's piece, that a run with `left` steps to go repeats at once.

    On the mark itself the walk repeats, so as many laps as fit.  A float
    return within `_SLIVER` of the mark repeats them only when `path` holds
    returns alone and the laps left cannot drift out of their pieces.
    Replayed from the mark, every point of the lap lies at least `room`
    inside its piece's base.  Two points a apart in one piece return at
    most a + 2^-52 apart, each rounding by half an ulp below 1, so with
    drift = |x - mark| + len(path)*2^-52 the k-th point of lap j (x starts
    lap 1) lies within j*drift + k*2^-52 of the k-th replayed one.  The
    walk takes `laps` more laps and a part lap, j <= laps + 1, so while
    (laps + 2)*drift < room they all take the lap's pieces, as the repeat
    does; the part lap's last return, if r exceeds the steps left, steps
    pointwise from two points that far inside one piece.
    """
    period = sum(p[5] if p.__class__ is list else 1 for p in path)
    laps = left // period
    if x == mark or not laps:
        return laps
    y, room = mark, 1.0
    for p in path:
        if p.__class__ is not list:    # a pointwise step
            return 0
        i = bisect_right(bases, y) - 1
        room = min(room, y - bases[i], bases[i + 1] - y)
        a, b, sign, tau = p[:4]
        y = min(max(sign * y + tau, a), math.nextafter(b, 0.0))
    drift = abs(x - mark) + len(path) * math.ulp(1.0)
    return laps if (laps + 2) * drift < room else 0


class _Tower(NamedTuple):
    """A first-return tower over J = [j0, j1), built as far as `_grow` has
    taken it: the points where floors split, and pieces that tile [0, 1),
    piece i over the base [bases[i], bases[i + 1]) (the last one up to 1),
    each as [a, b, sign, tau, bins, r, visits], visits being the returns
    through it in the run that rides the tower.  r is -1 on a dead piece,
    which no run rides: the stretches outside J, and the float slivers."""
    j0: object
    j1: object
    marks: list
    bases: list
    pieces: list


def _window_tower(spec: IETSpec, x, inner) -> _Tower:
    """The unbuilt tower over the window around x: J, one unbuilt piece,
    between the dead pieces over [0, j0) and [j1, 1)."""
    half = _WINDOW / 2 if spec.mode == "exact" else float(_WINDOW) / 2
    j0, j1 = max(x - half, spec.beta[0]), min(x + half, spec.beta[-1])
    marks = sorted(set(spec.cuts).union(inner, (j0, j1)))
    dead = [j0, j1, 1, 0 * j0, [], -1, 0]
    return _Tower(j0, j1, marks, [spec.beta[0], j0, j1],
                  [dead, [j0, j1, 1, 0 * j0, [], 0, 0], dead])


def _grow(spec: IETSpec, tower: _Tower, i: int, inner,
          max_floors: int) -> int:
    """Build piece i of a tower one stage further, by forward interval
    splitting; return the floors it climbed, or max_floors + 1 past them.

    A piece [a, b, sign, tau, bins, r, visits] carries its open floor
    (a, b), first its base, the map y -> sign*y + tau from base to floor,
    and the bin of each floor climbed; r is 0 until the piece is closed.
    Where a mark (a cut, an inner bin edge, j0 or j1) lies strictly inside
    the floor, the piece splits there into two, and a float half at most
    `_SLIVER` wide is dead.  Otherwise the floor has one bin and one
    branch, so every point strictly inside the base follows it, and it
    climbs by that branch.  A floor in J after step 0 closes the piece,
    with r its return time and [a, b) its return floor.  A piece that runs
    past max_floors keeps the floor it reached, so a later call goes on
    from there.
    """
    j0, j1, marks, bases, pieces = tower
    a, b, sign, tau, bins = pieces[i][:5]
    rows, cuts, br = spec.branches, spec.cuts, bisect_right
    for floors in range(max_floors + 1):
        if bins and j0 <= a and b <= j1:
            pieces[i] = [a, b, sign, tau, bins, len(bins), 0]
            return floors
        k = br(marks, a)
        if k < len(marks) and marks[k] < b:
            c, u, v = marks[k], bases[i], bases[i + 1]
            s = min(max(sign * (c - tau), u), v)   # the base point over c
            lower, upper = [a, c, sign, tau, bins, 0, 0], [c, b, sign, tau,
                                                           bins[:], 0, 0]
            halves = [lower, upper] if sign > 0 else [upper, lower]
            if spec.mode == "float":
                for half, width in zip(halves, (s - u, v - s)):
                    if min(width, half[1] - half[0]) <= _SLIVER:
                        half[5] = -1
            bases.insert(i + 1, s)
            pieces[i:i + 1] = halves
            return floors
        bins.append(br(inner, a))
        step, shift = rows[br(cuts, a)][:2]
        if step > 0:
            a, b, tau = a + shift, b + shift, tau + shift
        else:
            a, b, sign, tau = shift - b, shift - a, -sign, shift - tau
    pieces[i] = [a, b, sign, tau, bins, 0, 0]
    return max_floors + 1


class KeaneStatus(Enum):
    HOLDS = "Holds"
    FAILS = "FailsAt"
    INCONCLUSIVE = "Inconclusive"


class KeaneVerdict(NamedTuple):
    status: KeaneStatus
    depth: int
    step: Optional[int] = None
    points: tuple = ()


def keane_condition(spec: IETSpec, depth: int) -> KeaneVerdict:
    """Finite-depth i.d.o.c. check.

    Iterates the discontinuities beta_1..beta_{n-1} forward and reports a
    collision when an iterate lands on (exact mode) or within
    KEANE_FLOAT_TOL of (float mode) another discontinuity.  Step s means
    the (s+1)-th image collides.  Float-mode collisions are reported
    Inconclusive because rounding cannot distinguish a true hit from a
    near miss.
    """
    if depth < 0:
        raise DomainError("Keane depth must be nonnegative")
    disc = list(spec.cuts)
    if not disc:
        return KeaneVerdict(KeaneStatus.HOLDS, depth)
    exact = spec.mode == "exact"
    pts = list(disc)
    for s in range(depth):
        pts = [_record(spec, p, 1)[0][1] for p in pts]
        for p in pts:
            if exact:
                if p in disc:
                    return KeaneVerdict(KeaneStatus.FAILS, depth, s, tuple(pts))
            else:
                if any(abs(p - d) <= KEANE_FLOAT_TOL for d in disc):
                    return KeaneVerdict(KeaneStatus.INCONCLUSIVE, depth, s,
                                        tuple(pts))
    return KeaneVerdict(KeaneStatus.HOLDS, depth)
