import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from ietlab import errors, iet, measures
from ietlab.iet import (count_returns, count_visits, evaluate, inverse,
                        is_irreducible, orbit, validate)
from ietlab.measures import (DEFAULT_BINS, _bin_edges, birkhoff_average,
                             empirical_measure, estimate_ergodic_count)
from ietlab.numbers import golden_alpha, quad


def golden_float():
    a = float(golden_alpha())
    return validate((1 - a, a), (2, 1), mode="float")


def half_swap():
    return validate((Fraction(1, 2), Fraction(1, 2)), (2, 1))


def identity_spec(n=2):
    return validate((Fraction(1, n),) * n, tuple(range(1, n + 1)))


def test_birkhoff_identity_spec():
    spec = identity_spec()
    assert birkhoff_average(spec, Fraction(1, 4), (Fraction(0), Fraction(1, 2)),
                            100) == 1.0
    assert birkhoff_average(spec, Fraction(3, 4), (Fraction(0), Fraction(1, 2)),
                            100) == 0.0


def test_birkhoff_period_two_orbit():
    # x=1/4 alternates between 1/4 and 3/4
    assert birkhoff_average(half_swap(), Fraction(1, 4),
                            (Fraction(0), Fraction(1, 2)), 1000) == 0.5


@pytest.mark.parametrize("bins, n_steps, message", [
    (3, 10, "need at least 4 bins"), (64, 0, "need at least one iterate"),
    (64, 10, "need at most 10 bins for 10 iterates")],
    ids=["bins", "iterates", "bins-past-iterates"])
def test_empirical_measure_refusals(bins, n_steps, message):
    with pytest.raises(errors.DomainError) as exc_info:
        empirical_measure(identity_spec(4), Fraction(1, 8), n_steps, bins)
    assert str(exc_info.value) == message


def test_birkhoff_golden_equidistribution():
    a = float(golden_alpha())
    avg = birkhoff_average(golden_float(), 0.1, (0.0, 1 - a), 10 ** 5)
    assert abs(avg - (1 - a)) < 3e-3


def test_birkhoff_rejects_bad_interval():
    with pytest.raises(errors.DomainError):
        birkhoff_average(half_swap(), Fraction(1, 4), (Fraction(1, 2), Fraction(1, 4)), 10)
    with pytest.raises(errors.DomainError):
        birkhoff_average(half_swap(), Fraction(1, 4), (0, 1), 0)


def test_birkhoff_compares_its_target_in_the_spec_arithmetic():
    # float(1/3) < 1/3: a float spec reads the end 1/3 as that float, so
    # the point 1/3 (the same float) lies outside [0, 1/3)
    assert birkhoff_average(golden_float(), 1 / 3, (0, Fraction(1, 3)),
                            1) == 0.0
    # an exact spec reads the float 1/3 as the Fraction of its binary value
    a, third = golden_alpha(), Fraction(1 / 3)
    for spec in (half_swap(), validate((1 - a, a), (2, 1))):
        assert birkhoff_average(spec, third, (0, 1 / 3), 1) == 0.0
        assert birkhoff_average(spec, third - Fraction(1, 2 ** 60),
                                (0, 1 / 3), 1) == 1.0
        assert birkhoff_average(spec, Fraction(1, 3), (0.0, 1 / 3), 1) == 0.0


def test_empirical_measure_identity_single_bin():
    m = empirical_measure(identity_spec(), Fraction(1, 3), 500, bins=8)
    assert sum(m.masses) == pytest.approx(1.0, abs=1e-12)
    assert max(m.masses) == 1.0


def test_empirical_measure_period_two():
    m = empirical_measure(half_swap(), Fraction(1, 4), 1000, bins=8)
    hot = sorted(mass for mass in m.masses if mass > 0)
    assert hot == [0.5, 0.5]


def test_empirical_measure_refines_discontinuities():
    spec = golden_float()
    m = empirical_measure(spec, 0.1, 100, bins=16)
    for b in spec.beta:
        assert any(abs(e - b) < 1e-12 for e in m.bin_edges)


def test_empirical_measure_golden_is_lebesgue():
    m = empirical_measure(golden_float(), 0.1, 10 ** 5, bins=64)
    for lo, hi, mass in zip(m.bin_edges, m.bin_edges[1:], m.masses):
        assert abs(mass - (hi - lo)) < 2e-3


def test_empirical_measure_shift_invariance_bound():
    # histograms of x..phi^{N-1}x and phi(x)..phi^N x differ by <= 2/N in L1
    spec = golden_float()
    n = 5000
    m1 = empirical_measure(spec, 0.1, n, bins=32)
    m2 = empirical_measure(spec, evaluate(spec, 0.1), n, bins=32)
    l1 = sum(abs(a - b) for a, b in zip(m1.masses, m2.masses))
    assert l1 <= 2 / n + 1e-12


def test_census_golden_single_cluster():
    rng = random.Random(0)
    starts = [rng.random() for _ in range(8)]
    census = estimate_ergodic_count(golden_float(), starts, 10 ** 4)
    assert census.estimated_count == 1
    assert census.bound == 1
    assert census.bound_respected is True
    assert not census.non_minimal_flag


def test_census_identity_flagged_non_minimal():
    census = estimate_ergodic_count(identity_spec(4),
                                    [Fraction(1, 8), Fraction(3, 8),
                                     Fraction(5, 8), Fraction(7, 8)], 200)
    assert census.estimated_count == 4
    assert census.non_minimal_flag
    assert census.bound_respected is None


def test_census_cluster_count_monotone_in_tol():
    rng = random.Random(1)
    starts = [rng.random() for _ in range(6)]
    spec = golden_float()
    counts = [estimate_ergodic_count(spec, starts, 2000,
                                     cluster_tol=t).estimated_count
              for t in (0.001, 0.05, 0.5)]
    assert counts == sorted(counts, reverse=True)


def _components(ms, tol):
    """Single-linkage clusters as connected components of the graph with
    an edge where the L1 distance is at most tol, in order of first member,
    each as (first member, size)."""
    close = [[sum(abs(x - y) for x, y in zip(a.masses, b.masses)) <= tol
              for b in ms] for a in ms]
    seen, out = set(), []
    for i in range(len(ms)):
        if i in seen:
            continue
        comp = {i}
        stack = [i]
        while stack:
            j = stack.pop()
            new = {k for k in range(len(ms)) if close[j][k]} - comp
            comp |= new
            stack += new
        seen |= comp
        out.append((ms[i], len(comp)))
    return tuple(out)


def test_census_clusters_match_connected_components():
    # short orbits give measures at spread-out distances, so clusters form
    # by chains of close pairs; an identity spec gives exact duplicates
    rng = random.Random("single-linkage")
    specs = [_random_float_4iet(rng, flips) for flips in (False, True) * 3]
    specs.append(identity_spec(4))
    for spec in specs:
        starts = sorted(rng.random() for _ in range(12))
        ms = [empirical_measure(spec, x0, 300, bins=16) for x0 in starts]
        for tol in (0.05, 0.2, 0.4, 0.8, 2.0):
            census = estimate_ergodic_count(spec, starts, 300, tol, bins=16)
            assert census.clusters == _components(ms, tol), (spec, tol)


def test_census_needs_two_starts():
    with pytest.raises(errors.DomainError):
        estimate_ergodic_count(golden_float(), [0.1], 100)


def test_exact_periodic_orbit_uniform_measure():
    # period-2 rational orbit: measure is exactly uniform on the orbit
    m = empirical_measure(half_swap(), Fraction(1, 4), 10, bins=4)
    assert sorted(m.masses, reverse=True)[:2] == [0.5, 0.5]


def _random_float_4iet(rng, flips):
    perms = [p for p in itertools.permutations(range(1, 5))
             if is_irreducible(p)]
    raw = [rng.random() + 0.05 for _ in range(4)]
    lam = [v / sum(raw) for v in raw]
    signs = [1] * 4
    if flips:
        signs = [rng.choice((1, -1)) for _ in range(4)]
        signs[rng.randrange(4)] = -1
    return validate(lam, rng.choice(perms), signs, mode="float")


@pytest.mark.parametrize("flips", [False, True], ids=["oriented", "flips"])
def test_census_counts_the_iterates_of_orbit_bit_for_bit(flips):
    # [0, p) and [0, nextafter(p, 1)) differ by the float p alone, so the
    # census must land on the orbit's last point exactly to count it
    rng = random.Random(f"agreement:{flips}")
    for _ in range(50):
        spec = _random_float_4iet(rng, flips)
        x0 = rng.random()
        pts = orbit(spec, x0, 2000).points
        p, n = pts[-1], len(pts)
        below = sum(q < p for q in pts)
        upto = sum(q <= p for q in pts)
        assert birkhoff_average(spec, x0, (0.0, p), n) * n == below
        assert (birkhoff_average(spec, x0, (0.0, math.nextafter(p, 1)), n)
                * n == upto), spec


def test_exact_golden_orbit_and_measure_values():
    a = golden_alpha()
    spec = validate((1 - a, a), (2, 1))
    orb = orbit(spec, Fraction(1, 10), 12)
    # x_k = 1/10 + k*alpha - m_k with alpha = (sqrt(5) - 1)/2
    m = (0, 0, 1, 1, 2, 3, 3, 4, 5, 5, 6, 6, 7)   # floor(1/10 + k*alpha)
    assert orb.points == tuple(
        quad(Fraction(1, 10) - Fraction(k, 2) - m[k], Fraction(k, 2), 5)
        for k in range(13))
    assert orb.interval_indices == (1, 2, 1, 2, 2, 1, 2, 2, 1, 2, 1, 2, 2)
    em = empirical_measure(spec, Fraction(1, 10), 500, bins=8)
    assert em.bin_edges == (0.0, 0.125, 0.25, 0.375, 0.3819660112501051,
                            0.5, 0.625, 0.75, 0.875, 1.0)
    assert em.masses == tuple(c / 500 for c in
                              (62, 63, 63, 3, 59, 63, 62, 62, 63))
    assert birkhoff_average(spec, Fraction(1, 10),
                            (Fraction(1, 5), 1 - a), 500) == 0.182


def _bins_by_bisect(points, edges):
    # one bisect per point; the first bin takes points below its edge,
    # the last bin points at or past its edge
    counts = [0] * (len(edges) - 1)
    for x in points:
        b = bisect_right(edges, x) - 1
        counts[min(max(b, 0), len(counts) - 1)] += 1
    return counts


def _visits_by_bisect(spec, x0, n_steps, edges):
    points = [x0]
    for _ in range(n_steps - 1):
        points.append(evaluate(spec, points[-1]))
    return _bins_by_bisect(points[:n_steps], edges)


def _assert_each_bin(spec, x0, n_steps, edges):
    # count_visits on each bin [edges[k], edges[k+1]) against the bisect
    # reference over [0, *edges, 1]: its extra bins [0, edges[0]) and
    # [edges[-1], 1) take the points outside the edges, and are dropped
    assert ([count_visits(spec, x0, n_steps, lo, hi)
             for lo, hi in zip(edges, edges[1:])]
            == _visits_by_bisect(spec, x0, n_steps, [0, *edges, 1])[1:-1]), (
        spec, x0, n_steps, edges)


@pytest.mark.parametrize("flips", [False, True], ids=["oriented", "flips"])
def test_count_visits_across_block_boundaries(flips):
    # count_visits records 8192 points at a time
    rng = random.Random(f"blocks:{flips}")
    for _ in range(3):
        spec = _random_float_4iet(rng, flips)
        x0 = rng.random()
        lo = rng.uniform(0.0, 0.5)
        for edges in (_bin_edges(spec, 64),
                      [0.0, lo, lo + rng.uniform(0.0, 0.5), 1.0]):
            for n in (1, 8191, 8192, 8193, 2 * 8192 + 1):
                _assert_each_bin(spec, x0, n, edges)


def test_count_visits_exact_rational_spec():
    spec = validate((Fraction(2, 7), Fraction(3, 11), 1 - Fraction(2, 7)
                     - Fraction(3, 11)), (3, 1, 2), (1, -1, 1))
    edges = [Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(5, 7), 1]
    x0 = Fraction(1, 13)
    for n in (1, 8192, 8193):
        _assert_each_bin(spec, x0, n, edges)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_count_returns_outer_bins_take_points_outside_the_edges(mode):
    # the orbit 1/4, 3/4, 1/4, ... lies below the first edge and on the last
    spec = validate((Fraction(1, 2), Fraction(1, 2)), (2, 1), mode=mode)
    edges = (Fraction(1, 2), Fraction(5, 8), Fraction(3, 4))
    assert count_returns(spec, Fraction(1, 4), 5, edges, []) == [3, 2]


def test_count_visits_exact_matches_the_bisect_reference():
    # starts on cuts, on bin edges and on the golden orbit; the edges mix
    # Fractions with Quadratic cuts, so equal points and edges are met
    a = golden_alpha()
    s3 = quad(0, 1, 3)
    specs = [validate((1 - a, a), (2, 1)),
             validate(((s3 - 1) / 4, Fraction(1, 5), 2 - s3,
                       Fraction(-19, 20) + s3 * Fraction(3, 4)), (4, 3, 2, 1)),
             validate((quad(-1, 1, 2), Fraction(1, 4), quad(Fraction(7, 4),
                                                            -1, 2)),
                      (3, 1, 2), (1, -1, 1))]
    for spec in specs:
        grid = [Fraction(k, 16) for k in range(17)]
        for edges in (grid, sorted(set(grid) | set(spec.cuts)),
                      [0, Fraction(1, 5), spec.cuts[-1], Fraction(9, 10)],
                      [Fraction(1, 5), spec.cuts[-1], Fraction(9, 10)]):
            starts = (list(spec.cuts) + edges[1:-1:3]
                      + list(orbit(spec, Fraction(1, 10), 3).points))
            for x0, n in [(starts[0], 8193)] + [(x, k) for x in starts
                                                 for k in (1, 300)]:
                _assert_each_bin(spec, x0, n, edges)


def _assert_tiles(spec, tower):
    """The pieces of a tower tile [0, 1): piece i over [bases[i],
    bases[i + 1]), the last one up to 1.  A piece is live (r >= 0) just
    when its base lies in J and is not empty, and, in float mode, its base
    and floor are wider than a sliver; every other piece is dead (r = -1)."""
    bases, pieces = tower.bases, tower.pieces
    assert bases == sorted(bases) and bases[0] == spec.beta[0]
    assert len(bases) == len(pieces)
    for u, v, p in zip(bases, bases[1:] + [spec.beta[-1]], pieces):
        wide = spec.mode == "exact" or min(v - u, p[1] - p[0]) > iet._SLIVER
        assert (p[5] >= 0) == (tower.j0 <= u < v <= tower.j1 and wide), (
            spec, u, v, p[5])


def _full_tower(spec, x0, edges):
    """The window tower of x0 with every piece built, and the floors it
    climbed, at most 10^5."""
    inner = edges[1:-1]
    tower, floors = iet._window_tower(spec, x0, inner), 0
    while not all(p[5] for p in tower.pieces):
        i = next(i for i, p in enumerate(tower.pieces) if not p[5])
        floors += iet._grow(spec, tower, i, inner, 10 ** 5 - floors)
        assert floors <= 10 ** 5, (spec, x0)
    _assert_tiles(spec, tower)
    return tower, floors


def test_count_returns_exact_matches_the_orbit():
    # against one bisect per orbit point; starts on cuts, on bin edges, at 0 and on preimages of cuts, which are
    # piece ends; the orbits of the hundredths spec land on the ends j0 and
    # j1 of their windows; n runs to one step before, at and after a return
    a = golden_alpha()
    s3 = quad(0, 1, 3)
    specs = [validate((1 - a, a), (2, 1)),
             validate(((s3 - 1) / 4, Fraction(1, 5), 2 - s3,
                       Fraction(-19, 20) + s3 * Fraction(3, 4)), (4, 3, 2, 1)),
             validate((quad(-1, 1, 2), Fraction(1, 4), quad(Fraction(7, 4),
                                                            -1, 2)),
                      (3, 1, 2), (1, -1, 1)),
             validate((Fraction(13, 100), Fraction(29, 100), Fraction(17, 100),
                       Fraction(41, 100)), (3, 1, 4, 2), (1, -1, 1, 1))]
    for spec in specs:
        edges = sorted({Fraction(k, 8) for k in range(9)} | set(spec.cuts))
        preimages = [evaluate(inverse(spec), c) for c in spec.cuts]
        starts = (list(spec.cuts) + edges[1:-1:2] + preimages
                  + [Fraction(0), Fraction(1, 10), Fraction(11, 100)])
        for x0 in starts:
            tower, floors = _full_tower(spec, x0, edges)
            j0, j1 = tower.j0, tower.j1
            pts = orbit(spec, x0, 1500).points
            back = max(k for k in range(1, 1500) if j0 <= pts[k] < j1)
            assert floors < back - 1, (spec, x0)   # within the floor cap
            if x0 in preimages:     # a piece end, some bases[i + 1]
                assert x0 in tower.bases[1:], (spec, x0)
            if spec is specs[-1] and x0 == Fraction(1, 10):
                assert j1 in pts
            if spec is specs[-1] and x0 == Fraction(11, 100):
                assert j0 in pts
            for n in (1, back - 1, back, back + 1):
                assert (count_returns(spec, x0, n, edges, [])
                        == _bins_by_bisect(pts[:n], edges)), (spec, x0, n)


@pytest.mark.parametrize("signs", [(1, 1, 1, 1), (-1, 1, 1, 1)],
                         ids=["oriented", "flips"])
def test_count_returns_repeats_exact_cycles_over_many_laps(signs):
    # every orbit of a rational IET is periodic, so a run's returns come
    # back to their first point and the cycle is repeated as often as it
    # fits; n runs to one step before, at and after a whole number of
    # periods near 10^5
    spec = validate((Fraction(13, 97), Fraction(29, 97), Fraction(17, 97),
                     Fraction(38, 97)), (3, 1, 4, 2), signs)
    edges = _bin_edges(spec, 16)
    for x0 in (Fraction(1, 10), Fraction(1, 3)):
        period = [x0]
        while (x := evaluate(spec, period[-1])) != x0:
            period.append(x)
        laps = 10 ** 5 // len(period)
        for n in (laps * len(period) + d for d in (-1, 0, 1)):
            whole, part = divmod(n, len(period))
            assert (count_returns(spec, x0, n, edges, [])
                    == _bins_by_bisect(period * whole + period[:part],
                                       edges)), (signs, x0, n)


def test_count_returns_rides_a_cycle_through_a_piece_end(monkeypatch):
    # the orbit of the cut 42/97 meets the window around it at 42/97 alone,
    # a piece end, so every step is a pointwise one; the run keeps their
    # bins on its path and repeats the cycle when it is back at its mark
    spec = validate((Fraction(13, 97), Fraction(29, 97), Fraction(17, 97),
                     Fraction(38, 97)), (3, 1, 4, 2))
    x0, edges, n = Fraction(42, 97), _bin_edges(spec, 16), 10 ** 5
    period = [x0]
    while (x := evaluate(spec, period[-1])) != x0:
        period.append(x)
    record, calls = iet._record, []

    def record_spy(*args):
        calls.append(args)
        return record(*args)

    monkeypatch.setattr(iet, "_record", record_spy)
    counts = count_returns(spec, x0, n, edges, [])
    assert len(calls) < 2 * len(period)       # a lap and the part lap
    monkeypatch.undo()
    assert counts == _bins_by_bisect(orbit(spec, x0, n - 1).points, edges)


def _walk_returns(spec, x0, n_steps, edges):
    """A float run through its own tower, one return at a time: the
    census's counts with no cycle repeated."""
    inner = edges[1:-1]
    tower = iet._window_tower(spec, x0, inner)
    bases, pieces = tower.bases, tower.pieces
    counts, x, left, budget = [0] * (len(edges) - 1), x0, n_steps, n_steps
    while left:
        i = bisect_right(bases, x) - 1
        a, b, sign, tau, bins, r, _ = pieces[i]
        if x == bases[i] or r < 0 or r > left or not r and budget < 0:
            counts[bisect_right(inner, x)] += 1
            x = iet._record(spec, x, 1)[0][1]
            left -= 1
        elif not r:
            budget -= iet._grow(spec, tower, i, inner, budget)
        else:
            for k in bins:
                counts[k] += 1
            left -= r
            x = min(max(sign * x + tau, a), math.nextafter(b, 0.0))
    return counts


def _laps_spy(monkeypatch):
    """Spy on the cycle test: for each call, whether the return landed on
    the mark itself, and the laps repeated."""
    laps, calls = iet._laps, []

    def spy(mark, x, path, left, bases):
        calls.append((x == mark, laps(mark, x, path, left, bases)))
        return calls[-1][1]

    monkeypatch.setattr(iet, "_laps", spy)
    return calls


# task 3 of the bench census at seeds 1 and 9: a float 4-IET with flips,
# and its 16 starts
_DRIFTING_CENSUSES = [
    ((0.2670030678660875, 0.22422152056965483, 0.272702054410784,
      0.23607335715347366), (2, 3, 4, 1), (-1, -1, -1, 1),
     (0.5994417932679402, 0.5622098627854866, 0.27144521985868464,
      0.9641663858749591, 0.291536951555589, 0.05530729722162164,
      0.3333223309624427, 0.3712306436202636, 0.824534719404181,
      0.7524277595440327, 0.23848173732280376, 0.600897725940593,
      0.9100667281353085, 0.2107782884502255, 0.7084485749169808,
      0.1712167780447008)),
    ((0.22836057996516052, 0.35387891573760416, 0.30011780380258674,
      0.11764270049464853), (4, 3, 1, 2), (-1, -1, 1, -1),
     (0.027450380031595834, 0.19414121116053107, 0.11417154499384352,
      0.6009336715074765, 0.7105492656960664, 0.43676158296407186,
      0.8118001997324251, 0.8072466062951064, 0.5346779518200616,
      0.8589958828767206, 0.5307508161900196, 0.8101232168986088,
      0.7518583810563806, 0.36788309471741787, 0.14299407901395977,
      0.7971011101094058))]


def test_drifting_flip_cycles_count_as_the_return_by_return_walk(
        monkeypatch):
    # almost every IET with flips has periodic components; along one a
    # float return comes back an ulp or two from the mark
    verdicts = _laps_spy(monkeypatch)
    runs = _census_runs(monkeypatch)
    for lengths, pi, signs, starts in _DRIFTING_CENSUSES:
        spec = validate(lengths, pi, signs, mode="float")
        edges = _bin_edges(spec, DEFAULT_BINS)
        runs.clear()
        estimate_ergodic_count(spec, starts, 10 ** 5, cluster_tol=0.1)
        assert len(runs) == 16
        for x0, counts, _ in runs:
            assert counts == _walk_returns(spec, x0, 10 ** 5, edges), (
                spec, x0)
    assert any(not on_mark and laps for on_mark, laps in verdicts)


def test_a_drift_too_wide_for_the_laps_left_steps_on(monkeypatch):
    # a bin edge eps past a point of the orbit puts a piece end next to the
    # cycle; drawn from seeds 0, 1, ..., seed 11 is the first whose run
    # refuses a drifting return and whose counts change when one lap's
    # drift, not laps + 2 laps', is held against the room
    rng = random.Random("margin:11")
    spec = _random_float_4iet(rng, True)
    x0 = rng.random()
    pts = orbit(spec, x0, 2000).points
    y, eps = pts[rng.randrange(1000, 2000)], 10 ** rng.uniform(-15, -11)
    edges = sorted(set(_bin_edges(spec, 64)) | {y + eps})
    verdicts = _laps_spy(monkeypatch)
    assert (count_returns(spec, x0, 10 ** 5, edges, [])
            == _walk_returns(spec, x0, 10 ** 5, edges))
    assert (False, 0) in verdicts              # refused, then stepped on
    assert any(not on_mark and laps for on_mark, laps in verdicts)


def _seed2_flip_spec():
    # a float 4-IET with flips whose tower over [0.0665, 0.0865), built
    # without dropping slivers, passes 10^6 floors
    return validate((0.19198200396024595, 0.09481955849700834,
                     0.12441257720410187, 0.5887858603386438),
                    (3, 2, 4, 1), (1, -1, -1, 1), mode="float")


def _float_tower_corpus():
    rng = random.Random("towers")
    specs = [_random_float_4iet(rng, flips) for flips in (False, True) * 5]
    cases = [(spec, rng.random()) for spec in specs for _ in range(4)]
    return cases + [(_seed2_flip_spec(), 0.0765)]


def test_count_returns_float_matches_the_orbit():
    for spec, x0 in _float_tower_corpus():
        edges = _bin_edges(spec, 64)
        assert (count_returns(spec, x0, 20000, edges, [])
                == _bins_by_bisect(orbit(spec, x0, 19999).points, edges)), (
            spec, x0)


def test_float_tower_drops_slivers():
    # no run rides a float sliver: it stays in the tiling as a dead piece
    # (`_full_tower` checks the tiling); between the outer dead pieces over
    # [0, j0) and [j1, 1), the corpus leaves five, empty or under 2^-52
    slivers = 0
    for spec, x0 in _float_tower_corpus():
        tower, floors = _full_tower(spec, x0, _bin_edges(spec, 64))
        slivers += sum(p[5] < 0 for p in tower.pieces[1:-1])
    assert slivers == 5
    assert floors < 1000    # the last case: the seed-2 flip spec


def test_count_returns_past_the_floor_cap_is_count_visits(monkeypatch):
    # the first piece over [0.29, 0.31) climbs more than 10 floors, so a
    # 10-step run builds 11 floors and steps all 10 steps pointwise
    spec, x0 = golden_float(), 0.3
    edges = _bin_edges(spec, 64)
    grow, floors = iet._grow, []

    def grow_spy(*args):
        floors.append(grow(*args))
        return floors[-1]

    monkeypatch.setattr(iet, "_grow", grow_spy)
    assert (count_returns(spec, x0, 10, edges, [])
            == [count_visits(spec, x0, 10, lo, hi)
                for lo, hi in zip(edges, edges[1:])])
    assert sum(floors) == 11


def test_a_float_return_is_clamped_into_its_floor():
    # one ulp inside a piece's base, next to a bin edge, sign*x + tau
    # rounds past the top b of the return floor (first case) or below its
    # bottom a (second); clamped into [a, b), the run counts as the orbit
    cases = [((0.13358176311762873, 0.5494343027983891, 0.05878469741556227,
               0.25819923666841993), (4, 3, 2, 1), (-1, 1, 1, -1),
              0.4195440147048316, 0.42187499999999994),
             ((0.3469730980910203, 0.2617821182641801, 0.28803611644874794,
               0.10320866719605162), (2, 3, 4, 1), (-1, 1, 1, 1),
              0.7577007745693521, 0.7500000000000001)]
    for k, (lengths, pi, signs, x0, x) in enumerate(cases):
        spec = validate(lengths, pi, signs, mode="float")
        edges = _bin_edges(spec, 64)
        tower, _ = _full_tower(spec, x0, edges)
        i = bisect_right(tower.bases, x) - 1
        a, b, sign, tau, _, r, _ = tower.pieces[i]
        assert tower.bases[i] < x < tower.bases[i + 1]
        assert sign * x + tau >= b if k == 0 else sign * x + tau < a
        pts = orbit(spec, x, r + 2).points
        for n in (r, r + 1, r + 3):
            assert (count_returns(spec, x, n, edges, [tower])
                    == _bins_by_bisect(pts[:n], edges)), (k, n)


def _sqrt3_4iet():
    s3 = quad(0, 1, 3)
    return validate(((s3 - 1) / 4, Fraction(1, 5), 2 - s3,
                     Fraction(-19, 20) + s3 * Fraction(3, 4)), (4, 3, 2, 1))


def test_a_tower_past_its_floor_cap_serves_a_later_run(monkeypatch):
    # a short run stops its tower mid-climb; a later run over the same
    # towers goes on climbing from the floor it reached
    spec, x0 = _sqrt3_4iet(), Fraction(1, 10)
    edges = sorted({Fraction(k, 8) for k in range(9)} | set(spec.cuts))
    pts = orbit(spec, x0, 1500).points
    grow, capped = iet._grow, []

    def grow_spy(spec, tower, i, inner, max_floors):
        floors = grow(spec, tower, i, inner, max_floors)
        capped.append(floors > max_floors)
        return floors

    monkeypatch.setattr(iet, "_grow", grow_spy)
    for first in (5, 10, 20, 50):
        towers, capped[:] = [], []
        assert (count_returns(spec, x0, first, edges, towers)
                == _bins_by_bisect(pts[:first], edges))
        assert capped[-1], first
        for n in (first + 1, 1487, 1500):
            assert (count_returns(spec, x0, n, edges, towers)
                    == _bins_by_bisect(pts[:n], edges)), (first, n)
        assert len(towers) == 1


def _census_runs(monkeypatch):
    """Spy on the census: each run's start, counts and the towers it was
    given, after the run."""
    through, runs = count_returns, []

    def spy(spec, x0, n_steps, edges, towers):
        counts = through(spec, x0, n_steps, edges, towers)
        runs.append((x0, counts, towers))
        return counts

    monkeypatch.setattr("ietlab.measures.count_returns", spy)
    return runs


def test_census_shares_exact_towers_bit_for_bit(monkeypatch):
    a = golden_alpha()
    runs = _census_runs(monkeypatch)
    rng = random.Random("shared exact")
    for spec in (validate((1 - a, a), (2, 1)), _sqrt3_4iet()):
        starts = [Fraction(rng.randrange(1000), 1000) for _ in range(16)]
        edges, n = _bin_edges(spec, 16), 2000
        runs.clear()
        census = estimate_ergodic_count(spec, starts, n, bins=16)
        assert len(runs) == 16
        visits = {float(x0): _bins_by_bisect(orbit(spec, x0, n - 1).points,
                                             edges) for x0 in starts}
        for x0, counts, towers in runs:
            assert counts == visits[float(x0)], (spec, x0)
            assert towers is runs[0][2]
        assert len(runs[0][2]) < 4, spec           # starts share windows
        for m, _ in census.clusters:
            assert m.masses == tuple(c / n for c in visits[m.start])


def test_census_counts_as_each_start_alone(monkeypatch):
    # on the float tower corpus, a start riding a shared tower counts as
    # it does through its own
    runs = _census_runs(monkeypatch)
    cases = _float_tower_corpus()
    for spec in {id(spec): spec for spec, _ in cases}.values():
        starts = [x0 for s, x0 in cases if s is spec] + [0.5, 0.9]
        runs.clear()
        estimate_ergodic_count(spec, starts, 20000)
        assert len(runs[-1][2]) < len(starts) or not spec.oriented, spec
        for tower in runs[-1][2]:         # built as far as the runs took it
            _assert_tiles(spec, tower)
        edges = _bin_edges(spec, DEFAULT_BINS)
        for x0, counts, _ in runs[:]:     # alone, each start is a run more
            alone = count_returns(spec, x0, 20000, edges, [])
            assert counts == alone, (spec, x0)
            assert (tuple(c / 20000 for c in counts)
                    == empirical_measure(spec, x0, 20000).masses)


def test_census_of_a_flip_spec_keeps_a_window_per_start(monkeypatch):
    # 0.1 and 0.2 make one periodic component of x -> 0.3 - x, and each
    # lands in the other's window within two steps
    window, windows = iet._window_tower, []

    def window_spy(spec, x, inner):
        windows.append(window(spec, x, inner))
        return windows[-1]

    monkeypatch.setattr(iet, "_window_tower", window_spy)
    runs = _census_runs(monkeypatch)
    spec = validate((0.3, 0.7), (1, 2), (-1, 1), mode="float")
    census = estimate_ergodic_count(spec, [0.1, 0.2, 0.5], 1000)
    assert census.non_minimal_flag
    assert [x0 for x0, _, _ in runs] == [0.1, 0.2, 0.5]
    assert len(windows) == 3
    for (x0, _, _), tower in zip(runs, windows):
        assert tower.j0 <= x0 < tower.j1


def test_a_census_repeated_costs_and_counts_the_same(monkeypatch):
    grow, floors = iet._grow, []

    def grow_spy(*args):
        floors.append(grow(*args))
        return floors[-1]

    monkeypatch.setattr(iet, "_grow", grow_spy)
    for spec in (golden_float(), _sqrt3_4iet()):
        starts = [Fraction(k, 17) for k in range(1, 17)]
        results, built = [], []
        for _ in range(2):
            floors.clear()
            results.append(estimate_ergodic_count(spec, starts, 1000))
            built.append(sum(floors))
            assert measures._CENSUS.get() is None   # no tower outlives it
        assert results[0] == results[1] and built[0] == built[1] > 0, spec
        floors.clear()
        empirical_measure(spec, starts[0], 1000)
        assert sum(floors) > 0            # a lone start builds its own tower
