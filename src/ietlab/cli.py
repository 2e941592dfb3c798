"""Command-line front end.

Every run emits a single result document embedding the fully resolved
configuration (seed included), so identical invocations replay to
byte-identical JSON.  Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import dimension_group as dg
from . import induction, iet, measures, rotation, serialize, symbolic
from .errors import IETLabError


def _point(text: str):
    """Parse --x values: 'p/q' stays exact, otherwise float."""
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"--x {text}: zero denominator") from None
    return float(text)


def _int(text: str) -> int:
    """An int no larger than sys.maxsize, the longest list there can be:
    no count, depth or n beyond it could finish."""
    value = int(text)
    if value > sys.maxsize:
        raise argparse.ArgumentTypeError(f"{text!r} is too large")
    return value


_int.__name__ = "int"   # argparse names the type in its messages


def _positive(kind):
    """argparse type: a finite `kind` greater than zero, as the result
    schema requires of steps, depths, counts and tolerances."""
    def parse(text: str):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a positive finite number")
        return value
    parse.__name__ = f"positive {kind.__name__}"
    return parse


_POS_INT = _positive(_int)
_POS_FLOAT = _positive(float)


def _count(text: str) -> int:
    """argparse type: an int of at least zero."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


# ---------------------------------------------------------------------------
# result builders, one per subcommand: each returns the result and a thunk
# that writes it as CSV, or None where it has no CSV form
# ---------------------------------------------------------------------------

def _run_eval(args):
    spec = serialize.load_spec(args.spec)
    x = _point(args.x)
    return {
        "x": float(x),
        "value": float(iet.evaluate(spec, x)),
        "interval_index": iet.interval_index(spec, x),
    }, None


def _run_orbit(args):
    spec = serialize.load_spec(args.spec)
    orb = iet.orbit(spec, _point(args.x), args.steps)
    return {
        "start": float(orb.start),
        "points": [float(p) for p in orb.points],
        "interval_indices": list(orb.interval_indices),
    }, lambda: serialize.orbit_to_csv(orb)


def _run_code(args):
    spec = serialize.load_spec(args.spec)
    ray = symbolic.code_orbit(spec, _point(args.x), args.steps)
    result = {"symbols": list(ray.symbols)}
    if not args.stats_n:
        return result, None
    stats = [symbolic.block_stats(ray, n) for n in range(1, args.stats_n + 1)]
    result["block_stats"] = [
        {"N": s.N, "p": s.distinct_blocks, "phi": s.transitivity,
         "theta": s.covering} for s in stats]
    return result, lambda: serialize.block_stats_to_csv(stats)


def _run_induce(args):
    spec = serialize.load_spec(args.spec)
    seq = induction.induce(spec, args.steps)
    return serialize.sequence_to_dict(seq), None


def _run_stationary(args):
    spec = serialize.load_spec(args.spec)
    seq = induction.induce(spec, args.steps)
    w = induction.detect_stationarity(seq, args.max_block, args.min_repeats)
    return {"witness": None if w is None else _witness_to_dict(w)}, None


def _witness_to_dict(w):
    return {
        "start": w.start,
        "block_length": w.block_length,
        "block_product": serialize.matrix_to_json(w.block_product),
        "repetitions_verified": w.repetitions_verified,
    }


def _pf_to_dict(res):
    return {
        "eigenvalue": res.eigenvalue,
        "eigenvector": list(res.eigenvector),
        "lower": serialize.scalar_to_json(res.lower_cw),
        "upper": serialize.scalar_to_json(res.upper_cw),
        "iterations": res.iterations,
    }


def _verdict_to_dict(v):
    out = {"status": v.status, "state_dim_estimate": v.state_dim_estimate,
           "diagnostics": list(v.diagnostics)}
    if v.certificate is not None:
        c = v.certificate
        cert = {"final_diameter": c.final_diameter}
        if c.witness is not None:
            cert["witness"] = _witness_to_dict(c.witness)
        if c.pf is not None:
            cert["pf"] = _pf_to_dict(c.pf)
        # read from the columns the verdict built on v.sequence
        cert["diameters"] = [float(d)
                             for d in dg.simplex_diameters(v.sequence)]
        out["certificate"] = cert
    return out


def _run_ergodic(args):
    spec = serialize.load_spec(args.spec)
    return _verdict_to_dict(dg.strict_ergodicity_verdict(
        spec, args.depth, args.max_block, tol=args.tol)), None


def _run_simplex(args):
    if args.matrices:
        seq = serialize.load_matrices(args.matrices)
    elif args.spec:
        seq = induction.induce(serialize.load_spec(args.spec), args.depth)
    else:
        raise ValueError("simplex needs --spec or --matrices")
    k = args.k if args.k is not None else len(seq.matrices)
    approx = dg.state_simplex(seq, k)
    return {
        "k": approx.k,
        "columns": [[serialize.scalar_to_json(x) for x in col]
                    for col in approx.columns],
        "diameter": serialize.scalar_to_json(approx.diameter),
        "diameter_float": float(approx.diameter),
        "numeric_rank": approx.numeric_rank,
    }, None


def _run_pf(args):
    m = serialize.matrix_from_json(json.loads(args.matrix))
    res = dg.perron_frobenius(m, args.tol)
    return {**_pf_to_dict(res), "residual": res.residual}, None


def _run_rotation(args):
    seq = serialize.load_matrices(args.matrices)
    rn = rotation.rotation_number(seq.matrices, args.depth)
    result = {
        "convergents": [serialize.scalar_to_json(c) for c in rn.convergents],
        "value": rn.value if rn.convergents else None,   # NaN is not JSON
        "converged": rn.converged,
        "depth": rn.depth,
    }
    if args.surd:
        surd = rotation.detect_quadratic_surd(seq.matrices)
        result["surd"] = {
            "coefficients": list(surd.coefficients),
            "root_sign": surd.root_sign,
            "approx": surd.approx,
        }
    return result, None


def _run_measures(args):
    spec = serialize.load_spec(args.spec)
    rng = random.Random(args.seed)
    starts = [rng.random() for _ in range(args.starts)]
    census = measures.estimate_ergodic_count(
        spec, starts, args.steps, args.cluster_tol, args.bins)
    return {
        "starts": starts,
        "estimated_count": census.estimated_count,
        "bound": census.bound,
        "bound_respected": census.bound_respected,
        "non_minimal_flag": census.non_minimal_flag,
        "clusters": [
            {"members": count,
             "representative": {
                 "start": m.start,
                 "bin_edges": list(m.bin_edges),
                 "masses": list(m.masses),
             }} for m, count in census.clusters],
    }, lambda: "".join(serialize.histogram_to_csv(m)
                       for m, _ in census.clusters)


def _run_bounds(args):
    return {"bound": dg.measure_bounds(args.n, args.flips)}, None


def _run_kgroups(args):
    k0, k1 = dg.k_groups(args.n)
    return {"k0_rank": k0, "k1_rank": k1}, None


def _run_surface(args):
    params = [{"genus": g, "boundary_components": m}
              for g, m in symbolic.surface_parameters(args.n)]
    return {"parameters": params}, None


# ---------------------------------------------------------------------------
# argument grammar
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line in one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"usage error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ietlab",
        description="interval exchange transformations: orbits, induction, "
                    "ergodicity certificates, rotation numbers")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, run, spec=True):
        p.set_defaults(run=run)
        if spec:
            p.add_argument("--spec", required=True, help="IETSpec JSON file")
        p.add_argument("--out", help="output file (default: stdout, or "
                       "$IETLAB_OUT_DIR/<subcommand>.json)")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="apply the map to one point")
    common(p, _run_eval)
    p.add_argument("--x", required=True)

    p = sub.add_parser("orbit", help="iterate a point")
    common(p, _run_orbit)
    p.add_argument("--x", required=True)
    p.add_argument("--steps", type=_POS_INT, default=100)

    p = sub.add_parser("code", help="symbolic itinerary and block statistics")
    common(p, _run_code)
    p.add_argument("--x", required=True)
    p.add_argument("--steps", type=_POS_INT, default=1000)
    p.add_argument("--stats-n", type=_count, default=0,
                   help="also report block stats for N = 1..this")

    p = sub.add_parser("induce", help="run renormalization steps")
    common(p, _run_induce)
    p.add_argument("--steps", type=_POS_INT, default=40)

    p = sub.add_parser("stationary", help="search for a repeating block")
    common(p, _run_stationary)
    p.add_argument("--steps", type=_POS_INT, default=40)
    p.add_argument("--max-block", type=_POS_INT, default=induction.MAX_BLOCK)
    p.add_argument("--min-repeats", type=_POS_INT,
                   default=induction.MIN_REPEATS)

    p = sub.add_parser("ergodic", help="strict-ergodicity verdict")
    common(p, _run_ergodic)
    p.add_argument("--depth", type=_POS_INT, default=dg.INDUCTION_DEPTH)
    p.add_argument("--max-block", type=_POS_INT, default=induction.MAX_BLOCK)
    p.add_argument("--tol", type=_POS_FLOAT, default=dg.RANK_TOL)

    p = sub.add_parser("simplex", help="state-simplex approximation")
    common(p, _run_simplex, spec=False)
    p.add_argument("--spec", help="IETSpec JSON file (induced first)")
    p.add_argument("--matrices", help="matrix-sequence JSON file")
    p.add_argument("--depth", type=_POS_INT, default=40)
    p.add_argument("--k", type=_POS_INT)

    p = sub.add_parser("pf", help="Perron-Frobenius data of one matrix")
    common(p, _run_pf, spec=False)
    p.add_argument("--matrix", required=True,
                   help='JSON rows, e.g. "[[2,1],[1,1]]"')
    p.add_argument("--tol", type=_POS_FLOAT, default=dg.PF_TOL)

    p = sub.add_parser("rotation", help="matrix continued fraction")
    common(p, _run_rotation, spec=False)
    p.add_argument("--matrices", required=True,
                   help="2x2 matrix-sequence JSON file")
    p.add_argument("--depth", type=_POS_INT, default=rotation.CF_DEPTH)
    p.add_argument("--surd", action="store_true",
                   help="treat the sequence as periodic and solve exactly")

    p = sub.add_parser("measures", help="empirical-measure census")
    common(p, _run_measures)
    p.add_argument("--starts", type=_POS_INT, default=16)
    p.add_argument("--steps", type=_POS_INT, default=10 ** 5)
    p.add_argument("--bins", type=_POS_INT, default=measures.DEFAULT_BINS)
    p.add_argument("--cluster-tol", type=_POS_FLOAT,
                   default=measures.DEFAULT_CLUSTER_TOL)

    p = sub.add_parser("bounds", help="ergodic-measure count bound")
    common(p, _run_bounds, spec=False)
    p.add_argument("--n", type=_int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--oriented", dest="flips", action="store_false")
    g.add_argument("--flips", dest="flips", action="store_true")

    p = sub.add_parser("kgroups", help="K-group free ranks")
    common(p, _run_kgroups, spec=False)
    p.add_argument("--n", type=_int, required=True)

    p = sub.add_parser("surface", help="compatible surface parameters")
    common(p, _run_surface, spec=False)
    p.add_argument("--n", type=_int, required=True)

    return parser


def _text_payload(doc: dict) -> str:
    lines = [f"{doc['subcommand']}:"]
    for key, value in sorted(doc["result"].items()):
        lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"


def _write(args, payload: str) -> None:
    out = args.out
    if out is None and os.environ.get("IETLAB_OUT_DIR"):
        out = os.path.join(os.environ["IETLAB_OUT_DIR"],
                           f"{args.subcommand}.{args.format}")
    if out:
        with open(out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("out",) and not callable(v)}

    try:
        result, to_csv = args.run(args)
        doc = {"subcommand": args.subcommand, "config": config,
               "result": result}
        if args.format == "json":
            payload = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        elif args.format == "csv":
            if to_csv is None:
                sys.stderr.write("usage error: no CSV form for subcommand "
                                 f"{args.subcommand!r}\n")
                return 2
            payload = to_csv()
        else:
            payload = _text_payload(doc)
        _write(args, payload)       # an unwritable --out is an OSError
    except IETLabError as exc:
        step = getattr(exc, "step", None)
        where = "" if step is None else f" at step {step}"
        sys.stderr.write(f"error: {exc}{where}\n")
        return 1
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
