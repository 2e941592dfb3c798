"""JSON / CSV interchange for specs, matrix sequences and results.

Exact rationals travel as "p/q" strings and matrix entries as decimal
strings, so arbitrary precision survives the round trip; float-mode values
use Python's shortest round-trip repr.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Sequence, Union

from .iet import IETSpec, Orbit, validate
from .induction import MatrixSequence
from .numbers import Quadratic, as_int, quad


def scalar_to_json(x) -> Union[str, float, dict]:
    if isinstance(x, Quadratic):
        return {"a": str(x.a), "b": str(x.b), "d": x.d}
    if isinstance(x, (Fraction, int)):
        f = Fraction(x)
        return f"{f.numerator}/{f.denominator}"
    return float(x)


def scalar_from_json(v):
    """A "p/q" string, a number, or {"a", "b", "d"} for a + b*sqrt(d); any
    other form raises ValueError."""
    try:
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, dict):
            return quad(Fraction(v["a"]), Fraction(v["b"]), as_int(v["d"]))
        if isinstance(v, (int, float)):
            return float(v)
    except (KeyError, TypeError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"malformed scalar {v!r}: expected a 'p/q' string, a "
                     "number or an object with keys a, b and d")


def _array(value, what: str) -> list:
    """value, which must be a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array, not {value!r}")
    return value


def spec_to_dict(spec: IETSpec) -> dict:
    return {
        "lambda": [scalar_to_json(x) for x in spec.lengths],
        "pi": list(spec.pi),
        "epsilon": list(spec.signs),
        "mode": spec.mode,
    }


def spec_from_dict(data: dict) -> IETSpec:
    if not isinstance(data, dict):
        raise ValueError("a spec must be a JSON object")
    for key in ("lambda", "pi"):
        if key not in data:
            raise ValueError(f"spec has no {key!r} entry")
    lengths = [scalar_from_json(v) for v in _array(data["lambda"], "lambda")]
    signs = data.get("epsilon")
    return validate(lengths, _array(data["pi"], "pi"),
                    None if signs is None else _array(signs, "epsilon"),
                    mode=data.get("mode"))


def load_spec(path: str) -> IETSpec:
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def save_spec(spec: IETSpec, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def matrix_to_json(m) -> list:
    return [[str(v) for v in row] for row in m]


def matrix_from_json(rows) -> tuple:
    m = tuple(tuple(as_int(v) for v in _array(row, "a matrix row"))
              for row in _array(rows, "a matrix"))
    if not m or not m[0] or any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged or empty matrix")
    return m


def sequence_to_dict(seq: MatrixSequence) -> dict:
    out = {
        "matrices": [matrix_to_json(m) for m in seq.matrices],
        "tags": list(seq.tags),
    }
    if seq.final_lengths is not None:
        out["final_lengths"] = [scalar_to_json(x) for x in seq.final_lengths]
    return out


def sequence_from_dict(data: dict) -> MatrixSequence:
    if not isinstance(data, dict) or "matrices" not in data:
        raise ValueError("a matrix sequence must be a JSON array of "
                         "matrices or an object with a 'matrices' array")
    matrices = tuple(matrix_from_json(m)
                     for m in _array(data["matrices"], "matrices"))
    tags = tuple(_array(data.get("tags") or [], "tags")
                 or ("?",) * len(matrices))
    return MatrixSequence(matrices, tags)


def load_matrices(path: str) -> MatrixSequence:
    """A matrix sequence file; its entries may be signed."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, list):       # bare array of matrices
        data = {"matrices": data}
    return sequence_from_dict(data)


def _csv(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def orbit_to_csv(orb: Orbit) -> str:
    return _csv(["step", "x", "interval_index"],
                ((step, float(x), idx) for step, (x, idx)
                 in enumerate(zip(orb.points, orb.interval_indices))))


def block_stats_to_csv(rows: Sequence) -> str:
    """BlockStats rows as (N, p, phi, theta, ratio) CSV."""
    return _csv(["N", "p", "phi", "theta", "ratio"],
                ((s.N, s.distinct_blocks, s.transitivity, s.covering,
                  s.transitivity / s.covering) for s in rows))


def histogram_to_csv(measure) -> str:
    return _csv(["bin_lo", "bin_hi", "mass"],
                zip(measure.bin_edges, measure.bin_edges[1:], measure.masses))
