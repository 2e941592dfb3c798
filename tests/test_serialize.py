import json
import math
from fractions import Fraction

import pytest

from ietlab.iet import orbit, validate
from ietlab.induction import induce
from ietlab.measures import empirical_measure
from ietlab.numbers import Quadratic, golden_alpha
from ietlab.serialize import (load_matrices, load_spec, matrix_from_json,
                              matrix_to_json, orbit_to_csv, save_spec,
                              sequence_from_dict, sequence_to_dict,
                              histogram_to_csv, scalar_from_json,
                              spec_from_dict, spec_to_dict)


def test_spec_roundtrip_exact(tmp_path):
    spec = validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    path = tmp_path / "spec.json"
    save_spec(spec, str(path))
    loaded = load_spec(str(path))
    assert loaded.lengths == spec.lengths
    assert loaded.pi == spec.pi
    assert loaded.mode == "exact"
    # exact values travel as "p/q" strings
    data = json.loads(path.read_text())
    assert data["lambda"] == ["1/3", "2/3"]


def test_spec_roundtrip_quadratic():
    a = golden_alpha()
    spec = validate((1 - a, a), (2, 1))
    loaded = spec_from_dict(spec_to_dict(spec))
    assert loaded.lengths == spec.lengths
    assert isinstance(loaded.lengths[1], Quadratic)


def test_spec_roundtrip_float():
    spec = validate((0.25, 0.75), (2, 1), mode="float")
    loaded = spec_from_dict(spec_to_dict(spec))
    assert loaded.lengths == spec.lengths
    assert loaded.mode == "float"


def test_matrix_entries_are_decimal_strings():
    big = 10 ** 40                     # arbitrary precision must survive
    rows = matrix_to_json(((big, 1), (0, 1)))
    assert rows[0][0] == str(big)
    assert matrix_from_json(rows) == ((big, 1), (0, 1))


@pytest.mark.parametrize("value", [
    {"a": "1/2"}, {"a": "1/2", "b": "1/2"}, {"b": "1/2", "d": 5},
    {"a": "1/2", "b": "1/2", "d": 5.5}, {"a": [1], "b": "1/2", "d": 5},
    {"a": math.inf, "b": 0, "d": 5}, ["1/2"], None, "1/0", "x"])
def test_malformed_scalars_raise_value_error(value):
    with pytest.raises(ValueError):
        scalar_from_json(value)


def test_matrix_entries_must_be_integers():
    assert matrix_from_json([["2", 1], [1.0, 1]]) == ((2, 1), (1, 1))
    for bad in ([[1.5, 2.7], [1, 1]], [["1.5"]], [[math.inf]]):
        with pytest.raises(ValueError):
            matrix_from_json(bad)


def test_sequence_roundtrip():
    a = golden_alpha()
    seq = induce(validate((1 - a, a), (2, 1)), 6)
    loaded = sequence_from_dict(sequence_to_dict(seq))
    assert loaded.matrices == seq.matrices
    assert loaded.tags == seq.tags


def test_load_matrices_accepts_bare_array(tmp_path):
    path = tmp_path / "mats.json"
    path.write_text('[[["2","1"],["1","1"]]]')
    seq = load_matrices(str(path))
    assert seq.matrices == (((2, 1), (1, 1)),)


def test_load_matrices_reads_signed_entries(tmp_path):
    # the sign rule belongs to the functions that need it, not the loader
    path = tmp_path / "signed.json"
    path.write_text('{"matrices": [[["2", "-1"], [-3, 1]]], "tags": ["t"]}')
    seq = load_matrices(str(path))
    assert (seq.matrices, seq.tags) == ((((2, -1), (-3, 1)),), ("t",))


def test_orbit_csv_columns():
    spec = validate((Fraction(1, 2), Fraction(1, 2)), (2, 1))
    text = orbit_to_csv(orbit(spec, Fraction(1, 4), 2))
    lines = text.strip().splitlines()
    assert lines[0] == "step,x,interval_index"
    assert lines[1].startswith("0,0.25,1")
    assert len(lines) == 4


def test_histogram_csv_columns():
    spec = validate((0.5, 0.5), (2, 1), mode="float")
    m = empirical_measure(spec, 0.25, 100, bins=4)
    lines = histogram_to_csv(m).strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,mass"
    assert len(lines) == len(m.masses) + 1
