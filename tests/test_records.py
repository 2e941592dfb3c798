"""Result records: immutable named tuples, and a start-up that does not
import the dataclass machinery."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ietlab import (dimension_group, iet, induction, measures, rotation,
                    symbolic)
from ietlab.numbers import golden_alpha

RECORDS = [
    (dimension_group, ["CyclicStructure", "PFResult", "StateSpaceApprox",
                       "ErgodicityCertificate", "ErgodicityVerdict"]),
    (iet, ["IETSpec", "Orbit", "KeaneVerdict"]),
    (induction, ["MatrixSequence", "StationarityWitness", "BratteliDiagram"]),
    (measures, ["EmpiricalMeasure", "MeasureCensus"]),
    (rotation, ["MoebiusMatrix", "RotationNumber", "QuadraticSurd"]),
    (symbolic, ["Ray", "ForbiddenPairs", "BlockStats"]),
]


def _modules(code):
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; import json, sys; print(json.dumps(sorted(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return set(json.loads(out))


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    bare = _modules("pass")
    loaded = _modules("import ietlab.cli") - bare
    assert "ietlab.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}, sorted(loaded)


@pytest.mark.parametrize("module, name", [
    (m, n) for m, names in RECORDS for n in names])
def test_records_are_frozen_named_tuples(module, name):
    cls = getattr(module, name)
    assert issubclass(cls, tuple) and cls._fields
    args = (2, 1, 1, 1) if name == "MoebiusMatrix" else range(len(cls._fields))
    record = cls(*args)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.unknown = None
    assert record == tuple(record) and hash(record) == hash(tuple(record))


def test_spec_repr_leaves_out_the_derived_fields():
    spec = iet.validate((Fraction(1, 3), Fraction(2, 3)), (2, 1))
    assert repr(spec) == ("IETSpec(lengths=(Fraction(1, 3), Fraction(2, 3)), "
                          "pi=(2, 1), signs=(1, 1), mode='exact')")
    assert spec.cuts == (Fraction(1, 3),) and len(spec.branches) == 2


def test_verdict_repr_leaves_out_the_sequence():
    alpha = golden_alpha()
    spec = iet.validate((1 - alpha, alpha), (2, 1))
    verdict = dimension_group.strict_ergodicity_verdict(spec, 20)
    assert verdict.sequence is not None
    text = repr(verdict)
    assert text.startswith("ErgodicityVerdict(status='StrictlyErgodic', "
                           "certificate=ErgodicityCertificate(witness=")
    assert "sequence" not in text and "MatrixSequence" not in text
    assert text.endswith(f"diagnostics={verdict.diagnostics!r})")


def test_bratteli_level_sizes_is_a_property():
    diagram = induction.BratteliDiagram(((((1, 1), (0, 1)),),
                                         (((1, 0, 1), (0, 1, 1)),)))
    assert diagram.level_sizes == (2, 2, 3)
    assert repr(diagram).startswith("BratteliDiagram(blocks=")
    assert "level_sizes" not in repr(diagram)


def test_moebius_matrix_survives_pickle_and_copy():
    m = rotation.MoebiusMatrix(2, 1, 1, 1)
    for twin in (pickle.loads(pickle.dumps(m)), copy.copy(m),
                 copy.deepcopy(m)):
        assert type(twin) is rotation.MoebiusMatrix and twin == m
    assert repr(m) == "MoebiusMatrix(a=2, b=1, c=1, d=1)"
    assert rotation.MoebiusMatrix(a=0, b=1, c=1, d=0) == (0, 1, 1, 0)
    with pytest.raises(ValueError, match="determinant 2"):
        rotation.MoebiusMatrix(2, 0, 0, 1)
    assert m._replace(a=3, c=2) == (3, 1, 2, 1)
    with pytest.raises(ValueError, match="determinant 3"):
        m._replace(a=4)


def test_records_keep_their_lengths_and_defaults():
    seq = induction.MatrixSequence((((1, 1), (0, 1)),), ("a",))
    assert len(seq) == 1 and seq.final_lengths is None
    assert len(symbolic.Ray((1, 2, 1))) == 3
    assert iet.KeaneVerdict(iet.KeaneStatus.HOLDS, 5)[2:] == (None, ())
    assert dimension_group.PFResult(1.0, (1.0,), 1, 1, 1, 0.0).history == ()
