"""Fuzzed command lines and input files for every subcommand.

Whatever the arguments, files and output path, `cli.main` returns 0, 1 or
2 and never raises; a failure is one line on stderr; a JSON result fits the
schema.  An --out that cannot be written (under a missing directory, or a
directory) never exits 0.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import jsonschema
from hypothesis import given, settings, strategies as st

from ietlab.cli import main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "src" / "ietlab" / "schemas"
     / "result.schema.json").read_text())

BIG = 10 ** 400                 # beyond every float and every list length
POOL = ["0", "1", "2", "-1", "0.1", "1/3", "1/0", "nan", "inf", "1e400",
        "abc", str(BIG)]
COUNT, FRACTION = ["1", "2"], ["0", "0.1", "1/3"]

# the flags each subcommand may be given, besides the input files, --steps,
# --starts, --format and --seed, each with the values that usually work; a
# tuple of flags that take no value maps to None
FLAGS = {
    "eval": {"--x": FRACTION},
    "orbit": {"--x": FRACTION},
    "code": {"--x": FRACTION, "--stats-n": COUNT},
    "induce": {},
    "stationary": {"--max-block": COUNT, "--min-repeats": COUNT},
    "ergodic": {"--depth": COUNT, "--max-block": COUNT, "--tol": ["0.1"]},
    "simplex": {"--depth": COUNT, "--k": COUNT},
    "pf": {"--matrix": ["[[2,1],[1,1]]", "[[0,1],[1,0]]"], "--tol": ["0.1"]},
    "rotation": {"--depth": COUNT, ("--surd",): None},
    "measures": {"--bins": COUNT, "--cluster-tol": ["0.1"]},
    "bounds": {"--n": ["2"], ("--oriented", "--flips"): None},
    "kgroups": {"--n": ["2"]},
    "surface": {"--n": ["2"]},
}
MATRIX_TEXTS = ["[[1]]", "[[]]", "[]", "[1,2]", '"[1,2]"', "{}",
                f"[[{BIG},1],[1,1]]"]
SPEC_INPUT = {"eval", "orbit", "code", "induce", "stationary", "ergodic",
              "simplex", "measures"}
MATRICES_INPUT = {"simplex", "rotation"}
STEPS = {"orbit", "code", "induce", "stationary", "measures"}
CSV = {"orbit", "code", "measures"}

SPECS = [
    {"lambda": [{"a": "3/2", "b": "-1/2", "d": 5},
                {"a": "-1/2", "b": "1/2", "d": 5}],
     "pi": [2, 1], "epsilon": [1, 1], "mode": "exact"},
    {"lambda": ["1/6", "1/3", "1/2"], "pi": [3, 1, 2]},
    {"lambda": [0.25, 0.75], "pi": [2, 1], "epsilon": [1, -1],
     "mode": "float"},
]
MATRICES = [
    {"matrices": [[["2", "1"], ["1", "1"]], [["3", "1"], ["2", "1"]]],
     "tags": ["t", "b"]},
    [[[1, 1], [0, 1]]],
    [[[str(BIG), str(BIG - 1)], ["1", "1"]]],
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6)
    | st.sampled_from([0.5, -0.25, 1e300, float("inf"), float("nan"), BIG])
    | st.sampled_from(["", "1/2", "2/3", "1/0", "x", "exact", "float"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(
                       ["a", "b", "d", "lambda", "pi", "epsilon", "mode",
                        "matrices", "tags"]), inner, max_size=4)),
    max_leaves=12)


@st.composite
def documents(draw, valid):
    """A valid document, as it is or with some fields replaced or dropped,
    or any JSON value."""
    form = draw(st.sampled_from(["any"] + ["valid"] * 4 + ["edited"] * 3))
    if form == "any":
        return draw(JSON_VALUES)
    doc = draw(st.sampled_from(valid))
    if form == "edited" and isinstance(doc, dict):
        doc = dict(doc)
        for key in list(doc):
            change = draw(st.sampled_from(["keep"] * 6 + ["drop", "replace"]))
            if change == "drop":
                del doc[key]
            elif change == "replace":
                doc[key] = draw(JSON_VALUES)
    return doc


@st.composite
def values(draw, usual, wild=POOL):
    """A flag value: one in five is any of `wild`, the rest from `usual`."""
    return draw(st.sampled_from(wild if draw(st.integers(0, 4)) == 0
                                else usual))


@st.composite
def invocations(draw):
    """(argv without its input files and --out, {file flag: document},
    --out relative to a fresh directory)."""
    sub = draw(st.sampled_from(sorted(FLAGS)))
    argv = [sub]
    for flag, usual in FLAGS[sub].items():
        if usual is None:               # one of them, or none, or all
            argv += draw(st.sampled_from([[f] for f in flag]
                                         + [[], list(flag)]))
        elif draw(st.integers(0, 3)):   # a valued one, three times in four
            argv += [flag, draw(values(usual, POOL + MATRIX_TEXTS
                                       if flag == "--matrix" else POOL))]
    # small --steps and --starts always: their defaults run a long census
    if sub in STEPS:
        argv += ["--steps", draw(values(COUNT))]
    if sub == "measures":
        argv += ["--starts", draw(values(COUNT))]
    formats = ["json"] * 3 + ["text"] + ["csv"] * (sub in CSV)
    argv += ["--format", draw(st.sampled_from(formats))]
    if draw(st.booleans()):
        argv += ["--seed", draw(values(COUNT))]
    files = {}
    if sub in SPEC_INPUT:
        files["--spec"] = draw(documents(SPECS))
    if sub in MATRICES_INPUT:
        files["--matrices"] = draw(documents(MATRICES))
    if sub == "simplex":    # --spec, --matrices, both or neither
        keep = draw(st.sampled_from([{"--spec"}, {"--matrices"}, set(files),
                                     set()]))
        files = {k: v for k, v in files.items() if k in keep}
    out = draw(st.sampled_from(["out"] * 8 + ["missing/out", "."]))
    return argv, files, out


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(invocations())
def test_fuzzed_invocations_exit_cleanly(invocation):
    argv, files, out = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for flag, doc in files.items():
            path = Path(tmp) / f"{flag[2:]}.json"
            path.write_text(json.dumps(doc))
            argv = argv + [flag, str(path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(Path(tmp) / out)])
        assert code in (0, 1, 2), argv
        assert code or out == "out", (argv, out)
        if code:
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
        elif argv[argv.index("--format") + 1] == "json":
            jsonschema.validate(json.loads((Path(tmp) / out).read_text()),
                                SCHEMA)
