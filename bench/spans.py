"""Spans around calls into ietlab's public functions, recorded from outside.

`Tracer.install()` replaces each target function by a timing wrapper in
every `ietlab` module namespace that holds it, so calls between modules are
seen too; `remove()` puts the originals back.  A span keeps its name,
start, end, parent, self time and a few values read from the call's
arguments and result.  Functions called thousands of times per task
(`intmat.mat_mul`, the serialize helpers) are only totalled, not kept as
spans.  Spans sit in memory and are written out by `write()`.
"""

from __future__ import annotations

import json
import sys
import time
from statistics import median

from ietlab import (cli, dimension_group, iet, induction, intmat, measures,
                    rotation, serialize, symbolic)


def _census_steps(args, kwargs, res):
    return {"steps": sum(m.iterates * k for m, k in res.clusters)}


def _orbit_steps(args, kwargs, res):
    return {"mode": args[0].mode, "steps": len(res.points) - 1}


def _induce_steps(args, kwargs, res):
    return {"mode": args[0].mode, "steps": len(res)}


def _symbols(args, kwargs, res):
    return {"symbols": len(res)}


def _pf_iterations(args, kwargs, res):
    return {"iterations": res.iterations}


def _entry_bits(args, kwargs, res):
    return {"bits": max(abs(v).bit_length() for row in res for v in row)}


def _subcommand(args, kwargs, res):
    return {"subcommand": args[0][0]}


SPANS = [  # (module, function, note)
    (measures, "estimate_ergodic_count", _census_steps),
    (measures, "empirical_measure", None),
    (iet, "orbit", _orbit_steps),
    (iet, "validate", None),
    (symbolic, "code_orbit", _symbols),
    (symbolic, "block_stats", None),
    (symbolic, "block_complexity", None),
    (symbolic, "transitivity_index", None),
    (symbolic, "covering_index", None),
    (induction, "induce", _induce_steps),
    (induction, "detect_stationarity", None),
    (dimension_group, "strict_ergodicity_verdict", None),
    (dimension_group, "state_simplex", None),
    (dimension_group, "estimate_state_dim", None),
    (dimension_group, "perron_frobenius", _pf_iterations),
    (dimension_group, "is_primitive", None),
    (rotation, "modular_equivalent", None),
    (rotation, "detect_quadratic_surd", None),
    (rotation, "rotation_number", None),
    (serialize, "load_spec", None),
    (serialize, "load_matrices", None),
    (cli, "main", _subcommand),
]

TOTALS = [  # (module, function, note)
    (intmat, "mat_mul", _entry_bits),
    (intmat, "product", None),
    (serialize, "spec_from_dict", None),
    (serialize, "spec_to_dict", None),
    (serialize, "scalar_to_json", None),
    (serialize, "scalar_from_json", None),
    (serialize, "matrix_to_json", None),
    (serialize, "matrix_from_json", None),
    (serialize, "sequence_to_dict", None),
]


def _qualname(module, name):
    return f"{module.__name__.removeprefix('ietlab.')}.{name}"


class Tracer:
    def __init__(self):
        self.spans = []
        self.totals = {}       # (workload, name) -> {"calls", "ns", "self_ns", ...}
        self.workload = None   # set by the runner around each workload's calls
        self._stack = []       # frames [span id or 0, child ns, recorded ancestor]
        self._next_id = 1
        self._patched = []

    def _wrap(self, name, fn, note, keep):
        stack, clock = self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            ancestor = parent[0] or parent[2] if parent else 0
            span_id = 0
            if keep:
                span_id, self._next_id = self._next_id, self._next_id + 1
            frame = [span_id, 0, ancestor]
            stack.append(frame)
            error, result = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                info = note(args, kwargs, result) if note and not error else {}
                if keep:
                    self.spans.append({
                        "id": span_id, "parent": ancestor, "name": name,
                        "workload": self.workload, "start_ns": start,
                        "end_ns": end, "self_ns": dur - frame[1],
                        "error": error, **info})
                else:
                    t = self.totals.setdefault((self.workload, name), {
                        "calls": 0, "ns": 0, "self_ns": 0})
                    t["calls"] += 1
                    t["ns"] += dur
                    t["self_ns"] += dur - frame[1]
                    for k, v in info.items():
                        t[k] = max(t.get(k, v), v)

        return traced

    def install(self):
        owners = [m for n, m in sys.modules.items()
                  if n == "ietlab" or n.startswith("ietlab.")]
        for targets, keep in ((SPANS, True), (TOTALS, False)):
            for module, name, note in targets:
                orig = getattr(module, name)
                wrapper = self._wrap(_qualname(module, name), orig, note, keep)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is orig:
                            setattr(owner, attr, wrapper)
                            self._patched.append((owner, attr, orig))

    def remove(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (workload, name), t in sorted(self.totals.items()):
                fh.write(json.dumps({"name": name, "workload": workload,
                                     "total": True, **t}) + "\n")

    # -- per-layer metrics --------------------------------------------------

    def _select(self, workload, name, **where):
        return [s for s in self.spans
                if s["workload"] == workload and s["name"] == name
                and not s["error"]
                and all(s.get(k) == v for k, v in where.items())]

    def median_ms(self, workload, name):
        spans = self._select(workload, name)
        return median(s["end_ns"] - s["start_ns"] for s in spans) / 1e6

    def per_unit(self, workload, name, unit_key, **where):
        """Total span time over the total of a count the calls returned."""
        spans = self._select(workload, name, **where)
        return (sum(s["end_ns"] - s["start_ns"] for s in spans)
                / sum(s[unit_key] for s in spans))

    def total(self, workload, name, key, **where):
        return sum(s[key] for s in self._select(workload, name, **where))

    def child_ms(self, workload, parent, child):
        """Median over `parent` spans of their time less their `child`
        spans."""
        kids = {}
        for s in self._select(workload, child):
            kids[s["parent"]] = kids.get(s["parent"], 0) + (
                s["end_ns"] - s["start_ns"])
        return median(s["end_ns"] - s["start_ns"] - kids.get(s["id"], 0)
                      for s in self._select(workload, parent)) / 1e6

    def by_subcommand_ms(self, workload):
        calls = {}
        for s in self._select(workload, "cli.main"):
            calls.setdefault(s["subcommand"], []).append(
                s["end_ns"] - s["start_ns"])
        return {k: sum(v) / len(v) / 1e6 for k, v in calls.items()}


SUBCOMMANDS = ("eval", "orbit", "code", "induce", "stationary", "ergodic",
               "simplex", "pf", "rotation", "measures", "bounds", "kgroups",
               "surface")
DUMP = ("serialize.spec_to_dict", "serialize.scalar_to_json",
        "serialize.matrix_to_json", "serialize.sequence_to_dict")


def layer_metrics(tr: Tracer, rounds, extra):
    """Per-layer metrics from the spans of a traced run.

    `rounds[w]` is the number of traced rounds of workload w; counts are
    given per round.  `extra` holds what is measured beside the spans:
    numbers_ns (per-op times), import_ms, process_ms (per subcommand),
    doc_bytes (one cli round) and overhead_s.
    """
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    census = "measures.estimate_ergodic_count"
    put("measures.census_ns_per_step", tr.per_unit("census", census, "steps"),
        "ns")
    put("measures.cluster_ms",
        tr.child_ms("census", census, "measures.empirical_measure"), "ms")
    put("measures.orbit_steps",
        tr.total("census", census, "steps") / rounds["census"], "count")
    put("iet.orbit_float_ns_per_step",
        tr.per_unit("itinerary", "iet.orbit", "steps", mode="float"), "ns")
    put("iet.orbit_exact_us_per_step",
        tr.per_unit("itinerary", "iet.orbit", "steps", mode="exact") / 1e3,
        "us")
    put("symbolic.code_ns_per_symbol",
        tr.per_unit("itinerary", "symbolic.code_orbit", "symbols"), "ns")
    put("symbolic.block_stats_ms",
        tr.median_ms("itinerary", "symbolic.block_stats"), "ms")
    put("symbolic.covering_index_ms",
        tr.median_ms("itinerary", "symbolic.covering_index"), "ms")
    for op, ns in extra["numbers_ns"].items():
        put(f"numbers.quadratic_{op}_ns", ns, "ns")
    for mode in ("exact", "float"):
        put(f"induction.induce_{mode}_us_per_step",
            tr.per_unit("certify", "induction.induce", "steps", mode=mode)
            / 1e3, "us")
    put("induction.detect_stationarity_ms",
        tr.median_ms("certify", "induction.detect_stationarity"), "ms")
    mm = tr.totals[("certify", "intmat.mat_mul")]
    put("intmat.mat_mul_ns", mm["ns"] / mm["calls"], "ns")
    put("intmat.max_entry_bits", mm["bits"], "bits")
    put("dimension_group.verdict_ms",
        tr.median_ms("certify", "dimension_group.strict_ergodicity_verdict"),
        "ms")
    put("dimension_group.state_simplex_ms",
        tr.median_ms("certify", "dimension_group.state_simplex"), "ms")
    put("dimension_group.pf_us",
        tr.median_ms("certify", "dimension_group.perron_frobenius") * 1e3,
        "us")
    put("dimension_group.pf_iterations",
        tr.total("certify", "dimension_group.perron_frobenius", "iterations")
        / rounds["certify"], "count")
    put("dimension_group.is_primitive_us",
        tr.median_ms("certify", "dimension_group.is_primitive") * 1e3, "us")
    put("rotation.modular_equivalent_ms",
        tr.median_ms("certify", "rotation.modular_equivalent"), "ms")
    put("rotation.surd_us",
        tr.median_ms("certify", "rotation.detect_quadratic_surd") * 1e3, "us")
    put("cli.import_ms", extra["import_ms"], "ms")
    main_ms = tr.by_subcommand_ms("cli")
    for sub in SUBCOMMANDS:
        put(f"cli.process_ms.{sub}", extra["process_ms"][sub], "ms")
        put(f"cli.main_ms.{sub}", main_ms[sub], "ms")
    dump_ns = sum(t["self_ns"] for (w, name), t in tr.totals.items()
                  if w == "cli" and name in DUMP)
    put("serialize.dump_ms", dump_ns / rounds["cli"] / 1e6, "ms")
    put("serialize.doc_bytes", extra["doc_bytes"], "bytes")
    put("trace.overhead_s", extra["overhead_s"], "s")
    return m
