"""Spans recorded around calls into the package, kept in memory.

The traced run replaces the listed public functions with thin wrappers in
every ``artifact`` module namespace that holds them, so calls made from
inside the package are caught as well as calls made by the benchmark.
Each call records one span: name, start, end, parent span, the operation
it belongs to and whether it raised.  Nothing here touches ``src/``; the
wrappers exist only in the traced process.

Per-layer metrics are derived from the spans afterwards: ``calls`` counts
spans of a name, ``self_ms`` sums each span's duration minus the time
covered by its direct children.  Calls on one thread nest strictly, so the
children of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer name -> public functions wrapped in that module.  ``lie_algebra``
# is recorded as one span name, ``lie_algebra.build``, for every way the
# package constructs an algebra; nested constructions (``make_so`` calls
# ``algebra_from_basis``) count once.
LAYER_FUNCTIONS = {
    "flat_model": (
        "calibrate_model", "wedge", "hodge_star", "transverse_star",
        "contract_reeb",
    ),
    "form_decomposition": (
        "project", "project_vectors", "complex_components",
        "bidegree_split", "eigenspace_projectors",
    ),
    "lie_algebra": (
        "make_so", "make_su", "make_abelian", "algebra_from_basis",
    ),
    "gauge_fields": (
        "instanton_classify", "f_components_from_gform",
        "gform_complex_components", "g_wedge_bracket",
    ),
    "weitzenbock_engine": (
        "build_F_operator", "build_R_operator", "operator_spectrum",
        "vanishing_report", "quad_form_F",
    ),
    "ym_stability": (
        "algebraic_second_variation", "stability_report",
        "curvature_quad_paths",
    ),
    "deformation_symbols": (
        "build_quotient_spaces", "batch_exactness", "exactness_report",
        "symbol_maps", "basic_symbol_maps", "numerical_rank",
    ),
    "stiefel_example": (
        "stiefel_report", "indefiniteness_search", "sdci_verify",
        "structure_check",
    ),
    "cli_interface": (
        "main", "load_payload", "parse_gform", "encode_report",
        "run_selftest",
    ),
}

BUILD_SPAN = "lie_algebra.build"
NO_PARENT = -1


def span_name(module: str, function: str) -> str:
    if module == "lie_algebra":
        return BUILD_SPAN
    return f"{module}.{function}"


def traced_span_names() -> list:
    """Every span name the wrappers can record, in a fixed order."""
    names = []
    for module, functions in LAYER_FUNCTIONS.items():
        for function in functions:
            name = span_name(module, function)
            if name not in names:
                names.append(name)
    return names


class SpanRecorder:
    """Append-only span store in flat integer arrays.

    Times are ``perf_counter_ns`` readings.  ``parent`` holds the index of
    the enclosing span or ``NO_PARENT``; ``op`` the operation index set by
    :meth:`begin_op`.
    """

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.error = array("b")
        self._stack: list = [NO_PARENT]
        self._op = -1

    def intern(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def id_of(self, name: str) -> int:
        """Id of a recorded span name, or -2 for a name never recorded."""
        return self._name_ids.get(name, -2)

    def begin_op(self, op_index: int) -> None:
        self._op = op_index

    def current_name(self):
        top = self._stack[-1]
        if top == NO_PARENT:
            return None
        return self.names[self.name_id[top]]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.error.append(0)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int, failed: bool) -> None:
        self.end[index] = time.perf_counter_ns()
        if failed:
            self.error[index] = 1
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        """Copies of the span columns as numpy arrays."""
        return {
            name: np.frombuffer(getattr(self, name), dtype=dtype).copy()
            for name, dtype in (
                ("name_id", np.int64), ("start", np.int64),
                ("end", np.int64), ("parent", np.int64),
                ("op", np.int64), ("error", np.int8),
            )
        }

    def save(self, path, provenance_json: str) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            provenance=np.array(provenance_json),
            **self.arrays(),
        )


def _wrapper(function, recorder: SpanRecorder, name: str):
    name_id = recorder.intern(name)
    nested_build = name == BUILD_SPAN

    @functools.wraps(function)
    def traced(*args, **kwargs):
        if nested_build and recorder.current_name() == BUILD_SPAN:
            return function(*args, **kwargs)
        index = recorder.open(name_id)
        failed = True
        try:
            result = function(*args, **kwargs)
            failed = False
            return result
        finally:
            recorder.close(index, failed)

    return traced


def install(recorder: SpanRecorder, package: str = "artifact") -> None:
    """Wrap the listed functions wherever a package module holds them."""
    modules = [
        module
        for key, module in sorted(sys.modules.items())
        if module is not None
        and (key == package or key.startswith(package + "."))
    ]
    for module_name, functions in LAYER_FUNCTIONS.items():
        home = sys.modules[f"{package}.{module_name}"]
        for function_name in functions:
            original = getattr(home, function_name)
            wrapped = _wrapper(
                original, recorder, span_name(module_name, function_name)
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def self_times_ns(start, end, parent) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent != NO_PARENT
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_metrics(recorder: SpanRecorder, op_count: int,
                  covector_ops, covectors: int) -> dict:
    """Per-layer metric values derived from the recorded spans.

    ``covector_ops`` are the indices of the operations that swept the
    ``covectors`` symbol covectors; only their rank computations enter
    the per-covector ratio.
    """
    spans = recorder.arrays()
    self_ns = self_times_ns(spans["start"], spans["end"], spans["parent"])
    # spans outside an operation come from the benchmark's own checks
    ids = np.where(spans["op"] >= 0, spans["name_id"], -1)
    metrics = {}
    masks = {}
    for name in traced_span_names():
        name_id = recorder.id_of(name)
        mask = masks[name] = ids == name_id
        metrics[f"{name}.calls"] = (int(mask.sum()), "count")
        metrics[f"{name}.self_ms"] = (float(self_ns[mask].sum()) / 1e6, "ms")

    def per(count, base):
        return count / base if base else 0.0

    for name in ("flat_model.calibrate_model", BUILD_SPAN):
        metrics[f"{name}.calls_per_op"] = (
            per(int(masks[name].sum()), op_count), "ratio"
        )
    classify = masks["gauge_fields.instanton_classify"]
    metrics["gauge_fields.instanton_classify.failed"] = (
        int(spans["error"][classify].sum()), "count"
    )
    rank = masks["deformation_symbols.numerical_rank"]
    in_sweep = np.isin(spans["op"], np.asarray(covector_ops, dtype=np.int64))
    metrics["deformation_symbols.numerical_rank.calls_per_covector"] = (
        per(int((rank & in_sweep).sum()), covectors), "ratio"
    )
    return metrics
