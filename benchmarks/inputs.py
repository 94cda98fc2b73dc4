"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed and uses numpy
only, never the package under test: the package receives the generated
payloads and nothing else.  Forms are built from the fixed complex
coframe ``dz^j = e^{2j-1} - i e^{2j}`` so that each one has a known
eigenvalue type, which the verifier checks the reports against.

Form types (the classifier's labels):

* ``SD``   -- combinations of the eight ``w`` forms (the +1 block, type (1,1));
* ``ASD``  -- combinations of the six ``v`` forms (the -1 block, types
  (2,0)+(0,2));
* ``LAMBDA_MINUS_2`` -- multiples of ``e12 + e34 + e56`` (the contact line);
* ``NONE`` -- a mixture of the above, plus a vertical part when the basis
  can express one.

The ``cli_single`` stream holds a fixed edge slice (``EDGE_SHARE``) taken
from the known boundary cases of the CLI contract: forms shaped
``w1 (x) e0 + eps * v1 (x) e1`` with ``eps`` log-uniform in [1e-11, 1e-7],
entered in the ``real`` basis, where the two classifier routes can
disagree; and payloads holding ``NaN`` or ``1e308``.  The share is fixed
for coverage, not tuned to the defects it finds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

PAIRS = ((1, 2), (1, 3), (2, 3))
REAL_KEYS = tuple(combinations(range(1, 8), 2))
SD, ASD, LAMBDA, NONE = "SD", "ASD", "LAMBDA_MINUS_2", "NONE"
FORM_TYPES = (SD, ASD, LAMBDA, NONE)

# Terms (coefficient, symbol, symbol) of each family member; symbol j is
# dz^j, -j its conjugate.
W_TERMS = []
for _mu, _nu in PAIRS:
    W_TERMS.append(((0.5, _mu, -_nu), (-0.5, _nu, -_mu)))
    W_TERMS.append(((0.5j, _mu, -_nu), (0.5j, _nu, -_mu)))
W_TERMS.append(((0.5j, 1, -1), (-0.5j, 3, -3)))
W_TERMS.append(((0.5j, 2, -2), (-0.5j, 3, -3)))
V_TERMS = []
for _mu, _nu in PAIRS:
    V_TERMS.append(((0.5, _mu, _nu), (0.5, -_mu, -_nu)))
    V_TERMS.append(((-0.5j, _mu, _nu), (0.5j, -_mu, -_nu)))
# e^{2j-1} ^ e^{2j} = -(i/2) dz^j ^ conj(dz^j)
LINE_TERMS = tuple((-0.5j, j, -j) for j in (1, 2, 3))

# Algebras by the name the CLI accepts, with their dimension.
CLI_ALGEBRAS = {
    "su2": 3, "su2_trace": 3, "so3": 3, "so5": 10, "abelian1": 1,
    "custom_su2": 3,
}
EDGE_ALGEBRAS = ("su2", "so3", "so5")
# Commands that accept a 2-form of each type; ``vanishing`` needs (1,1).
COMMAND_TYPES = {
    "decompose": FORM_TYPES,
    "classify": FORM_TYPES,
    "spectrum": FORM_TYPES,
    "vanishing": (SD, LAMBDA),
    "stability": FORM_TYPES,
}

CALIBRATE_JOBS = 6
EDGE_NEAR_TOLERANCE = 4
EDGE_NON_FINITE = 2
CLI_PASS_JOBS = (CALIBRATE_JOBS + 2 * len(COMMAND_TYPES) * len(CLI_ALGEBRAS)
                 + EDGE_NEAR_TOLERANCE + EDGE_NON_FINITE)
EDGE_SHARE = (EDGE_NEAR_TOLERANCE + EDGE_NON_FINITE) / CLI_PASS_JOBS


def _one_form(symbol: int) -> np.ndarray:
    """Coefficients of ``dz^j`` (j > 0) or its conjugate on e^1..e^7."""
    vec = np.zeros(7, dtype=complex)
    j = abs(symbol)
    vec[2 * j - 2] = 1.0
    vec[2 * j - 1] = -1j if symbol > 0 else 1j
    return vec


def _real_vector(terms) -> np.ndarray:
    """Coefficients of a scalar 2-form on the lexicographic ``e^ij``."""
    out = np.zeros(len(REAL_KEYS), dtype=complex)
    for coeff, s, t in terms:
        a, b = _one_form(s), _one_form(t)
        for k, (i, j) in enumerate(REAL_KEYS):
            out[k] += coeff * (a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1])
    return out


VERTICAL_ROWS = [REAL_KEYS.index((i, 7)) for i in range(1, 7)]


@dataclass
class Form:
    """An algebra-valued 2-form as family coefficients, written out in
    any of the three input bases."""

    w_rows: np.ndarray | None          # (8, d) when the form is SD
    family: list = field(default_factory=list)   # (terms, vector) pairs
    vertical: np.ndarray | None = None  # (6, d) coefficients of e^i ^ e^7

    def real(self) -> np.ndarray:
        """(21, d) coefficients on the ``e^ij`` basis."""
        out = np.zeros((len(REAL_KEYS), len(self.family[0][1])))
        for terms, vec in self.family:
            out += np.outer(_real_vector(terms).real, vec)
        if self.vertical is not None:
            out[VERTICAL_ROWS] += self.vertical
        return out

    def complex_table(self) -> dict:
        """Components keyed by complex symbol pairs, as the CLI reads them."""
        table: dict = {}
        for terms, vec in self.family:
            for coeff, s, t in terms:
                key = f"{s},{t}"
                table[key] = table.get(key, 0.0) + coeff * np.asarray(vec)
        return table


def random_form(rng: np.random.Generator, kind: str, d: int,
                vertical: bool) -> Form:
    """A real 2-form of the given type with coefficients scaled by a
    log-uniform factor in [0.05, 2]."""
    scale = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
    family = []
    w_rows = None
    vert = None
    if kind in (SD, NONE):
        w_rows = scale * rng.standard_normal((8, d))
        family += [(W_TERMS[k], w_rows[k]) for k in range(8)]
    if kind in (ASD, NONE):
        rows = scale * rng.standard_normal((6, d))
        family += [(V_TERMS[k], rows[k]) for k in range(6)]
    if kind in (LAMBDA, NONE):
        family.append((LINE_TERMS, scale * rng.standard_normal(d)))
    if kind == NONE and vertical:
        vert = scale * rng.standard_normal((6, d))
    return Form(w_rows=w_rows if kind == SD else None, family=family,
                vertical=vert)


def _vector_json(vec) -> list:
    vec = np.asarray(vec)
    if np.iscomplexobj(vec):
        return [[float(z.real), float(z.imag)] for z in vec]
    return [float(x) for x in vec]


def custom_algebra_json() -> dict:
    """su(2) spanned by i/2 times the Pauli matrices, entries as [re, im]."""
    sigma = (
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    return {
        "name": "su2_pauli",
        "matrices": [
            [[[float(z.real), float(z.imag)] for z in row]
             for row in 0.5j * s]
            for s in sigma
        ],
        "inner": "killing",
    }


def _algebra_field(name: str):
    return custom_algebra_json() if name == "custom_su2" else name


def form_payload(form: Form, algebra: str, basis: str) -> dict:
    """A CLI input object holding ``form`` in the given basis."""
    if basis == "w":
        components = {
            f"w{k + 1}": _vector_json(form.w_rows[k]) for k in range(8)
        }
    elif basis == "real":
        real = form.real()
        components = {
            f"{i}{j}": _vector_json(real[k])
            for k, (i, j) in enumerate(REAL_KEYS)
            if np.any(real[k])
        }
    else:
        components = {
            key: _vector_json(vec)
            for key, vec in form.complex_table().items()
        }
    return {
        "algebra": _algebra_field(algebra),
        "basis": basis,
        "components": components,
    }


@dataclass
class CliJob:
    """One single-input CLI job: argv tail, payload and what to expect.

    ``kind`` is the generated form type, or ``None`` for edge inputs and
    ``calibrate``, whose outcome is judged by the contract alone.
    """

    command: str
    fmt: str
    payload: dict | None
    kind: str | None
    edge: str | None = None

    def input_text(self) -> str | None:
        if self.payload is None:
            return None
        return json.dumps(self.payload, sort_keys=True) + "\n"


def _ricci_fields(rng: np.random.Generator, command: str) -> dict:
    """Curvature data: a symmetric perturbation of the default."""
    if command in ("spectrum", "vanishing"):
        noise = rng.uniform(-0.5, 0.5, size=(3, 3))
        mat = 8.0 * np.eye(3) + (noise + noise.T) / 2.0
        return {"ricci": [[float(x) for x in row] for row in mat]}
    if command == "stability":
        noise = rng.uniform(-0.5, 0.5, size=(7, 7))
        mat = 6.0 * np.eye(7) + (noise + noise.T) / 2.0
        return {"ricci7": [[float(x) for x in row] for row in mat]}
    return {}


def _regular_jobs(rng: np.random.Generator) -> list:
    """The fixed mix of valid jobs; the seed draws only their numbers.

    Each form command runs twice on every algebra, cycling through the
    form types it accepts, the bases that can express the type and both
    output formats; the second run of each pair carries explicit Ricci
    data.
    """
    jobs = [CliJob("calibrate", ("json", "csv")[k % 2], None, None)
            for k in range(CALIBRATE_JOBS)]
    for command, kinds in COMMAND_TYPES.items():
        for a, algebra in enumerate(CLI_ALGEBRAS):
            for repeat in (0, 1):
                index = 2 * a + repeat
                kind = kinds[index % len(kinds)]
                bases = ("w", "real", "complex") if kind == SD \
                    else ("real", "complex")
                basis = bases[index % len(bases)]
                form = random_form(rng, kind, CLI_ALGEBRAS[algebra],
                                   vertical=basis == "real")
                payload = form_payload(form, algebra, basis)
                if repeat:
                    payload.update(_ricci_fields(rng, command))
                jobs.append(CliJob(command, ("json", "csv")[index % 2],
                                   payload, kind))
    return jobs


def near_tolerance_form(eps: float, d: int) -> Form:
    """``w1 (x) e0 + eps * v1 (x) e1``."""
    e0, e1 = np.zeros(d), np.zeros(d)
    e0[0] = 1.0
    e1[1] = eps
    return Form(w_rows=None, family=[(W_TERMS[0], e0), (V_TERMS[0], e1)])


def _edge_jobs(rng: np.random.Generator) -> list:
    jobs = []
    near_commands = ("decompose", "classify", "spectrum", "stability")
    for k in range(EDGE_NEAR_TOLERANCE):
        algebra = EDGE_ALGEBRAS[k % len(EDGE_ALGEBRAS)]
        eps = float(10.0 ** rng.uniform(-11.0, -7.0))
        form = near_tolerance_form(eps, CLI_ALGEBRAS[algebra])
        payload = form_payload(form, algebra, "real")
        jobs.append(CliJob(near_commands[k % len(near_commands)], "json",
                           payload, None,
                           edge=f"near_tolerance eps={eps:.3e}"))
    for k, value in enumerate((float("nan"), 1e308)[:EDGE_NON_FINITE]):
        algebra = EDGE_ALGEBRAS[k % len(EDGE_ALGEBRAS)]
        command = tuple(COMMAND_TYPES)[rng.integers(len(COMMAND_TYPES))]
        form = random_form(rng, SD, CLI_ALGEBRAS[algebra], vertical=False)
        payload = form_payload(form, algebra, "w")
        payload["components"]["w1"][0] = value
        jobs.append(CliJob(command, "json", payload, None,
                           edge=f"non_finite {value!r}"))
    return jobs


def cli_single_jobs(seed: int) -> list:
    """One pass of the ``cli_single`` stream, in a seeded order."""
    rng = np.random.default_rng([seed, 1])
    jobs = _regular_jobs(rng) + _edge_jobs(rng)
    order = rng.permutation(len(jobs))
    return [jobs[k] for k in order]


# library_batch: algebras by constructor, with their dimension.
LIBRARY_ALGEBRAS = {"su2": 3, "so3": 3, "so5": 10, "so7": 21}
SCALAR_FORMS = 8


@dataclass
class LibraryCall:
    """One public-API call of the ``library_batch`` stream."""

    function: str
    algebra: str | None
    kind: str
    coefficients: np.ndarray   # (21, d) for algebra-valued forms, (21,) scalar


def library_calls(seed: int) -> list:
    """One pass of the ``library_batch`` stream, in a seeded order.

    Per algebra: ``instanton_classify`` and ``stability_report`` on one
    form of each type, ``vanishing_report`` on the (1,1) types.  Scalar
    ``project`` and ``bidegree_split`` calls run on forms of every type.
    """
    rng = np.random.default_rng([seed, 2])
    calls = []
    for algebra, d in LIBRARY_ALGEBRAS.items():
        for kind in FORM_TYPES:
            form = random_form(rng, kind, d, vertical=True)
            coefficients = form.real()
            calls.append(LibraryCall("instanton_classify", algebra, kind,
                                     coefficients))
            calls.append(LibraryCall("stability_report", algebra, kind,
                                     coefficients))
            if kind in (SD, LAMBDA):
                calls.append(LibraryCall("vanishing_report", algebra, kind,
                                         coefficients))
    for k in range(SCALAR_FORMS):
        kind = FORM_TYPES[k % len(FORM_TYPES)]
        vector = random_form(rng, kind, 1, vertical=True).real()[:, 0]
        calls.append(LibraryCall("project", None, kind, vector))
        calls.append(LibraryCall("bidegree_split", None, kind, vector))
    order = rng.permutation(len(calls))
    return [calls[k] for k in order]
