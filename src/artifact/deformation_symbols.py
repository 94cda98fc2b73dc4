"""Symbol complexes of the deformation operators at a covector.

Deformations of a self-dual connection are governed by two finite
complexes of first-order operators.  The full complex runs through the
quotient spaces

    L0 = functions, L1 = 1-forms, L2 = 2-forms mod the +1 block,
    L3 = contact ^ (remaining horizontal 2-forms),

with scalar dimensions (1, 7, 13, 7); tensoring with a coefficient
algebra of dimension d multiplies every dimension by d and the
alternating sum stays zero.  The basic complex keeps only horizontal
data: functions, horizontal 1-forms, and the 7-dimensional block of
horizontal 2-forms of eigenvalues -1 and -2, with scalar dimensions
(1, 6, 7).

Each complex is described once, by its *stage bases*: one matrix
``B_k`` per stage whose orthonormal columns span that stage inside the
k-forms (``B_0 = (1)`` for the functions, ``I_7`` for all 1-forms, its
first six columns for the horizontal ones).  A first-order operator
differentiates once, so its leading part at a covector ``xi`` is wedging
with ``xi`` followed by the projection onto the next stage:

    sigma_k(xi) = B_{k+1}^T W_k(xi) B_k,

where ``W_k(xi)`` is :func:`wedge_matrix` of ``xi`` on k-forms.  The
maps, the tensors of the batched sweep and the stage dimensions all come
from these bases.  The connection term is order zero and drops out.
Compositions of consecutive symbols vanish identically because wedging
twice with the same covector gives zero and the discarded +1 block
generates an ideal: its wedge with any 1-form lands in the space the
next projection kills.

The full complex has exact symbol sequences at every covector with a
nonzero vertical component (rank pattern ``(d, 6d, 7d)``), which is
the ellipticity evidence gathered over random covectors.  On the thin
set of purely horizontal covectors the last map loses rank because the
horizontal wedges of retained 2-forms fall into the discarded ideal;
that probe is reported separately.  The basic complex sees only
horizontal derivatives, so its symbols collapse at vertical covectors;
for horizontal covectors the ranks are ``(d, 5d)`` and the final stage
has a cokernel of dimension ``2d``, which is reported without further
interpretation.

Sweeps over many covectors run along the sample axis.  The maps are
linear in the covector, so :func:`build_quotient_spaces` stores each one
as a tensor over the seven basis covectors: the same product at the axis
covectors.  A block of covectors is contracted with it in one einsum, and
one stacked singular value decomposition per map gives the ranks of the
whole block.  Blocks hold at most ``SAMPLE_BLOCK`` covectors, which
bounds memory for any sample count.  The single-covector functions
:func:`symbol_maps`, :func:`basic_symbol_maps` and
:func:`exactness_report` build each map from the wedge with the covector
itself; they are the oracle routes the batched sweep is tested against,
and they produce the full reports of any covector the sweep finds
failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flat_model import (
    ContactModel,
    KForm,
    REEB_INDEX,
    basis_keys,
    left_wedge_matrix,
    standard_two_form_families,
    wedge,
)

__all__ = [
    "FULL_C",
    "BASIC_B",
    "RANK_RELATIVE_THRESHOLD",
    "SAMPLE_BLOCK",
    "QuotientSpaces",
    "build_quotient_spaces",
    "wedge_matrix",
    "numerical_rank",
    "covector_form",
    "symbol_maps",
    "basic_symbol_maps",
    "exactness_report",
    "batch_exactness",
]

FULL_C = "FULL_C"
BASIC_B = "BASIC_B"

# singular values below this fraction of the largest one count as zero
RANK_RELATIVE_THRESHOLD = 1e-9

# covectors per block of a sweep: the stacked maps of a block take a few
# megabytes, whatever the sample count
SAMPLE_BLOCK = 4096

_HORIZONTAL_COUNT = 6


def _horizontal_probe(probe: dict) -> dict:
    """The full complex's probe: horizontal covectors, rank lost last."""
    return {
        "horizontal_probe": {
            "count": probe["count"],
            "rank_patterns": sorted(
                "x".join(str(r) for r in key) for key in probe["patterns"]
            ),
            "exact_everywhere": bool(probe["count"] and probe["exact"]),
        }
    }


def _vertical_probe(probe: dict) -> dict:
    """The basic complex's probe: vertical covectors, both maps zero."""
    return {
        "vertical_degenerate": bool(
            probe["count"] and all(0 in key for key in probe["patterns"])
        ),
        "vertical_count": probe["count"],
    }


def _columns_from_forms(forms) -> np.ndarray:
    """The real coefficient vectors of ``forms``, as matrix columns."""
    columns = np.stack([form.vector for form in forms], axis=1)
    if np.max(np.abs(columns.imag)) > 1e-14:
        raise ValueError("quotient basis forms must be real")
    return columns.real.copy()


def wedge_matrix(xi_form: KForm, from_degree: int) -> np.ndarray:
    """Coordinate matrix of ``alpha -> xi ^ alpha`` on ``from_degree`` forms."""
    if xi_form.degree != 1:
        raise ValueError("the covector must be a 1-form")
    return left_wedge_matrix(xi_form, from_degree).real


def covector_form(xi) -> KForm:
    """Real 7-vector of coefficients as a 1-form."""
    vec = np.asarray(xi, dtype=float)
    if vec.shape != (7,):
        raise ValueError("a covector needs exactly 7 real coefficients")
    return KForm.from_vector(1, vec)


@dataclass(frozen=True)
class QuotientSpaces:
    """Stage bases of the two complexes, and the discarded ideal.

    A complex is the tuple ``stage_bases[which]`` of its stage bases:
    the columns of ``B_k`` span stage ``k`` inside the k-forms, and the
    symbol at a covector ``xi`` is ``B_{k+1}^T W_k(xi) B_k``.  The full
    complex has ``(1, I_7, l2_basis, l3_basis)``, the basic one ``(1,
    I_7[:, :6], basic2_basis)``.  ``symbol_tensors[which]`` holds the same
    maps as tensors ``T`` of shape ``(7, target, source)``: the map at
    ``xi`` is ``sum_a xi[a] T[a]``.  ``probe_policies[which]`` is the
    triple ``(checked, zero_axes, entries)`` of a sweep: a covector
    passes when its first ``checked`` stages are exact (all for None),
    and those whose coordinates ``zero_axes`` vanish are reported apart
    by ``entries`` and never counted as failures.

    All stage bases carry orthonormal columns in the 21- and
    35-dimensional coordinate spaces of 2- and 3-forms; the ideal bases
    are stored unnormalized for span checks.  ``l2_basis`` spans the
    orthogonal complement of the +1 block in the 2-forms; ``l3_basis``
    spans the contact wedge of the -1 and -2 blocks inside the 3-forms.
    """

    model: ContactModel
    l2_basis: np.ndarray = field(repr=False)
    l3_basis: np.ndarray = field(repr=False)
    basic2_basis: np.ndarray = field(repr=False)
    ideal2_basis: np.ndarray = field(repr=False)
    ideal3_basis: np.ndarray = field(repr=False)
    stage_bases: dict = field(repr=False)
    symbol_tensors: dict = field(repr=False)
    probe_policies: dict = field(repr=False)

    def bases(self, which: str) -> tuple:
        """The stage bases of the complex tagged ``which``."""
        if which not in self.stage_bases:
            raise ValueError(f"unknown complex tag {which!r}")
        return self.stage_bases[which]

    def dims(self, which: str, d: int = 1) -> tuple:
        """Stage dimensions for a coefficient algebra of dimension ``d``."""
        return tuple(d * basis.shape[1] for basis in self.bases(which))


def build_quotient_spaces(model: ContactModel) -> QuotientSpaces:
    """Orthonormal stage bases for the calibrated model.

    The 2-form quotient keeps the -1 family (normalized), the line of
    the contact 2-form, and the six vertical directions; the discarded
    ideal is the +1 family.  In degree 3 the ideal fills the whole
    horizontal part plus the contact wedge of the +1 family, so the
    quotient is spanned by the contact wedge of the retained blocks.
    """
    families = standard_two_form_families()
    w_forms = families["w"]
    v_forms = families["v"]
    omega = model.omega
    eta = model.eta

    v_unit = [form * (1.0 / form.norm()) for form in v_forms]
    omega_unit = omega * (1.0 / omega.norm())

    basic2 = v_unit + [omega_unit]
    vertical = [wedge(eta, KForm.basis(a)) for a in range(1, REEB_INDEX)]
    l2 = basic2 + vertical

    l3_forms = [wedge(eta, form) for form in basic2]

    ideal2 = list(w_forms)
    horizontal_triples = [
        KForm.basis(*key)
        for key in basis_keys(3)
        if REEB_INDEX not in key
    ]
    ideal3 = horizontal_triples + [wedge(eta, form) for form in w_forms]

    l2_basis = _columns_from_forms(l2)
    l3_basis = _columns_from_forms(l3_forms)
    basic2_basis = _columns_from_forms(basic2)
    functions = np.ones((1, 1))
    stage_bases = {
        FULL_C: (functions, np.eye(7), l2_basis, l3_basis),
        BASIC_B: (functions, np.eye(7)[:, :_HORIZONTAL_COUNT], basic2_basis),
    }
    # wedge matrices of the seven basis covectors, stacked on axis 0, for
    # each degree a symbol map starts from
    axes = [covector_form(row) for row in np.eye(7)]
    axis_wedges = [
        np.stack([wedge_matrix(xi, k) for xi in axes])
        for k in range(max(map(len, stage_bases.values())) - 1)
    ]
    spaces = QuotientSpaces(
        model=model,
        l2_basis=l2_basis,
        l3_basis=l3_basis,
        basic2_basis=basic2_basis,
        ideal2_basis=_columns_from_forms(ideal2),
        ideal3_basis=_columns_from_forms(ideal3),
        stage_bases=stage_bases,
        symbol_tensors={
            which: tuple(
                bases[k + 1].T @ axis_wedges[k] @ bases[k]
                for k in range(len(bases) - 1)
            )
            for which, bases in stage_bases.items()
        },
        probe_policies={
            FULL_C: (None, [_HORIZONTAL_COUNT], _horizontal_probe),
            BASIC_B: (2, list(range(_HORIZONTAL_COUNT)), _vertical_probe),
        },
    )
    for which, bases in stage_bases.items():
        for k, basis in enumerate(bases):
            gram = basis.T @ basis
            residual = np.max(np.abs(gram - np.eye(basis.shape[1])))
            if residual > 1e-12:
                raise ValueError(
                    f"stage {k} basis of {which} is not orthonormal; "
                    f"residual {residual:.3e}"
                )
    cross = np.max(np.abs(spaces.l2_basis.T @ spaces.ideal2_basis))
    if cross > 1e-12:
        raise ValueError("quotient basis does not annihilate the ideal")
    cross3 = np.max(np.abs(spaces.l3_basis.T @ spaces.ideal3_basis))
    if cross3 > 1e-12:
        raise ValueError("3-form quotient does not annihilate the ideal")
    return spaces


def numerical_rank(
    matrix: np.ndarray, threshold: float = RANK_RELATIVE_THRESHOLD
) -> int:
    """Rank by singular values relative to the largest one."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return 0
    return int(_stacked_ranks(matrix, threshold))


def _stacked_ranks(stack: np.ndarray, threshold: float) -> np.ndarray:
    """Ranks of a stack of matrices (last two axes) by one stacked SVD.

    A singular value counts when it exceeds ``threshold`` times the
    largest one of its matrix; a matrix whose largest value is zero has
    rank zero.
    """
    values = np.linalg.svd(stack, compute_uv=False)
    top = values.max(axis=-1, initial=0.0)
    count = np.sum(values > threshold * top[..., None], axis=-1)
    return np.where(top == 0.0, 0, count)


def _expand(matrix: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return matrix
    return np.kron(matrix, np.eye(d))


def _stage_maps(xi, q: QuotientSpaces, which: str, d: int) -> tuple:
    """``B_{k+1}^T W_k(xi) B_k`` for each stage of a complex, each
    tensored with ``I_d``; ``W_k`` wedges with the covector itself."""
    bases = q.bases(which)
    vec = np.asarray(xi, dtype=float)
    if vec.shape != (7,):
        raise ValueError("a covector needs exactly 7 real coefficients")
    if not np.any(vec != 0.0):
        raise ValueError("the covector must be nonzero")
    if d < 1:
        raise ValueError("coefficient dimension must be at least 1")
    xi_form = covector_form(vec)
    return tuple(
        _expand(bases[k + 1].T @ wedge_matrix(xi_form, k) @ bases[k], d)
        for k in range(len(bases) - 1)
    )


def symbol_maps(xi, q: QuotientSpaces, d: int = 1) -> tuple:
    """Leading-order maps of the full complex at a nonzero covector.

    Returns three matrices of shapes ``(7d, d)``, ``(13d, 7d)`` and
    ``(7d, 13d)``.  Consecutive compositions vanish identically.
    """
    return _stage_maps(xi, q, FULL_C, d)


def basic_symbol_maps(xi, q: QuotientSpaces, d: int = 1) -> tuple:
    """Leading-order maps of the basic complex at a nonzero covector.

    Returns matrices of shapes ``(6d, d)`` and ``(7d, 6d)``.  Only the
    horizontal part of the covector acts, so both maps vanish when the
    covector is vertical.
    """
    return _stage_maps(xi, q, BASIC_B, d)


def _stage_rows(dims, ranks) -> list:
    """Per-stage rank, kernel, cokernel and exactness bookkeeping.

    Stage ``k`` sits at the ``k``-th space of the sequence; exactness
    there means the kernel of the outgoing map equals the image of the
    incoming one (injectivity at the start, surjectivity at the end).
    """
    rows = []
    maps = len(ranks)
    for k in range(len(dims)):
        incoming = ranks[k - 1] if k >= 1 else 0
        outgoing_rank = ranks[k] if k < maps else 0
        kernel = dims[k] - outgoing_rank if k < maps else dims[k]
        exact = kernel == incoming
        rows.append(
            {
                "stage": k,
                "dim": int(dims[k]),
                "outgoing_rank": int(outgoing_rank) if k < maps else None,
                "kernel_dim": int(kernel),
                "image_in": int(incoming),
                "cokernel_dim": int(dims[k] - incoming),
                "exact": bool(exact),
            }
        )
    return rows


def exactness_report(
    xi,
    q: QuotientSpaces,
    which: str = FULL_C,
    d: int = 1,
    threshold: float = RANK_RELATIVE_THRESHOLD,
) -> dict:
    """Rank and exactness data of a symbol sequence at one covector."""
    vec = np.asarray(xi, dtype=float)
    maps = _stage_maps(vec, q, which, d)
    dims = q.dims(which, d)
    ranks = [numerical_rank(m, threshold) for m in maps]
    compositions = [
        float(np.max(np.abs(maps[k + 1] @ maps[k])))
        for k in range(len(maps) - 1)
    ]
    stages = _stage_rows(dims, ranks)
    exact_all = all(row["exact"] for row in stages)
    degenerate = any(rank == 0 for rank in ranks)
    report = {
        "which": which,
        "covector": [float(x) for x in vec],
        "coefficient_dim": int(d),
        "dims": [int(n) for n in dims],
        "alternating_sum": int(
            sum((-1) ** k * n for k, n in enumerate(dims))
        ),
        "ranks": [int(r) for r in ranks],
        "composition_residuals": compositions,
        "stages": stages,
        "exact_everywhere": bool(exact_all),
        "degenerate": bool(degenerate),
        "rank_threshold": float(threshold),
    }
    return report


def _covector_blocks(seed: int, samples: int):
    """The swept covectors, in blocks of at most ``SAMPLE_BLOCK``.

    The seven axis covectors come first, then ``samples`` seeded normal
    draws.  A draw of norm at most 1e-6 is rejected and the next one is
    taken, exactly as when drawing one covector at a time: a block of
    draws reads the same stream as the draws made one by one.
    """
    yield np.eye(7)
    rng = np.random.default_rng(seed)
    remaining = samples
    while remaining > 0:
        draws = rng.normal(size=(min(remaining, SAMPLE_BLOCK), 7))
        kept = draws[np.linalg.norm(draws, axis=1) > 1e-6]
        remaining -= len(kept)
        yield kept


def batch_exactness(
    q: QuotientSpaces,
    which: str = FULL_C,
    seed: int = 0,
    samples: int = 100,
    dims: tuple = (1, 3),
    threshold: float = RANK_RELATIVE_THRESHOLD,
) -> dict:
    """Exactness sweep over random covectors plus the axis directions.

    For the full complex, covectors carrying a vertical component must
    give an exact sequence; any failure there is collected.  Purely
    horizontal covectors are a known thin degenerate set: the last map
    only sees the vertical part of its domain once the horizontal
    wedges fall into the discarded ideal, so its rank drops and the
    two final stages lose exactness.  They are swept separately and
    reported under ``horizontal_probe`` instead of being counted as
    failures.  For the basic complex the roles flip: horizontal
    covectors must be exact at the first two stages while vertical
    covectors collapse both maps to zero.

    The sweep runs in blocks of ``SAMPLE_BLOCK`` covectors: each map is
    the contraction of the block with its symbol tensor, and one stacked
    SVD per map gives the ranks at ``d = 1``.  A coefficient algebra of
    dimension ``d`` tensors every map with the identity, which multiplies
    each rank by ``d``.  Every stage then has kernel ``d (s_k - r_k)`` and
    image ``d r_{k-1}``, so exactness does not depend on ``d``: the stage
    verdict is worked out once per rank pattern.  Every covector and ``d``
    counts as one report, as in a loop of :func:`exactness_report` (the
    oracle route); the first three failures are reported in full by that
    function.
    """
    stage_dims = q.dims(which)
    tensors = q.symbol_tensors[which]
    checked, zero_axes, entries = q.probe_policies[which]
    if any(d < 1 for d in dims):
        raise ValueError("coefficient dimension must be at least 1")
    per_covector = len(dims)
    verdicts = {}

    def verdict(pattern: tuple) -> tuple:
        """Exactness everywhere and at the checked stages."""
        if pattern not in verdicts:
            rows = _stage_rows(stage_dims, pattern)
            stages = [row["exact"] for row in rows]
            verdicts[pattern] = (all(stages), all(stages[:checked]))
        return verdicts[pattern]

    total = 0
    failures = 0
    failure_reports = []
    rank_patterns = {}
    # the probe set: covector count, rank patterns met, all exact
    probe = {"count": 0, "patterns": set(), "exact": True}
    for block in _covector_blocks(seed, samples):
        total += len(block)
        if not per_covector or not len(block):
            continue
        ranks = np.stack(
            [
                _stacked_ranks(
                    np.einsum("na,aij->nij", block, tensor), threshold
                )
                for tensor in tensors
            ],
            axis=1,
        )
        patterns, inverse, counts = np.unique(
            ranks, axis=0, return_inverse=True, return_counts=True
        )
        patterns = [tuple(int(r) for r in row) for row in patterns]
        inverse = inverse.reshape(-1)
        for pattern, count in zip(patterns, counts):
            rank_patterns[pattern] = (
                rank_patterns.get(pattern, 0) + per_covector * int(count)
            )
        probed = ~np.any(block[:, zero_axes], axis=1)
        passed = np.array([verdict(p)[1] for p in patterns])[inverse]
        probe["count"] += per_covector * int(np.sum(probed))
        # the patterns met by a probed covector, in pattern order
        for index in np.flatnonzero(
            np.bincount(inverse[probed], minlength=len(patterns))
        ):
            pattern = patterns[index]
            probe["patterns"].add(pattern)
            probe["exact"] = probe["exact"] and verdict(pattern)[0]
        failed = np.flatnonzero(~passed & ~probed)
        failures += per_covector * len(failed)
        for row in failed[: 3 - len(failure_reports)]:
            for d in dims[: 3 - len(failure_reports)]:
                failure_reports.append(
                    exactness_report(block[row], q, which, int(d), threshold)
                )
    out = {
        "which": which,
        "seed": int(seed),
        "samples": int(total),
        "coefficient_dims": [int(d) for d in dims],
        "failures": failures,
        "failure_reports": failure_reports,
        "rank_patterns": {
            "x".join(str(r) for r in key): count
            for key, count in sorted(rank_patterns.items())
        },
        "all_exact": not failures,
    }
    out.update(entries(probe))
    return out
