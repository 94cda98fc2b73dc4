"""Eigenspace and bidegree decompositions of forms on the model fiber.

Two-forms split into four blocks under the symmetric mixing operator

    T(a) = star(eta ^ deta ^ a),

namely the 8-dimensional +1 eigenspace (the self-dual block), the
6-dimensional -1 eigenspace, the line spanned by ``deta`` with eigenvalue
-2, and the 6-dimensional kernel of vertical forms.  :func:`project`
realizes the split through spectral projectors built once per model.

Independently of the eigenvalue picture, any form decomposes by complex
type with respect to the calibrated coframe ``dz^j = e^{2j-1} - i e^{2j}``
plus an ``eta``-wedge remainder; :func:`bidegree_split` returns that
splitting.  The conversion between real and complex-index coefficients,
used throughout the package, is a pair of matrices per degree built once
at import: the complex->real matrix, whose column for a symbol monomial
holds its real expansion (a wedge of ``dz^j``, ``conj dz^j`` and
``eta``), and its inverse, which the orthogonality of the complex coframe
makes a scaled conjugate transpose.  Each is applied as one matrix
product; :func:`bidegree_split` reads the complex->real columns of each
complex type from per-degree tables built on first use.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .flat_model import (
    CalibrationError,
    ContactModel,
    KForm,
    REEB_INDEX,
    _fixed_dz,
    _locate,
    basis_keys,
    hodge_star,
    left_wedge_matrix,
    mixing_matrix,
    nearest_mixing_eigenvalues,
    wedge,
)

__all__ = [
    "TwoFormSplit",
    "BidegreeSplit",
    "t_eta_apply",
    "t_eta_matrix",
    "eigenspace_projectors",
    "project",
    "project_vectors",
    "bidegree_split",
    "complex_components",
    "EIGENVALUE_BY_BLOCK",
]

# eigenvalue attached to each named block of the 2-form split
EIGENVALUE_BY_BLOCK = {"8": 1.0, "6": -1.0, "1": -2.0, "vertical": 0.0}

_EIGEN_MATCH_TOLERANCE = 1e-8


def t_eta_apply(a: KForm, model: ContactModel) -> KForm:
    """Apply the mixing operator ``a -> star(eta ^ deta ^ a)`` to a 2-form."""
    if a.degree != 2:
        raise ValueError("the mixing operator acts on 2-forms")
    return hodge_star(wedge(model.eta, model.deta, a), model)


@functools.cache
def t_eta_matrix(model: ContactModel) -> np.ndarray:
    """21x21 symmetric matrix of the mixing operator in the lex basis.

    Built once per model and shared read-only; ``t_eta_matrix.__wrapped__``
    builds it anew.
    """
    mat = mixing_matrix(model)
    asym = float(np.max(np.abs(mat - mat.T)))
    if asym > 1e-12:
        raise CalibrationError(
            f"mixing operator matrix is not symmetric (residual {asym})"
        )
    mat.setflags(write=False)
    return mat


@functools.cache
def eigenspace_projectors(model: ContactModel) -> MappingProxyType:
    """Orthogonal projectors onto the four eigenvalue blocks.

    Eigenvalues of the mixing matrix are matched against {+1, -1, -2, 0}
    within 1e-8; anything unmatched aborts, since it would mean the model
    is not calibrated.  Built once per model and shared read-only;
    ``eigenspace_projectors.__wrapped__`` builds them anew.
    """
    evals, evecs = np.linalg.eigh(t_eta_matrix(model))
    nearest, distance = nearest_mixing_eigenvalues(evals)
    stray = np.flatnonzero(distance > _EIGEN_MATCH_TOLERANCE)
    if len(stray):
        raise CalibrationError(
            f"unexpected mixing eigenvalue {evals[stray[0]]!r}"
        )
    blocks, _ = nearest_mixing_eigenvalues(list(EIGENVALUE_BY_BLOCK.values()))
    projectors = {}
    counts = {}
    for label, index in zip(EIGENVALUE_BY_BLOCK, blocks):
        basis = evecs[:, nearest == index]
        projectors[label] = basis @ basis.T
        projectors[label].setflags(write=False)
        counts[label] = basis.shape[1]
    expected = {"8": 8, "6": 6, "1": 1, "vertical": 6}
    if counts != expected:
        raise CalibrationError(
            f"unexpected eigenvalue multiplicities {counts}"
        )
    return MappingProxyType(projectors)


@dataclass
class TwoFormSplit:
    """Result of projecting a 2-form onto the four eigenvalue blocks."""

    part_8: KForm
    part_6: KForm
    part_1: KForm
    part_vertical: KForm

    def as_dict(self) -> dict:
        return {
            "8": self.part_8,
            "6": self.part_6,
            "1": self.part_1,
            "vertical": self.part_vertical,
        }


def project(a: KForm, model: ContactModel) -> TwoFormSplit:
    """Spectral projection of a 2-form onto the four blocks."""
    if a.degree != 2:
        raise ValueError("project acts on 2-forms")
    parts = {
        label: KForm.from_vector(2, vector)
        for label, vector in project_vectors(a.vector, model).items()
    }
    return TwoFormSplit(
        part_8=parts["8"],
        part_6=parts["6"],
        part_1=parts["1"],
        part_vertical=parts["vertical"],
    )


def project_vectors(vectors: np.ndarray, model: ContactModel) -> dict:
    """Batch projection: columns of a (21, N) array split per block."""
    arr = np.asarray(vectors)
    if arr.shape[0] != 21:
        raise ValueError("expected an array with 21 rows")
    projectors = eigenspace_projectors(model)
    return {label: proj @ arr for label, proj in projectors.items()}


# ---------------------------------------------------------------------------
# Complex-index coefficients and the bidegree split
# ---------------------------------------------------------------------------
#
# Complex symbols are encoded as small integers: +j for dz^j, -j for its
# conjugate, 0 for eta.  Canonical symbol order puts holomorphic first,
# antiholomorphic second, eta last, so the canonical symbol tuples of each
# degree are the combinations of ``_SYMBOLS`` in order, and the symbol of
# rank r - 1 stands where the real index r stands in ``basis_keys``.

_SYMBOLS = (1, 2, 3, -1, -2, -3, 0)
_SYMBOL_RANK = {symbol: rank for rank, symbol in enumerate(_SYMBOLS)}
_SYMBOL_KEYS = {
    k: tuple(itertools.combinations(_SYMBOLS, k)) for k in range(8)
}
_SYMBOL_POSITION = {
    k: {symbols: pos for pos, symbols in enumerate(keys)}
    for k, keys in _SYMBOL_KEYS.items()
}


def _change_of_basis() -> tuple:
    """Per degree, the complex->real matrix ``C``, whose column for a
    symbol tuple is the real expansion of the wedge of ``dz^j = e^{2j-1} -
    i e^{2j}``, ``conj dz^j`` and ``eta`` it names, and its inverse.

    The complex coframe is orthogonal and each non-eta factor has squared
    norm 2, so ``C^H C = diag(2^(p+q))`` and the inverse is exactly
    ``diag(2^-(p+q)) C^H``.
    """
    forms = {0: KForm.basis(REEB_INDEX)}
    for j in (1, 2, 3):
        forms[j] = _fixed_dz(j)
        forms[-j] = forms[j].conjugate()
    to_real = {0: np.ones((1, 1), dtype=complex)}
    for k in range(1, 8):
        keys = _SYMBOL_KEYS[k]
        matrix = np.zeros((len(basis_keys(k)), len(keys)), dtype=complex)
        for symbol, form in forms.items():
            # columns whose tuple starts with ``symbol``: the form wedged
            # with the columns of the rest of the tuple; the entries are
            # small Gaussian integers, so every product is exact
            cols = [i for i, s in enumerate(keys) if s[0] == symbol]
            rest = [_SYMBOL_POSITION[k - 1][keys[i][1:]] for i in cols]
            matrix[:, cols] = (
                left_wedge_matrix(form, k - 1) @ to_real[k - 1][:, rest]
            )
        to_real[k] = matrix
    to_complex = {}
    for k, keys in _SYMBOL_KEYS.items():
        weights = 0.5 ** np.array([len(s) - (0 in s) for s in keys])
        to_complex[k] = weights[:, None] * to_real[k].conj().T
    return to_real, to_complex


_TO_REAL, _TO_COMPLEX = _change_of_basis()


def _change_basis(matrix: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``matrix @ coefficients`` over the leading axis of the coefficients.

    One BLAS matrix product against the coefficients flattened to
    ``(n, prod(rest))``, reshaped back; ``math.prod`` of the trailing
    axes keeps empty stacks, where a ``-1`` in the reshape would be
    ambiguous.  Like the structure-constant kernels
    ``lie_algebra.ad_matrix`` and ``bracket_vec``, its last digits follow
    the BLAS build: the reports it feeds may change there, well within
    the relative tolerance 1e-9 at which ``benchmarks/verify.py``
    compares reports.
    """
    rest = coefficients.shape[1:]
    flat = coefficients.reshape(len(coefficients), math.prod(rest))
    return (matrix @ flat).reshape((len(matrix),) + rest)


def _locate_symbols(degree: int, symbols: tuple) -> tuple:
    """(position, sign) of a symbol tuple given in any order, through the
    real key that stands in its place; sign 0 for a repeated symbol."""
    position = _SYMBOL_POSITION[degree].get(symbols)
    if position is not None:
        return position, 1
    return _locate(degree, tuple(_SYMBOL_RANK[s] + 1 for s in symbols))


def _real_from_symbols(components: dict, degree: int,
                       shape: tuple = ()) -> np.ndarray:
    """Real coefficients of a symbol table whose keys may come in any
    order (a repeated symbol contributes nothing) and whose values have
    the given shape: the complex->real columns of the keys, signed, times
    the values."""
    located = np.array(
        [_locate_symbols(degree, symbols) for symbols in components],
        dtype=int,
    ).reshape(-1, 2)
    values = np.array(list(components.values()), dtype=complex)
    columns = _TO_REAL[degree][:, located[:, 0]] * located[:, 1]
    return _change_basis(columns, values.reshape((len(located),) + shape))


def complex_components(a: KForm) -> dict:
    """Coefficients of a form in the complex coframe.

    Keys are canonical tuples of symbols (+j, -j, 0 as described above);
    the form equals the sum of ``coeff * symbol monomial`` over the dict.
    """
    coefficients = _change_basis(_TO_COMPLEX[a.degree], a.vector).tolist()
    return {
        symbols: value
        for symbols, value in zip(_SYMBOL_KEYS[a.degree], coefficients)
        if value
    }


@dataclass
class BidegreeSplit:
    """Bidegree split of a form with its ``eta``-wedge remainder.

    ``parts[(p, q)]`` collects the horizontal type-(p, q) piece;
    ``eta_parts[(p, q)]`` collects the type-(p, q) piece of the form
    ``b`` in the remainder ``eta ^ b``.
    """

    degree: int
    parts: dict
    eta_parts: dict


@functools.cache
def _bidegree_groups(degree: int) -> tuple:
    """Per degree, the tables of :func:`bidegree_split`: one entry per
    ``(eta?, (p, q))`` group of the canonical symbol tuples, in the order
    of each group's first tuple, and the group index of every tuple.

    An entry holds the eta flag, the type, the degree of its part, the
    rows of its tuples among the complex coefficients and the
    complex->real columns of its part.  A horizontal tuple keeps its own
    column; a tuple ending in ``eta`` stands for ``eta ^ b`` and takes
    the column of ``b``, signed by moving ``eta`` from last place to the
    front.  Built on first use per degree and shared read-only.
    """
    keys = _SYMBOL_KEYS[degree]
    rows_of: dict = {}
    for row, symbols in enumerate(keys):
        key = (0 in symbols, (sum(s > 0 for s in symbols),
                              sum(s < 0 for s in symbols)))
        rows_of.setdefault(key, []).append(row)
    group_of = np.empty(len(keys), dtype=int)
    groups = []
    for index, ((eta, pq), rows) in enumerate(rows_of.items()):
        group_of[rows] = index
        if eta:
            target = degree - 1
            positions = _SYMBOL_POSITION[target]
            matrix = (-1) ** target * _TO_REAL[target][
                :, [positions[keys[r][:-1]] for r in rows]
            ]
        else:
            target = degree
            matrix = _TO_REAL[degree][:, rows]
        rows = np.array(rows)
        for table in (rows, matrix):
            table.setflags(write=False)
        groups.append((eta, pq, target, rows, matrix))
    group_of.setflags(write=False)
    return tuple(groups), group_of


def bidegree_split(a: KForm, model: ContactModel) -> BidegreeSplit:
    """Split a form by complex type plus an ``eta``-wedge remainder.

    One change to complex coefficients, then one product per group with
    a nonzero coefficient, from the per-degree group tables; the parts
    come in the order of each group's first nonzero coefficient.
    """
    coefficients = _change_basis(_TO_COMPLEX[a.degree], a.vector)
    groups, group_of = _bidegree_groups(a.degree)
    parts: dict = {}
    eta_parts: dict = {}
    for index in dict.fromkeys(group_of[coefficients != 0].tolist()):
        eta, pq, target, rows, matrix = groups[index]
        vector = matrix @ coefficients[rows]
        (eta_parts if eta else parts)[pq] = KForm._wrap(target, vector)
    return BidegreeSplit(degree=a.degree, parts=parts, eta_parts=eta_parts)
