"""Eigenspace and bidegree decompositions of forms on the model fiber.

Two-forms split into four blocks under the symmetric mixing operator

    T(a) = star(eta ^ deta ^ a),

namely the 8-dimensional +1 eigenspace (the self-dual block), the
6-dimensional -1 eigenspace, the line spanned by ``deta`` with eigenvalue
-2, and the 6-dimensional kernel of vertical forms.  :func:`project`
realizes the split through cached spectral projectors.

Independently of the eigenvalue picture, any form decomposes by complex
type with respect to the calibrated coframe ``dz^j = e^{2j-1} - i e^{2j}``
plus an ``eta``-wedge remainder; :func:`bidegree_split` returns that
splitting, and the module exposes the underlying conversion between real
and complex-index coefficients used throughout the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flat_model import (
    CalibrationError,
    ContactModel,
    KForm,
    REEB_INDEX,
    hodge_star,
    mixing_matrix,
    sort_key_sign,
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
    "characterize",
    "complex_components",
    "from_complex_components",
    "real_key_to_complex",
    "complex_symbols_to_real",
    "EIGENVALUE_BY_BLOCK",
    "PRESENCE_TOLERANCE",
]

# eigenvalue attached to each named block of the 2-form split
EIGENVALUE_BY_BLOCK = {"8": 1.0, "6": -1.0, "1": -2.0, "vertical": 0.0}

# relative threshold deciding whether a block is "present" in characterize
PRESENCE_TOLERANCE = 1e-10

_EIGEN_MATCH_TOLERANCE = 1e-8


def t_eta_apply(a: KForm, model: ContactModel) -> KForm:
    """Apply the mixing operator ``a -> star(eta ^ deta ^ a)`` to a 2-form."""
    if a.degree != 2:
        raise ValueError("the mixing operator acts on 2-forms")
    return hodge_star(wedge(model.eta, model.deta, a), model)


_MATRIX_CACHE: dict = {}
_EIGEN_CACHE: dict = {}


def t_eta_matrix(model: ContactModel) -> np.ndarray:
    """21x21 symmetric matrix of the mixing operator in the lex basis."""
    sig = model.signature()
    cached = _MATRIX_CACHE.get(sig)
    if cached is None:
        mat = mixing_matrix(model)
        asym = float(np.max(np.abs(mat - mat.T)))
        if asym > 1e-12:
            raise CalibrationError(
                f"mixing operator matrix is not symmetric (residual {asym})"
            )
        _MATRIX_CACHE[sig] = mat
        cached = mat
    return cached.copy()


def eigenspace_projectors(model: ContactModel) -> dict:
    """Orthogonal projectors onto the four eigenvalue blocks.

    Eigenvalues of the mixing matrix are matched against {+1, -1, -2, 0}
    within 1e-8; anything unmatched aborts, since it would mean the model
    is not calibrated.
    """
    sig = model.signature()
    cached = _EIGEN_CACHE.get(sig)
    if cached is None:
        mat = t_eta_matrix(model)
        evals, evecs = np.linalg.eigh(mat)
        columns = {label: [] for label in EIGENVALUE_BY_BLOCK}
        for pos, ev in enumerate(evals):
            for label, target in EIGENVALUE_BY_BLOCK.items():
                if abs(ev - target) <= _EIGEN_MATCH_TOLERANCE:
                    columns[label].append(evecs[:, pos])
                    break
            else:
                raise CalibrationError(
                    f"unexpected mixing eigenvalue {ev!r}"
                )
        projectors = {}
        for label, cols in columns.items():
            basis = np.column_stack(cols)
            projectors[label] = basis @ basis.T
        expected = {"8": 8, "6": 6, "1": 1, "vertical": 6}
        counts = {label: len(cols) for label, cols in columns.items()}
        if counts != expected:
            raise CalibrationError(
                f"unexpected eigenvalue multiplicities {counts}"
            )
        _EIGEN_CACHE[sig] = projectors
        cached = projectors
    return {label: proj.copy() for label, proj in cached.items()}


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

    def reassemble(self) -> KForm:
        return self.part_8 + self.part_6 + self.part_1 + self.part_vertical

    def norms(self) -> dict:
        return {label: part.norm() for label, part in self.as_dict().items()}


def project(a: KForm, model: ContactModel) -> TwoFormSplit:
    """Spectral projection of a 2-form onto the four blocks."""
    if a.degree != 2:
        raise ValueError("project acts on 2-forms")
    projectors = eigenspace_projectors(model)
    vec = a.to_vector()
    parts = {
        label: KForm.from_vector(2, proj @ vec)
        for label, proj in projectors.items()
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
# antiholomorphic second, eta last.

_SYMBOL_RANK = {1: 0, 2: 1, 3: 2, -1: 3, -2: 4, -3: 5, 0: 6}

# expansion of each real coframe index into complex symbols
_REAL_TO_COMPLEX = {}
for _j in (1, 2, 3):
    _REAL_TO_COMPLEX[2 * _j - 1] = ((_j, 0.5), (-_j, 0.5))
    _REAL_TO_COMPLEX[2 * _j] = ((_j, 0.5j), (-_j, -0.5j))
_REAL_TO_COMPLEX[REEB_INDEX] = ((0, 1.0),)

# expansion of each complex symbol into real coframe indices
_COMPLEX_TO_REAL = {}
for _j in (1, 2, 3):
    _COMPLEX_TO_REAL[_j] = ((2 * _j - 1, 1.0), (2 * _j, -1j))
    _COMPLEX_TO_REAL[-_j] = ((2 * _j - 1, 1.0), (2 * _j, 1j))
_COMPLEX_TO_REAL[0] = ((REEB_INDEX, 1.0),)


def _sort_symbols(symbols):
    """Sort complex symbols canonically; return (tuple, sign or 0)."""
    idx = list(symbols)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and _SYMBOL_RANK[idx[j - 1]] > _SYMBOL_RANK[idx[j]]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


_KEY_EXPANSION_CACHE: dict = {}
_SYMBOL_EXPANSION_CACHE: dict = {}


def real_key_to_complex(key: tuple) -> tuple:
    """Expand a real monomial key into canonical complex symbol terms.

    Returns ((symbols, coeff), ...) such that the real monomial equals
    the sum of ``coeff`` times each complex symbol monomial.
    """
    cached = _KEY_EXPANSION_CACHE.get(key)
    if cached is None:
        partial = {(): 1.0 + 0j}
        for idx in key:
            grown: dict = {}
            for symbols, coeff in partial.items():
                for symbol, factor in _REAL_TO_COMPLEX[idx]:
                    if symbol in symbols:
                        continue
                    new_symbols, sign = _sort_symbols(symbols + (symbol,))
                    if sign == 0:
                        continue
                    grown[new_symbols] = (
                        grown.get(new_symbols, 0j) + sign * coeff * factor
                    )
            partial = grown
        cached = tuple(
            (symbols, coeff) for symbols, coeff in partial.items() if coeff
        )
        _KEY_EXPANSION_CACHE[key] = cached
    return cached


def complex_symbols_to_real(symbols: tuple) -> tuple:
    """Expand a complex symbol monomial into real monomial terms.

    Returns ((key, coeff), ...) with ascending real keys; inverse
    companion of :func:`real_key_to_complex`.
    """
    cached = _SYMBOL_EXPANSION_CACHE.get(symbols)
    if cached is None:
        partial = {(): 1.0 + 0j}
        for symbol in symbols:
            grown: dict = {}
            for key, value in partial.items():
                for idx, factor in _COMPLEX_TO_REAL[symbol]:
                    if idx in key:
                        continue
                    skey, sign = sort_key_sign(key + (idx,))
                    if sign == 0:
                        continue
                    grown[skey] = grown.get(skey, 0j) + sign * value * factor
            partial = grown
        cached = tuple((key, value) for key, value in partial.items() if value)
        _SYMBOL_EXPANSION_CACHE[symbols] = cached
    return cached


def complex_components(a: KForm, model: ContactModel = None) -> dict:
    """Coefficients of a form in the complex coframe.

    Keys are canonical tuples of symbols (+j, -j, 0 as described above);
    the form equals the sum of ``coeff * symbol monomial`` over the dict.
    """
    out: dict = {}
    for key, value in a.terms():
        for symbols, coeff in real_key_to_complex(key):
            new = out.get(symbols, 0j) + coeff * value
            if new == 0:
                out.pop(symbols, None)
            else:
                out[symbols] = new
    return out


def from_complex_components(
    components: dict, degree: int, model: ContactModel = None
) -> KForm:
    """Inverse of :func:`complex_components`."""
    coeffs: dict = {}
    for symbols, coeff in components.items():
        for key, factor in complex_symbols_to_real(symbols):
            coeffs[key] = coeffs.get(key, 0j) + complex(coeff) * factor
    return KForm(degree, coeffs)


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

    def horizontal(self) -> KForm:
        total = KForm.zero(self.degree)
        for part in self.parts.values():
            total = total + part
        return total

    def eta_remainder(self) -> KForm:
        total = KForm.zero(self.degree - 1) if self.degree else KForm.zero(0)
        for part in self.eta_parts.values():
            total = total + part
        return total

    def reassemble(self, model: ContactModel) -> KForm:
        total = self.horizontal()
        if self.eta_parts:
            total = total + wedge(model.eta, self.eta_remainder())
        return total

    def part(self, p: int, q: int) -> KForm:
        return self.parts.get((p, q), KForm.zero(self.degree)).copy()


def bidegree_split(a: KForm, model: ContactModel) -> BidegreeSplit:
    """Split a form by complex type plus an ``eta``-wedge remainder."""
    components = complex_components(a, model)
    horizontal_groups: dict = {}
    eta_groups: dict = {}
    for symbols, coeff in components.items():
        p = sum(1 for s in symbols if s > 0)
        q = sum(1 for s in symbols if s < 0)
        if 0 in symbols:
            # eta is canonically last: strip it and flip the order sign
            stripped = tuple(s for s in symbols if s != 0)
            sign = (-1) ** len(stripped)
            eta_groups.setdefault((p, q), {})[stripped] = sign * coeff
        else:
            horizontal_groups.setdefault((p, q), {})[symbols] = coeff
    parts = {
        pq: from_complex_components(group, a.degree, model)
        for pq, group in horizontal_groups.items()
    }
    eta_parts = {
        pq: from_complex_components(group, a.degree - 1, model)
        for pq, group in eta_groups.items()
    }
    parts = {pq: form for pq, form in parts.items() if not form.is_zero(0.0)}
    eta_parts = {
        pq: form for pq, form in eta_parts.items() if not form.is_zero(0.0)
    }
    return BidegreeSplit(degree=a.degree, parts=parts, eta_parts=eta_parts)


def characterize(a: KForm, model: ContactModel) -> dict:
    """Name the block structure of a 2-form.

    Returns a dict with the block norms, the presence threshold
    (``PRESENCE_TOLERANCE`` times the norm of the input) and a label:
    ``IN_8`` / ``IN_6`` / ``IN_1`` when exactly one transverse block is
    present, ``MIXED`` otherwise.  Vertical content, and the zero form,
    are reported as ``MIXED`` with an explanatory note.
    """
    split = project(a, model)
    norms = split.norms()
    scale = a.norm()
    threshold = PRESENCE_TOLERANCE * scale
    present = [label for label, norm in norms.items() if norm > threshold]

    note = ""
    if scale == 0.0:
        label = "MIXED"
        note = "zero form: no block is present"
    elif present == ["8"]:
        label = "IN_8"
    elif present == ["6"]:
        label = "IN_6"
    elif present == ["1"]:
        label = "IN_1"
    else:
        label = "MIXED"
        if "vertical" in present:
            note = "vertical content present"
    return {
        "label": label,
        "norms": norms,
        "threshold": threshold,
        "present": present,
        "note": note,
    }
