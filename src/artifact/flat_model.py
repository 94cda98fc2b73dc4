"""Flat pointwise model of a 7-dimensional contact metric fiber.

Everything in this package happens on a single tangent space equipped with an
orthonormal coframe ``e1, ..., e7``.  The last coframe vector plays the role
of the contact form: ``eta = e7``, and its dual vector is the Reeb direction.
The remaining six directions form the horizontal subspace ``H``, organized in
three oriented planes ``(e1, e2), (e3, e4), (e5, e6)``.

The sign conventions (orientation of the volume form, scale and sign of
``d eta``, sign of the almost complex structure ``Phi`` on ``H``) are not
chosen by hand.  :func:`calibrate_model` runs a small exhaustive search over
the candidate conventions and keeps the unique tuple that satisfies the
anchor constraints listed in its docstring.  The winning model is the default
used across the package.

Forms are represented densely by :class:`KForm`: a complex coefficient vector
over the lexicographic monomial basis :func:`basis_keys` of their degree.
The wedge product, the Hodge and transverse stars and the Reeb contraction
run from index tables built once at import from those bases.  The metric is
the identity in this coframe, so the inner product of two forms is the
Hermitian dot product of their vectors and the Hodge star is a signed
permutation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

__all__ = [
    "REEB_INDEX",
    "HORIZONTAL_INDICES",
    "PLANES",
    "PAIRS",
    "CalibrationError",
    "KForm",
    "ContactModel",
    "wedge",
    "left_wedge_matrix",
    "hodge_star",
    "transverse_star",
    "contract_reeb",
    "form_inner",
    "basis_keys",
    "mixing_matrix",
    "nearest_mixing_eigenvalues",
    "calibrate_model",
    "calibration_constants",
    "standard_two_form_families",
]

REEB_INDEX = 7
HORIZONTAL_INDICES = (1, 2, 3, 4, 5, 6)
PLANES = ((1, 2), (3, 4), (5, 6))
# holomorphic index pairs mu < nu, in the order of the standard families
# and of the rows of a (2,0) section
PAIRS = ((1, 2), (1, 3), (2, 3))

_ALL_INDICES = tuple(range(1, 8))

# Lexicographic multi-index bases for each degree, shared by every module
# that needs a flat vector picture of Lambda^k.
_BASIS_KEYS = {
    k: tuple(itertools.combinations(_ALL_INDICES, k)) for k in range(8)
}
_KEY_POSITION = {
    k: {key: pos for pos, key in enumerate(keys)}
    for k, keys in _BASIS_KEYS.items()
}


def basis_keys(degree: int) -> tuple:
    """Increasing multi-indices spanning the degree-``degree`` forms."""
    if degree not in _BASIS_KEYS:
        raise ValueError(f"degree must be in 0..7, got {degree}")
    return _BASIS_KEYS[degree]


class CalibrationError(RuntimeError):
    """Raised when the convention search does not isolate a unique model."""


def _permutation_sign(indices) -> int:
    """Sign of the permutation sorting ``indices``, from its inversion
    count; 0 for a repeated index, which kills the wedge term."""
    if len(set(indices)) < len(indices):
        return 0
    inversions = sum(a > b for a, b in itertools.combinations(indices, 2))
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# Index tables
# ---------------------------------------------------------------------------
#
# A monomial is also a 7-bit mask (bit i-1 for index i).  The sign of sorting
# the concatenation of two increasing keys is the parity of the pairs
# (i in the first, j in the second) with i > j.

_REEB_BIT = 1 << (REEB_INDEX - 1)
_HORIZONTAL_BITS = _REEB_BIT - 1
_FULL_BITS = 2 * _REEB_BIT - 1

_MASKS = {
    k: np.array([sum(1 << (i - 1) for i in key) for key in keys],
                dtype=np.int64)
    for k, keys in _BASIS_KEYS.items()
}
_POSITION_OF_MASK = np.zeros(_FULL_BITS + 1, dtype=np.int64)
for _masks in _MASKS.values():
    _POSITION_OF_MASK[_masks] = np.arange(len(_masks))

# _LATER[i, j] = 1 when index i + 1 comes after index j + 1
_LATER = np.tril(np.ones((7, 7), dtype=np.int64), -1)


def _members(masks: np.ndarray) -> np.ndarray:
    """0/1 membership rows (one per mask) over the indices 1..7."""
    return (masks[:, None] >> np.arange(7)) & 1


def _wedge_table(p: int, q: int) -> tuple:
    """(target, left, right, sign) over every disjoint pair of monomials."""
    a, b = _members(_MASKS[p]), _members(_MASKS[q])
    left, right = np.nonzero(a @ b.T == 0)
    inversions = (a @ _LATER @ b.T)[left, right]
    target = _POSITION_OF_MASK[_MASKS[p][left] | _MASKS[q][right]]
    return (
        target.astype(np.int16),
        left.astype(np.int16),
        right.astype(np.int16),
        (1 - 2 * (inversions % 2)).astype(np.int8),
    )


_WEDGE = {(p, q): _wedge_table(p, q) for p in range(8) for q in range(8 - p)}


def _signed_map(source_masks: np.ndarray, target_masks: np.ndarray,
                sign, target_degree: int) -> tuple:
    """(source, target, sign, size) of a map between monomial bases."""
    return (
        _POSITION_OF_MASK[source_masks].astype(np.int16),
        _POSITION_OF_MASK[target_masks].astype(np.int16),
        np.asarray(sign, dtype=np.int8),
        len(_BASIS_KEYS[target_degree]),
    )


def _complement_map(degree: int, span: int) -> tuple:
    """Signed complement ``key -> span minus key`` on the keys in ``span``."""
    masks = _MASKS[degree][(_MASKS[degree] & ~span) == 0]
    complements = span ^ masks
    inversions = np.einsum(
        "ri,ij,rj->r", _members(masks), _LATER, _members(complements)
    )
    return _signed_map(masks, complements, 1 - 2 * (inversions % 2),
                       bin(span).count("1") - degree)


def _reeb_map(degree: int) -> tuple:
    """``key -> key minus 7`` on vertical keys; 7 is last, past degree-1."""
    masks = _MASKS[degree][(_MASKS[degree] & _REEB_BIT) != 0]
    sign = np.full(len(masks), (-1) ** (degree - 1))
    return _signed_map(masks, masks ^ _REEB_BIT, sign, degree - 1)


_HODGE = {k: _complement_map(k, _FULL_BITS) for k in range(8)}
_TRANSVERSE = {k: _complement_map(k, _HORIZONTAL_BITS) for k in range(7)}
_REEB = {k: _reeb_map(k) for k in range(1, 8)}
_VERTICAL = {k: (masks & _REEB_BIT) != 0 for k, masks in _MASKS.items()}


def _apply_signed_map(table: tuple, array: np.ndarray,
                      scale: int = 1) -> np.ndarray:
    """Image of coefficient rows (axis 0) under a signed map, as a new
    array; targets the map misses are zero."""
    source, target, sign, size = table
    out = np.zeros((size,) + array.shape[1:], dtype=complex)
    factor = (sign * scale).reshape((-1,) + (1,) * (array.ndim - 1))
    out[target] = array[source] * factor
    return out


def _locate(degree: int, key: tuple) -> tuple:
    """(position, sign) of the monomial ``key`` given in any order; sign 0
    for a repeated index."""
    if len(key) != degree:
        raise ValueError(
            f"key {key} has length {len(key)}, expected {degree}"
        )
    position = _KEY_POSITION[degree].get(key)
    if position is not None:
        return position, 1
    sign = _permutation_sign(key)
    if sign == 0:
        return 0, 0
    for idx in key:
        if idx not in _ALL_INDICES:
            raise ValueError(f"index {idx} outside 1..7 in key {key}")
    return _KEY_POSITION[degree][tuple(sorted(key))], sign


# ---------------------------------------------------------------------------
# Forms
# ---------------------------------------------------------------------------


class KForm:
    """Alternating form on the model fiber.

    ``vector`` holds the complex coefficients over ``basis_keys(degree)``; a
    degree-0 form holds its single value at the empty key.  The constructor
    takes ``{key: value}`` with keys in any order (a repeated index
    contributes nothing).  Arithmetic returns new forms and never shares an
    operand's array.
    """

    __slots__ = ("degree", "vector")

    def __init__(self, degree: int, coeffs=None):
        if not 0 <= degree <= 7:
            raise ValueError(f"degree must be in 0..7, got {degree}")
        vector = np.zeros(len(_BASIS_KEYS[degree]), dtype=complex)
        if coeffs:
            for key, value in coeffs.items():
                position, sign = _locate(degree, tuple(key))
                if sign:
                    vector[position] += sign * complex(value)
        self.degree = degree
        self.vector = vector

    @classmethod
    def _wrap(cls, degree: int, vector: np.ndarray) -> "KForm":
        """A form owning ``vector``, which the caller must not share."""
        out = cls.__new__(cls)
        out.degree = degree
        out.vector = vector
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def basis(cls, *indices) -> "KForm":
        """The coframe monomial ``e^{i1} ^ ... ^ e^{ik}``."""
        return cls(len(indices), {indices: 1.0})

    @classmethod
    def zero(cls, degree: int) -> "KForm":
        return cls(degree)

    @classmethod
    def constant(cls, value) -> "KForm":
        return cls(0, {(): value})

    @classmethod
    def from_vector(cls, degree: int, vector) -> "KForm":
        keys = basis_keys(degree)
        vec = np.array(vector, dtype=complex)
        if vec.shape != (len(keys),):
            raise ValueError(
                f"expected vector of length {len(keys)}, got {vec.shape}"
            )
        return cls._wrap(degree, vec)

    # -- linear structure -----------------------------------------------

    def copy(self) -> "KForm":
        return KForm._wrap(self.degree, self.vector.copy())

    def __add__(self, other: "KForm") -> "KForm":
        if not isinstance(other, KForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degree")
        return KForm._wrap(self.degree, self.vector + other.vector)

    def __sub__(self, other: "KForm") -> "KForm":
        if not isinstance(other, KForm):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "KForm":
        return KForm._wrap(self.degree, -self.vector)

    def __mul__(self, scalar) -> "KForm":
        return KForm._wrap(self.degree, self.vector * complex(scalar))

    __rmul__ = __mul__

    def conjugate(self) -> "KForm":
        return KForm._wrap(self.degree, self.vector.conj())

    # -- inspection -----------------------------------------------------

    def coefficient(self, *indices) -> complex:
        """Signed coefficient of the monomial with the given indices."""
        sign = _permutation_sign(indices)
        position = _KEY_POSITION[self.degree].get(tuple(sorted(indices)))
        if sign == 0 or position is None:
            return 0j
        return sign * complex(self.vector[position])

    def terms(self):
        """Sorted (key, coefficient) pairs of the nonzero coefficients."""
        pairs = zip(_BASIS_KEYS[self.degree], self.vector.tolist())
        return [(key, value) for key, value in pairs if value]

    def is_horizontal(self) -> bool:
        return not np.any(self.vector[_VERTICAL[self.degree]])

    def to_vector(self) -> np.ndarray:
        return self.vector.copy()

    def norm(self) -> float:
        return float(np.sqrt(np.vdot(self.vector, self.vector).real))

    def __repr__(self) -> str:
        terms = self.terms()
        if not terms:
            return f"KForm({self.degree}, 0)"
        bits = []
        for key, value in terms:
            label = "e" + "".join(str(i) for i in key) if key else "1"
            bits.append(f"{value:+.4g}*{label}")
        return f"KForm({self.degree}, {' '.join(bits)})"


def wedge(*forms: KForm) -> KForm:
    """Exterior product of any number of forms, folded from the left
    through :func:`left_wedge_matrix`."""
    if not forms:
        raise ValueError("wedge needs at least one form")
    acc = forms[0].copy()
    for nxt in forms[1:]:
        acc = KForm._wrap(
            acc.degree + nxt.degree,
            left_wedge_matrix(acc, nxt.degree) @ nxt.vector,
        )
    return acc


def left_wedge_matrix(a: KForm, degree: int) -> np.ndarray:
    """Complex matrix of ``b -> a ^ b`` from ``degree``-forms, lex bases."""
    if a.degree + degree > 7:
        raise ValueError("wedge degree exceeds the fiber dimension")
    target, left, right, sign = _WEDGE[a.degree, degree]
    out = np.zeros(
        (len(_BASIS_KEYS[a.degree + degree]), len(_BASIS_KEYS[degree])),
        dtype=complex,
    )
    # each (target, right) pair fixes the left monomial: no sums needed
    out[target, right] = a.vector[left] * sign
    return out


def form_inner(a: KForm, b: KForm) -> complex:
    """Hermitian inner product, coefficientwise in the orthonormal coframe.

    Linear in the first argument, conjugated in the second; the metric is
    the identity in this coframe.
    """
    if a.degree != b.degree:
        raise ValueError("inner product needs forms of equal degree")
    return complex(np.vdot(b.vector, a.vector))


_PAIR_ROWS, _PAIR_COLS = np.array(_BASIS_KEYS[2]).T - 1


def _two_form_matrix(vector: np.ndarray) -> np.ndarray:
    """Antisymmetric 7x7 matrix ``A`` with ``a(X, Y) = X^T A Y``.

    Axes of ``vector`` after the first follow the two matrix axes.
    """
    out = np.zeros((7, 7) + vector.shape[1:], dtype=vector.dtype)
    out[_PAIR_ROWS, _PAIR_COLS] = vector
    out[_PAIR_COLS, _PAIR_ROWS] = -vector
    return out


@dataclass(frozen=True, eq=False)
class ContactModel:
    """Calibrated convention set for the model fiber.

    ``orientation_sign`` fixes the volume form ``sign * e1^...^e7``;
    ``deta`` is the differential of the contact form (a horizontal 2-form);
    ``phi`` is the 7x7 matrix of the endomorphism that rotates each
    horizontal plane and kills the Reeb direction.  The model keeps
    read-only copies of both arrays, so that the tables built once per
    model cannot go stale.
    """

    orientation_sign: int
    deta: KForm
    phi: np.ndarray
    label: str = "calibrated"

    def __post_init__(self):
        deta = self.deta.copy()
        deta.vector.flags.writeable = False
        phi = np.array(self.phi)
        phi.flags.writeable = False
        object.__setattr__(self, "deta", deta)
        object.__setattr__(self, "phi", phi)

    # -- basic fields ----------------------------------------------------

    @property
    def eta(self) -> KForm:
        return KForm.basis(REEB_INDEX)

    @property
    def vol(self) -> KForm:
        return float(self.orientation_sign) * KForm.basis(*_ALL_INDICES)

    @property
    def omega(self) -> KForm:
        """The fundamental horizontal 2-form, identified with ``deta``."""
        return self.deta.copy()

    @property
    def deta_coefficient(self) -> float:
        """Common coefficient of ``deta`` on the three plane monomials."""
        return float(self.deta.coefficient(1, 2).real)

    @property
    def phi_sign(self) -> int:
        """Sign ``s`` in ``Phi(e_{2j-1} dual) = s * (e_{2j} dual)``."""
        return int(round(self.phi[1, 0]))

    def signature(self) -> tuple:
        """The convention tuple, as the ``calibrate`` report prints it."""
        return (
            int(self.orientation_sign),
            self.deta_coefficient,
            self.phi_sign,
        )

    # -- derived structures ----------------------------------------------

    def transverse_gram(self) -> np.ndarray:
        """Gram matrix of ``(X, Y) -> (1/2) deta(X, Phi Y)`` on ``H``."""
        deta = _two_form_matrix(self.deta.vector.real)
        return 0.5 * (deta @ self.phi)[:6, :6]


def hodge_star(a: KForm, model: ContactModel) -> KForm:
    """Hodge star for the identity metric and the model's orientation.

    Complex-linear; characterized by ``x ^ star(conj y) = <x, y> vol``.
    """
    return KForm._wrap(
        7 - a.degree,
        _apply_signed_map(_HODGE[a.degree], a.vector, model.orientation_sign),
    )


def transverse_star(a: KForm, model: ContactModel) -> KForm:
    """Six-dimensional Hodge star on horizontal forms.

    The horizontal volume form is the Reeb contraction of the full volume
    form, ``sign * e1^...^e6``.  Vertical input is rejected.
    """
    if not a.is_horizontal():
        raise ValueError("transverse_star expects a horizontal form")
    if a.degree > 6:
        raise ValueError("horizontal forms have degree at most 6")
    return KForm._wrap(
        6 - a.degree,
        _apply_signed_map(
            _TRANSVERSE[a.degree], a.vector, model.orientation_sign
        ),
    )


def contract_reeb(a: KForm) -> KForm:
    """Interior product with the Reeb vector (the ``e7`` direction)."""
    if a.degree == 0:
        return KForm.zero(0)
    return KForm._wrap(
        a.degree - 1, _apply_signed_map(_REEB[a.degree], a.vector)
    )


# ---------------------------------------------------------------------------
# Standard two-form families
# ---------------------------------------------------------------------------

def _fixed_dz(j: int) -> KForm:
    """The fixed symbol combination ``e^{2j-1} - i e^{2j}``."""
    return KForm.basis(2 * j - 1) + (-1j) * KForm.basis(2 * j)


@functools.cache
def standard_two_form_families() -> MappingProxyType:
    """The two standard families of horizontal 2-forms.

    ``w`` spans the 8-dimensional eigenspace the package calls the
    self-dual block, ``v`` the 6-dimensional one.  Both are built from the
    fixed complex combinations ``dz^j = e^{2j-1} - i e^{2j}`` so that their
    real expansions are convention independent:

        w1 = (dz1 ^ cbar dz2 - dz2 ^ cbar dz1) / 2          etc.
        v1 = (dz1 ^ dz2 + cbar dz1 ^ cbar dz2) / 2          etc.

    Every member has squared norm 2.  Built once per process and shared
    read-only: a mapping of tuples of forms whose vectors are read-only;
    ``standard_two_form_families.__wrapped__()`` builds them anew.
    """
    dz = {j: _fixed_dz(j) for j in (1, 2, 3)}
    dzb = {j: dz[j].conjugate() for j in (1, 2, 3)}

    w = []
    for mu, nu in PAIRS:
        w.append(0.5 * (wedge(dz[mu], dzb[nu]) - wedge(dz[nu], dzb[mu])))
        w.append(0.5j * (wedge(dz[mu], dzb[nu]) + wedge(dz[nu], dzb[mu])))
    w.append(0.5j * (wedge(dz[1], dzb[1]) - wedge(dz[3], dzb[3])))
    w.append(0.5j * (wedge(dz[2], dzb[2]) - wedge(dz[3], dzb[3])))

    v = []
    for mu, nu in PAIRS:
        v.append(0.5 * (wedge(dz[mu], dz[nu]) + wedge(dzb[mu], dzb[nu])))
        v.append(0.5j * (wedge(dzb[mu], dzb[nu]) - wedge(dz[mu], dz[nu])))

    for form in w + v:
        form.vector.setflags(write=False)
    return MappingProxyType({"w": tuple(w), "v": tuple(v)})


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

# (orientation sign, deta scale, phi rotation sign), in search order
_CONVENTIONS = tuple(
    itertools.product((1, -1), (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0), (1, -1))
)


def _candidate_model(sigma: int, kappa: float, s: int) -> ContactModel:
    deta = KForm(2, {plane: kappa for plane in PLANES})
    phi = np.zeros((7, 7))
    for odd, even in PLANES:
        phi[even - 1, odd - 1] = s
        phi[odd - 1, even - 1] = -s
    return ContactModel(
        orientation_sign=sigma,
        deta=deta,
        phi=phi,
        label=f"sigma={sigma},kappa={kappa},s={s}",
    )


def mixing_matrix(model: ContactModel) -> np.ndarray:
    """Matrix of the mixing operator ``a -> star(eta ^ deta ^ a)`` on
    2-forms, lex basis: the Hodge star's signed permutation applied to the
    rows of the left multiplication by ``eta ^ deta``."""
    to_five = left_wedge_matrix(wedge(model.eta, model.deta), 2)
    mat = _apply_signed_map(_HODGE[5], to_five, model.orientation_sign).real
    # the entries are exact; adding 0.0 turns -0.0 into 0.0, whose sign
    # would otherwise reach the last digits of the eigenvectors LAPACK picks
    return mat + 0.0


_EXPECTED_MULTIPLICITIES = {1.0: 8, -1.0: 6, -2.0: 1, 0.0: 6}
_MIXING_EIGENVALUES = np.array(list(_EXPECTED_MULTIPLICITIES))


def nearest_mixing_eigenvalues(evals) -> tuple:
    """Match eigenvalues of the mixing operator to its targets.

    Returns, for each entry of ``evals`` (any shape), the index into the
    targets ``(+1, -1, -2, 0)`` of the nearest one (the first on a tie)
    and the distance to it.
    """
    distance = np.abs(np.asarray(evals)[..., None] - _MIXING_EIGENVALUES)
    nearest = np.argmin(distance, axis=-1)
    closest = np.take_along_axis(distance, nearest[..., None], axis=-1)
    return nearest, closest[..., 0]


def _spectrum_ok(evals: np.ndarray, tol: float) -> np.ndarray:
    """Per stack entry: every eigenvalue within ``tol`` of a target and the
    target multiplicities as expected."""
    nearest, distance = nearest_mixing_eigenvalues(evals)
    counts = (nearest[..., None] == np.arange(len(_MIXING_EIGENVALUES))).sum(
        axis=-2
    )
    expected = np.array(list(_EXPECTED_MULTIPLICITIES.values()))
    return (distance <= tol).all(axis=-1) & (counts == expected).all(axis=-1)


def _transposed(stack: np.ndarray) -> np.ndarray:
    return stack.transpose(0, 2, 1)


def _check_candidates(models: list) -> list:
    """Acceptance rows of the candidate models, checked together.

    The eigen-residuals of the families are ``F @ M.T - lambda F`` over
    the stacked family vectors ``F`` and candidate mixing matrices ``M``.
    """
    tol = 1e-10
    mats = np.stack([mixing_matrix(m) for m in models])
    symmetric = np.max(np.abs(mats - _transposed(mats)), axis=(1, 2)) <= 1e-12
    spectrum_ok = symmetric & _spectrum_ok(
        np.linalg.eigvalsh(0.5 * (mats + _transposed(mats))), tol
    )

    def eigen_resid(stacked: np.ndarray, expected: float) -> np.ndarray:
        """(candidate, row) norms of ``F @ M.T - expected * F``."""
        image = stacked @ _transposed(mats)
        return np.linalg.norm(image - expected * stacked, axis=-1)

    families = standard_two_form_families()
    w = np.stack([f.vector for f in families["w"]])
    v = np.stack([f.vector for f in families["v"]])
    w_ok = np.all(eigen_resid(w, 1.0) <= tol, axis=-1)
    v_ok = np.all(eigen_resid(v, -1.0) <= tol, axis=-1)
    detas = np.stack([m.deta.vector for m in models])
    omega_ok = eigen_resid(detas[:, None, :], -2.0)[:, 0] <= tol * np.maximum(
        np.linalg.norm(detas, axis=-1), 1.0
    )

    grams = np.stack([m.transverse_gram() for m in models])
    gram_sym = np.max(np.abs(grams - _transposed(grams)), axis=(1, 2)) <= 1e-12
    metric_pd = gram_sym & (np.linalg.eigvalsh(grams)[:, 0] > 1e-12)

    dz = np.stack([_fixed_dz(j).vector for j in (1, 2, 3)], axis=1)
    phis = np.stack([m.phi for m in models])
    coframe_resid = np.linalg.norm(_transposed(phis) @ dz - 1j * dz, axis=1)
    coframe_ok = np.all(coframe_resid <= 1e-12, axis=-1)

    rows = []
    for i, model in enumerate(models):
        checks = {
            "spectrum_ok": bool(spectrum_ok[i]),
            "w_plus_one": bool(w_ok[i]),
            "v_minus_one": bool(v_ok[i]),
            "omega_minus_two": bool(omega_ok[i]),
            "transverse_metric_pd": bool(metric_pd[i]),
            "coframe_type_ok": bool(coframe_ok[i]),
        }
        rows.append(
            {"label": model.label, **checks, "accepted": all(checks.values())}
        )
    return rows


@functools.cache
def calibrate_model() -> ContactModel:
    """Search the convention space and return the unique calibrated model.

    The search runs once per process; every later call returns the same
    model, which is frozen with read-only arrays and so is shared safely.
    ``calibrate_model.__wrapped__()`` runs a fresh search.

    Candidates range over orientation sign (+1/-1), the scale of ``deta``
    on each plane (+-2, +-1, +-1/2) and the rotation sign of ``phi``.  A
    candidate is accepted when:

    * the mixing operator ``a -> star(eta ^ deta ^ a)`` on 2-forms is
      symmetric with eigenvalue multiplicities ``{+1: 8, -1: 6, -2: 1, 0: 6}``;
    * the ``w`` family sits in the +1 eigenspace, the ``v`` family in the
      -1 eigenspace and ``deta`` itself in the -2 eigenspace;
    * ``(X, Y) -> (1/2) deta(X, Phi Y)`` is positive definite on ``H``;
    * the fixed combinations ``e^{2j-1} - i e^{2j}`` are +i eigenvectors of
      the ``phi`` pullback (so they deserve the name ``dz^j``).

    Raises :class:`CalibrationError` unless exactly one candidate survives.
    The acceptance row of every candidate comes from
    :func:`_check_candidates`.
    """
    candidates = [_candidate_model(*convention) for convention in _CONVENTIONS]
    rows = _check_candidates(candidates)
    winners = [m for m, row in zip(candidates, rows) if row["accepted"]]
    if len(winners) != 1:
        raise CalibrationError(
            f"expected exactly one surviving convention, got {len(winners)}"
        )
    return winners[0]


def calibration_constants(model: ContactModel) -> dict:
    """Realized numerical constants of a calibrated model.

    The constants are computed once per model; each call returns a fresh
    dict, its nested ``transverse_double_star_signs`` included, so a
    caller may change its copy freely.
    """
    constants = dict(_calibration_constants(model))
    constants["transverse_double_star_signs"] = dict(
        constants["transverse_double_star_signs"]
    )
    return constants


@functools.cache
def _calibration_constants(model: ContactModel) -> MappingProxyType:
    """The constants behind :func:`calibration_constants`, built once per
    model and shared read-only; ``_calibration_constants.__wrapped__``
    computes them anew."""
    gram = model.transverse_gram()
    ratio = float(gram[0, 0])

    half_deta_cubed = wedge(
        model.eta,
        0.5 * model.deta,
        0.5 * model.deta,
        0.5 * model.deta,
    )
    vol = model.vol
    vol_coeff = vol.coefficient(*_ALL_INDICES)
    volume_ratio = float(
        (half_deta_cubed.coefficient(*_ALL_INDICES) / vol_coeff).real
    )

    omega = model.omega
    half_omega_sq = 0.5 * wedge(omega, omega)
    star_t_omega = transverse_star(omega, model)
    denom = form_inner(half_omega_sq, half_omega_sq).real
    scale = form_inner(star_t_omega, half_omega_sq).real / denom

    double_star_signs = {}
    for k in range(7):
        key = HORIZONTAL_INDICES[:k]
        probe = KForm.basis(*key) if k else KForm.constant(1.0)
        twice = transverse_star(transverse_star(probe, model), model)
        double_star_signs[k] = int(
            round(form_inner(twice, probe).real / form_inner(probe, probe).real)
        )

    return MappingProxyType({
        "orientation_sign": int(model.orientation_sign),
        "deta_coefficient": model.deta_coefficient,
        "phi_sign": model.phi_sign,
        "transverse_metric_ratio": ratio,
        "volume_ratio": volume_ratio,
        "transverse_star_omega_scale": float(scale),
        "transverse_double_star_signs": MappingProxyType(double_star_signs),
    })
