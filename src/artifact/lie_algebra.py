"""Compact matrix Lie algebras with invariant inner products.

An algebra is held as a :class:`LieAlgebraSpec`: a basis of anti-Hermitian
matrices, real structure constants, and one scalar c > 0, in which the
ad-invariant inner product is c times the plain dot product of
coefficient vectors.  Coefficient vectors may be complex; the inner
product extends sesquilinearly through coefficient conjugation, never
through entrywise matrix conjugation.

The named algebras of :func:`make_so`, :func:`make_su` and
:func:`make_abelian` are built and checked once per process and then
shared (the eight most recently used of each constructor); their
arrays are read-only.  An algebra from an explicit basis
(:func:`algebra_from_basis`) is built anew on every call; a basis whose
Gram matrix is not c times the identity is re-based once, at
construction.  Coefficients always refer to ``spec.basis``.

Two bracket routes are kept deliberately separate: the structure-constant
contraction and the matrix commutator pulled back through the basis.
Agreement of the two is part of the package self-checks.

The vector kernels (brackets, matrices, coefficients, inner products and
norms) also take stacks: leading axes run over samples and the algebra
axis comes last.  Each sample of a stack is computed with the same
operations as a single vector.  The structure-constant contractions
(:func:`bracket_vec`, :func:`ad_matrix`) are BLAS matrix products, whose
blocking of a sum may depend on the stack size, so a sample of a stack
can differ from the same vector alone in the last digits; the other
kernels agree bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LieAlgebraSpec",
    "algebra_from_basis",
    "make_so",
    "make_su",
    "make_abelian",
    "killing_matrix",
    "bracket_vec",
    "bracket_via_matrices",
    "subalgebra_spec",
    "matrix_of",
    "coeffs_of",
    "inner_vec",
    "norm_vec",
    "ad_matrix",
    "bracket_norm_check",
    "BRACKET_NORM_BOUND",
]

# norm bound for commutators: ||[a, b]|| <= sqrt(2) ||a|| ||b||
BRACKET_NORM_BOUND = float(np.sqrt(2.0))

_CLOSURE_TOLERANCE = 1e-10
_INVARIANCE_TOLERANCE = 1e-10
# relative residual up to which a matrix counts as in the span of a basis
_SPAN_TOLERANCE = 1e-9
# slack on the sqrt(2) bound before a sampled bracket ratio fails it
_BRACKET_BOUND_SLACK = 1e-9
# matrix entries per block of the stacked commutators in algebra_from_basis
_PAIR_BLOCK_ENTRIES = 1 << 20
# named algebras kept per constructor: abelian(64) alone holds about 10 MB,
# so a process that builds many sizes keeps only the most recent ones
_NAMED_CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class LieAlgebraSpec:
    """A compact matrix Lie algebra with a fixed basis.

    ``basis`` has shape (d, n, n); ``structure[i, j, k]`` is the
    coefficient of the k-th basis element in [b_i, b_j]; the Gram matrix
    of the invariant inner product in this basis is ``inner_scale``
    times the identity.
    """

    name: str
    basis: np.ndarray
    structure: np.ndarray
    inner_scale: float
    inner_mode: str
    coeff_pinv: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def killing_matrix(structure: np.ndarray) -> np.ndarray:
    """Gram matrix of the Killing form, traced through ad matrices."""
    return np.einsum("ilk,jkl->ij", structure, structure)


def _trace_gram(basis: np.ndarray) -> np.ndarray:
    gram = -np.einsum("iab,jba->ij", basis, basis)
    residual = float(np.max(np.abs(gram.imag)))
    if residual > 1e-12:
        raise ValueError("trace Gram matrix has a complex part")
    return gram.real


def _structure_constants(mats: np.ndarray) -> tuple:
    """Structure constants and coefficient pseudo-inverse of a basis."""
    d = mats.shape[0]
    flat = mats.reshape(d, -1)
    overlap = flat @ flat.conj().T
    diag = np.real(np.diag(overlap)).copy()
    if np.array_equal(overlap, np.diag(np.diag(overlap))) and np.all(
        diag > 0.0
    ):
        # orthogonal basis: the coefficient extraction has an exact
        # closed form, which keeps integer structure constants exact
        pinv = flat.conj() / diag[:, None]
    else:
        pinv = np.linalg.pinv(flat.T)
    if np.linalg.matrix_rank(flat) < d:
        raise ValueError("basis matrices are linearly dependent")

    structure = np.zeros((d, d, d))
    pairs = np.transpose(np.triu_indices(d, 1))
    # all pairs i < j at once, in blocks that bound the commutator stack
    step = max(1, _PAIR_BLOCK_ENTRIES // flat.shape[1])
    for start in range(0, len(pairs), step):
        i, j = pairs[start:start + step].T
        comm = (mats[i] @ mats[j] - mats[j] @ mats[i]).reshape(len(i), -1)
        coeff = comm @ pinv.T
        resid = np.linalg.norm(coeff @ flat - comm, axis=1)
        scale = np.maximum(np.linalg.norm(comm, axis=1), 1.0)
        not_closed = resid > _CLOSURE_TOLERANCE * scale
        not_real = np.max(np.abs(coeff.imag), axis=1) > _CLOSURE_TOLERANCE
        failed = np.flatnonzero(not_closed | not_real)
        if failed.size:
            p = failed[0]
            if not_closed[p]:
                raise ValueError(
                    f"basis is not closed under commutators "
                    f"(pair {i[p]},{j[p]}, residual {float(resid[p])})"
                )
            raise ValueError(
                f"structure constants are not real (pair {i[p]},{j[p]})"
            )
        structure[i, j] = coeff.real
        structure[j, i] = -coeff.real
    return structure, pinv


def algebra_from_basis(
    name: str, basis, inner: str = "killing"
) -> LieAlgebraSpec:
    """Build a :class:`LieAlgebraSpec` from a basis of matrices.

    The basis must be linearly independent and closed under commutators.
    ``inner`` selects the invariant inner product: ``"killing"`` uses the
    negative Killing form and falls back to the negative trace form when
    the Killing form is degenerate (abelian algebras), ``"trace"`` forces
    the negative trace form.

    A basis whose Gram matrix is exactly c times the identity is kept.
    Any other basis is replaced by ``sqrt(c) L^-1`` applied to it, with
    ``L L^T`` the Cholesky factorisation of its Gram matrix and c =
    det(Gram)^(1/d), so that the change of basis has determinant one.
    """
    mats = np.asarray(basis, dtype=complex)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("basis must be a (d, n, n) array of matrices")
    d = mats.shape[0]
    structure, pinv = _structure_constants(mats)
    mode = inner
    if inner == "killing":
        gram = -killing_matrix(structure)
        eigs = np.linalg.eigvalsh(gram)
        if eigs.min() <= 1e-10 * max(float(eigs.max()), 1.0):
            gram = _trace_gram(mats)
            mode = "trace"
    elif inner == "trace":
        gram = _trace_gram(mats)
    else:
        raise ValueError(f"unknown inner mode {inner!r}")

    inner_scale = float(gram[0, 0])
    if not np.array_equal(gram, inner_scale * np.eye(d)):
        try:
            lower = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise ValueError(
                "inner product Gram matrix is not positive definite"
            ) from None
        inner_scale = float(np.exp(2.0 * np.mean(np.log(np.diag(lower)))))
        change = np.sqrt(inner_scale) * np.linalg.inv(lower)
        mats = np.einsum("ki,iab->kab", change, mats)
        structure, pinv = _structure_constants(mats)
        # in c I coordinates every ad matrix is antisymmetric: its diagonal
        # is rounding only, and zero makes tr ad_X = 0 exact
        structure[:, np.arange(d), np.arange(d)] = 0.0
    return _checked_spec(name, mats, structure, inner_scale, mode, pinv)


def _checked_spec(name, basis, structure, inner_scale, inner_mode,
                  coeff_pinv) -> LieAlgebraSpec:
    """A frozen :class:`LieAlgebraSpec` once its inner product is checked
    to be positive and ad-invariant."""
    if not inner_scale > 0.0:
        raise ValueError("inner product Gram matrix is not positive definite")

    # ad-invariance of c times the dot product, <[a,b],c> + <b,[a,c]> = 0:
    # the structure constants are antisymmetric in their last two indices
    invariance = inner_scale * structure
    residual = float(np.max(np.abs(invariance + invariance.transpose(0, 2, 1))))
    if residual > _INVARIANCE_TOLERANCE:
        raise ValueError(
            f"inner product is not ad-invariant (residual {residual})"
        )

    spec = LieAlgebraSpec(
        name, basis, structure, inner_scale, inner_mode, coeff_pinv
    )
    for arr in (spec.basis, spec.structure, spec.coeff_pinv):
        arr.setflags(write=False)
    return spec


@functools.lru_cache(maxsize=_NAMED_CACHE_SIZE)
def make_so(n: int, inner: str = "killing") -> LieAlgebraSpec:
    """Real antisymmetric n x n matrices, basis E_ij - E_ji for i < j.

    For n = 5 the sign of the final generator is flipped, so that the
    triple of generators acting in the last three coordinates closes
    cyclically with positive structure constants.
    """
    if n < 2:
        raise ValueError("so(n) needs n >= 2")
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n))
            m[i, j] = 1.0
            m[j, i] = -1.0
            mats.append(m)
    if n == 5:
        mats[-1] = -mats[-1]
    return algebra_from_basis(f"so({n})", np.array(mats), inner=inner)


@functools.lru_cache(maxsize=_NAMED_CACHE_SIZE)
def make_su(n: int, inner: str = "killing") -> LieAlgebraSpec:
    """Traceless anti-Hermitian n x n matrices.

    Basis: real antisymmetric pairs E_ij - E_ji (i < j), imaginary
    symmetric pairs i (E_ij + E_ji) (i < j), then the imaginary diagonal
    differences i (E_ll - E_{l+1, l+1}); for n >= 3 these differences
    are not orthogonal, so :func:`algebra_from_basis` re-bases the whole.
    """
    if n < 2:
        raise ValueError("su(n) needs n >= 2")
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = -1.0
            mats.append(m)
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1j
            m[j, i] = 1j
            mats.append(m)
    for l in range(n - 1):
        m = np.zeros((n, n), dtype=complex)
        m[l, l] = 1j
        m[l + 1, l + 1] = -1j
        mats.append(m)
    return algebra_from_basis(f"su({n})", np.array(mats), inner=inner)


@functools.lru_cache(maxsize=_NAMED_CACHE_SIZE)
def make_abelian(d: int) -> LieAlgebraSpec:
    """Abelian algebra of d imaginary diagonal matrices, in closed form.

    The generators ``i E_kk`` commute, so every structure constant is
    zero and the Killing form vanishes; the inner product is the negative
    trace form, ``inner_scale`` 1; the basis is orthonormal, so
    coefficients come from the conjugated flattened basis.  This is the
    spec that :func:`algebra_from_basis` derives from all the commutators.
    """
    if d < 1:
        raise ValueError("need at least one generator")
    mats = np.zeros((d, d, d), dtype=complex)
    for k in range(d):
        mats[k, k, k] = 1j
    return _checked_spec(
        f"abelian({d})",
        mats,
        np.zeros((d, d, d)),
        1.0,
        "trace",
        mats.reshape(d, -1).conj(),
    )


def subalgebra_spec(
    parent: LieAlgebraSpec, indices, name: str | None = None
) -> LieAlgebraSpec:
    """Slice of a parent algebra that keeps the ambient inner product.

    ``indices`` lists the 1-based positions of the retained basis
    elements, which must close under brackets inside the parent.  The
    slice keeps the parent's invariant inner product on the selected
    span, so its ``inner_scale`` is the parent's; it generally differs
    from the intrinsic inner product of the abstract subalgebra.
    """
    picks = [int(i) - 1 for i in indices]
    if len(set(picks)) != len(picks):
        raise ValueError("basis indices must be distinct")
    if any(i < 0 or i >= parent.dim for i in picks):
        raise ValueError(f"basis indices must lie in 1..{parent.dim}")
    complement = [k for k in range(parent.dim) if k not in picks]
    leak = parent.structure[np.ix_(picks, picks, complement)]
    worst = float(np.max(np.abs(leak))) if leak.size else 0.0
    if worst > _CLOSURE_TOLERANCE:
        raise ValueError(
            f"selected elements do not close under brackets "
            f"(outside-span coefficient {worst:.3e})"
        )
    basis = np.asarray(parent.basis[picks])
    return _checked_spec(
        name or f"{parent.name}|{tuple(int(i) for i in indices)}",
        basis,
        np.asarray(parent.structure[np.ix_(picks, picks, picks)]),
        parent.inner_scale,
        parent.inner_mode,
        np.linalg.pinv(basis.reshape(len(picks), -1).T),
    )


def _scalar(value):
    """A Python number for a single sample, the array itself for a stack."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def bracket_vec(spec: LieAlgebraSpec, u, v) -> np.ndarray:
    """[u, v] through the structure constants.

    The outer products ``u_i v_j`` are contracted with the structure
    constants as one matrix product against their ``(d*d, d)`` view.
    """
    d = spec.dim
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    outer = u[..., :, None] * v[..., None, :]
    flat = outer.reshape(outer.shape[:-2] + (d * d,))
    return flat @ spec.structure.reshape(d * d, d)


def matrix_of(spec: LieAlgebraSpec, u) -> np.ndarray:
    """The matrix represented by a coefficient vector."""
    return np.einsum(
        "...i,iab->...ab", np.asarray(u, dtype=complex), spec.basis
    )


def coeffs_of(spec: LieAlgebraSpec, mat) -> np.ndarray:
    """Coefficient vector of a matrix; rejects matrices outside the span."""
    m = np.asarray(mat, dtype=complex)
    coeff = m.reshape(m.shape[:-2] + (-1,)) @ spec.coeff_pinv.T
    resid = np.linalg.norm(matrix_of(spec, coeff) - m, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(m, axis=(-2, -1)), 1.0)
    if np.any(resid > _SPAN_TOLERANCE * scale):
        raise ValueError(
            f"matrix is not in the span of the basis "
            f"(residual {float(np.max(resid))})"
        )
    return coeff


def bracket_via_matrices(spec: LieAlgebraSpec, u, v) -> np.ndarray:
    """[u, v] through matrix commutators; dual route to bracket_vec."""
    a = matrix_of(spec, u)
    b = matrix_of(spec, v)
    return coeffs_of(spec, a @ b - b @ a)


def inner_vec(spec: LieAlgebraSpec, u, v) -> complex | np.ndarray:
    """Invariant inner product, sesquilinear in the second slot.

    A complex number for two vectors, an array over the leading axes for
    stacks.
    """
    # vecdot conjugates its first argument; one dot product per sample
    plain = np.vecdot(
        np.asarray(v, dtype=complex), np.asarray(u, dtype=complex)
    )
    return _scalar(spec.inner_scale * plain)


def norm_vec(spec: LieAlgebraSpec, u) -> float | np.ndarray:
    value = np.real(inner_vec(spec, u, u))
    return _scalar(np.sqrt(np.maximum(value, 0.0)))


def ad_matrix(spec: LieAlgebraSpec, u) -> np.ndarray:
    """Matrix of ad_u = [u, .] on coefficient vectors.

    One matrix product of ``u`` with the ``(d, d*d)`` view of the
    structure constants; real vectors give real matrices.
    """
    d = spec.dim
    flat = np.asarray(u) @ spec.structure.reshape(d, d * d)
    return np.swapaxes(flat.reshape(flat.shape[:-1] + (d, d)), -1, -2)


def bracket_norm_check(
    spec: LieAlgebraSpec,
    samples: int = 1000,
    seed: int = 0,
) -> dict:
    """Sample the commutator norm ratio ||[a,b]|| / (||a|| ||b||).

    Draws real and complex coefficient pairs plus every basis pair,
    records the maximum ratio, and compares it with the sqrt(2) bound.
    The pairs are drawn one by one (whether a pair is complex is itself
    random) and the ratios are evaluated on the stack of all of them.
    """
    rng = np.random.default_rng(seed)
    d = spec.dim
    first, second = [], []
    for _ in range(samples):
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        if rng.random() < 0.5:
            u = u + 1j * rng.standard_normal(d)
            v = v + 1j * rng.standard_normal(d)
        first.append(u)
        second.append(v)
    basis = np.eye(d)
    for i in range(d):
        for j in range(d):
            first.append(basis[i])
            second.append(basis[j])
    first = np.array(first, dtype=complex)
    second = np.array(second, dtype=complex)
    scale = norm_vec(spec, first) * norm_vec(spec, second)
    keep = scale != 0.0
    ratios = norm_vec(spec, bracket_vec(spec, first[keep], second[keep]))
    max_ratio = float(np.max(ratios / scale[keep], initial=0.0))
    return {
        "algebra": spec.name,
        "inner_mode": spec.inner_mode,
        "max_ratio": max_ratio,
        "bound": BRACKET_NORM_BOUND,
        "passed": max_ratio <= BRACKET_NORM_BOUND + _BRACKET_BOUND_SLACK,
        "attained": abs(max_ratio - BRACKET_NORM_BOUND) <= 1e-6,
        "samples": samples,
    }
