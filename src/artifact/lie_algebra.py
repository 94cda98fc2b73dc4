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
import math
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

    @functools.cached_property
    def _real_tables(self) -> tuple | None:
        """``(basis, coeff_pinv)`` as real arrays when neither has an
        imaginary part, else None; computed on first use."""
        if self.basis.imag.any() or self.coeff_pinv.imag.any():
            return None
        tables = (self.basis.real.copy(), self.coeff_pinv.real.copy())
        for table in tables:
            table.setflags(write=False)
        return tables


def killing_matrix(structure: np.ndarray) -> np.ndarray:
    """Gram matrix of the Killing form, traced through ad matrices."""
    return np.einsum("ilk,jkl->ij", structure, structure)


def _trace_gram(basis: np.ndarray) -> np.ndarray:
    gram = -np.einsum("iab,jba->ij", basis, basis)
    residual = float(np.max(np.abs(gram.imag)))
    if residual > 1e-12:
        raise ValueError("trace Gram matrix has a complex part")
    return gram.real


def _coefficient_pinv(flat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse extracting coefficients on the rows of ``flat``, the
    flattened basis matrices.  An orthogonal basis has an exact closed
    form, which keeps integer structure constants exact."""
    overlap = flat @ flat.conj().T
    diag = np.real(np.diag(overlap)).copy()
    if np.array_equal(overlap, np.diag(np.diag(overlap))) and np.all(
        diag > 0.0
    ):
        return flat.conj() / diag[:, None]
    return np.linalg.pinv(flat.T)


def _structure_constants(mats: np.ndarray) -> tuple:
    """Structure constants and coefficient pseudo-inverse of a basis."""
    d = mats.shape[0]
    flat = mats.reshape(d, -1)
    pinv = _coefficient_pinv(flat)
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
def make_so(n: int) -> LieAlgebraSpec:
    """Real antisymmetric n x n matrices, basis E_ij - E_ji for i < j,
    with the negative Killing form as inner product (the negative trace
    form for the abelian so(2)).

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
    return algebra_from_basis(f"so({n})", np.array(mats))


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
        _coefficient_pinv(basis.reshape(len(picks), -1)),
    )


def _scalar(value):
    """A Python number for a single sample, the array itself for a stack."""
    value = np.asarray(value)
    return value.item() if value.ndim == 0 else value


def _columns(u: np.ndarray, lead: tuple, d: int) -> np.ndarray:
    """The ``(d, m)`` view of a ``(..., d)`` array broadcast to ``lead``:
    column ``n`` is the vector of sample ``n``, ``m = prod(lead)``.  A
    single vector is one ``(d, 1)`` column, which broadcasts in turn."""
    if u.ndim == 1:
        return u[:, None]
    if u.shape[:-1] != lead:
        u = np.broadcast_to(u, lead + (d,))
    return u.reshape(math.prod(lead), d).T


def _bracket_columns(spec: LieAlgebraSpec, u, v) -> np.ndarray:
    """[u, v] of ``(d, m)`` arrays whose columns are coefficient vectors.

    With the sample axis last, each outer product ``u_i v_j`` is one long
    complex elementwise product over the samples, and the ``(d*d, m)``
    block of them is contracted with the ``(d, d*d)`` view of the
    structure constants as one real matrix product, the real and
    imaginary parts of the products standing side by side as its
    columns.  Real and complex columns take the same complex route, so a
    bracket does not depend on the dtype of its arguments, nor on the
    number of samples beside it.
    """
    d = spec.dim
    m = u.shape[-1] if v.shape[-1] == 1 else v.shape[-1]
    outer = np.empty((d, d, m), dtype=complex)
    np.multiply(u[:, None, :], v[None, :, :], out=outer)
    columns = outer.reshape(d * d, -1).view(np.float64)
    return (spec.structure.reshape(d * d, d).T @ columns).view(complex)


def bracket_vec(spec: LieAlgebraSpec, u, v) -> np.ndarray:
    """[u, v] through the structure constants.

    The stacks are turned into ``(d, m)`` column arrays, sample axis last,
    and bracketed by one structure-constant contraction over all samples
    (:func:`_bracket_columns`).
    """
    d = spec.dim
    u = np.asarray(u)
    v = np.asarray(v)
    lead = u.shape[:-1]
    if v.shape[:-1] != lead:
        lead = np.broadcast_shapes(lead, v.shape[:-1])
    flat = _bracket_columns(spec, _columns(u, lead, d), _columns(v, lead, d))
    # back to one contiguous row per sample, as a single bracket has it, so
    # that reductions over the algebra axis add in the same order
    return np.ascontiguousarray(flat.T).reshape(lead + (d,))


def _real_or_complex(spec: LieAlgebraSpec, values) -> tuple:
    """``values`` as an array with the tables it meets: real values on an
    algebra with real tables stay real, anything else becomes complex."""
    values = np.asarray(values)
    tables = spec._real_tables
    if tables is None or np.iscomplexobj(values):
        return values.astype(complex, copy=False), (spec.basis, spec.coeff_pinv)
    return values.astype(float, copy=False), tables


def matrix_of(spec: LieAlgebraSpec, u) -> np.ndarray:
    """The matrix represented by a coefficient vector.

    One matrix product of the coefficients with the flattened basis;
    real coefficients on a real basis give real matrices.
    """
    u, (basis, _) = _real_or_complex(spec, u)
    n = basis.shape[-1]
    flat = u @ basis.reshape(spec.dim, n * n)
    return flat.reshape(u.shape[:-1] + (n, n))


def coeffs_of(spec: LieAlgebraSpec, mat) -> np.ndarray:
    """Coefficient vector of a matrix; rejects matrices outside the span.

    Real matrices of an algebra with a real basis give real coefficients.
    """
    m, (_, pinv) = _real_or_complex(spec, mat)
    coeff = m.reshape(m.shape[:-2] + (-1,)) @ pinv.T
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
    Whether a pair is complex is itself random, so the pairs are drawn
    one by one: per pair one ``standard_normal`` of both real parts, one
    uniform draw, and for a complex pair one ``standard_normal`` of both
    imaginary parts, each written into its row of a preallocated array
    (the stream of a ``standard_normal(d)`` per vector and part).  The
    basis pairs follow the drawn ones, and the ratios are evaluated on
    the whole stack.
    """
    rng = np.random.default_rng(seed)
    d = spec.dim
    # (pair, first or second, algebra)
    drawn = max(samples, 0)
    real = np.zeros((drawn + d * d, 2, d))
    imag = np.zeros_like(real)
    normal, uniform = rng.standard_normal, rng.random
    for re_row, im_row in zip(real[:drawn], imag[:drawn]):
        normal(out=re_row)
        if uniform() < 0.5:
            normal(out=im_row)
    basis = np.eye(d)
    real[drawn:, 0] = np.repeat(basis, d, axis=0)
    real[drawn:, 1] = np.tile(basis, (d, 1))
    # (first or second, pair, algebra): each side one contiguous stack
    first, second = np.empty((2,) + real[:, 0].shape, dtype=complex)
    for side, part in ((first, 0), (second, 1)):
        side.real = real[:, part]
        side.imag = imag[:, part]
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
