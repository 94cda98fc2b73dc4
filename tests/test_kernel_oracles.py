"""The table-driven exterior-algebra kernel against independent routes.

Two oracles stand beside the dense kernel of ``flat_model`` and the dense
algebra-valued forms of ``gauge_fields``:

* the determinant route :func:`evaluate`, which never touches the wedge
  tables: a wedge product evaluated on tangent vectors must equal the
  signed shuffle sum of its factors' values, and every sign in the wedge
  tables must equal the determinant of the permutation it stands for;
* the dict-of-tuples routes below, the exterior algebra and the
  algebra-valued forms the package used before both became dense.  They
  sort index tuples one term at a time with ``sort_key_sign``, expand
  real monomials into complex symbols key by key, and bracket forms pair
  of keys by pair of keys; the calibration search is repeated on them
  candidate by candidate.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.flat_model import (
    _CONVENTIONS,
    _WEDGE,
    PLANES,
    REEB_INDEX,
    ContactModel,
    KForm,
    _candidate_model,
    _check_candidates,
    basis_keys,
    calibrate_model,
    contract_reeb,
    hodge_star,
    left_wedge_matrix,
    mixing_matrix,
    standard_two_form_families,
    wedge,
)
from artifact.form_decomposition import (
    _SYMBOL_KEYS,
    _TO_COMPLEX,
    _TO_REAL,
    complex_components,
    eigenspace_projectors,
)
from artifact.gauge_fields import (
    GValuedForm,
    g_inner,
    g_wedge_bracket,
    gform_complex_components,
    gform_from_complex_components,
    omega_component,
    w_coefficients_from_gform,
)
from artifact.lie_algebra import bracket_vec, inner_vec, make_so, make_su
from oracle_routes import from_complex_components, g_wedge_scalar

ORACLE_SETTINGS = settings(max_examples=60, deadline=None)


def _random_form(seed: int, degree: int, sparse: bool) -> KForm:
    rng = np.random.default_rng(seed)
    dim = len(basis_keys(degree))
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if sparse:
        vec[rng.random(dim) < 0.6] = 0.0
    return KForm.from_vector(degree, vec)


@st.composite
def degree_pairs(draw, low: int = 0):
    p = draw(st.integers(low, 7 - low))
    q = draw(st.integers(low, 7 - p))
    return p, q


seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# Oracle: the dict-of-tuples exterior algebra
# ---------------------------------------------------------------------------

def sort_key_sign(indices):
    """Sort ``indices`` ascending; return (tuple, permutation sign).

    The insertion sort with parity tracking the package used before its
    signs came from the wedge tables and an inversion count.  Returns sign
    0 for repeated indices, which kills the wedge term.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def _dict_add(out: dict, key: tuple, value: complex) -> None:
    skey, sign = sort_key_sign(key)
    if sign:
        out[skey] = out.get(skey, 0j) + sign * value


def dict_wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if not set(ka) & set(kb):
                _dict_add(out, ka + kb, va * vb)
    return out


def dict_star(a: dict, sigma: int) -> dict:
    out: dict = {}
    for key, value in a.items():
        complement = tuple(i for i in range(1, 8) if i not in key)
        _, sign = sort_key_sign(key + complement)
        out[complement] = sigma * sign * value
    return out


def dict_contract_reeb(a: dict) -> dict:
    out: dict = {}
    for key, value in a.items():
        if REEB_INDEX in key:
            out[key[:-1]] = (-1) ** (len(key) - 1) * value
    return out


def dict_norm(a: dict) -> float:
    return float(np.sqrt(sum(abs(v) ** 2 for v in a.values())))


def dict_sub(a: dict, b: dict, scale: complex = 1.0) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0j) - scale * value
    return out


def dict_vector(a: dict, degree: int) -> np.ndarray:
    keys = basis_keys(degree)
    return np.array([a.get(key, 0j) for key in keys])


def _dict_families() -> dict:
    """The standard w and v families, built on the dict route."""
    dz = {j: {(2 * j - 1,): 1 + 0j, (2 * j,): -1j} for j in (1, 2, 3)}
    dzb = {j: {k: v.conjugate() for k, v in dz[j].items()} for j in dz}

    def combo(scale, first, second, sign):
        out = {}
        for key, value in first.items():
            out[key] = out.get(key, 0j) + scale * value
        for key, value in second.items():
            out[key] = out.get(key, 0j) + sign * scale * value
        return out

    pairs = ((1, 2), (1, 3), (2, 3))
    w, v = [], []
    for mu, nu in pairs:
        a, b = dict_wedge(dz[mu], dzb[nu]), dict_wedge(dz[nu], dzb[mu])
        w.append(combo(0.5, a, b, -1))
        w.append(combo(0.5j, a, b, 1))
    for j in (1, 2):
        w.append(combo(0.5j, dict_wedge(dz[j], dzb[j]),
                       dict_wedge(dz[3], dzb[3]), -1))
    for mu, nu in pairs:
        a, b = dict_wedge(dz[mu], dz[nu]), dict_wedge(dzb[mu], dzb[nu])
        v.append(combo(0.5, a, b, 1))
        v.append(combo(0.5j, b, a, -1))
    return {"w": w, "v": v, "dz": dz}


def dict_mixing_matrix(sigma: int, deta: dict) -> np.ndarray:
    eta_deta = dict_wedge({(REEB_INDEX,): 1 + 0j}, deta)
    keys = basis_keys(2)
    mat = np.zeros((len(keys), len(keys)))
    for col, key in enumerate(keys):
        image = dict_star(dict_wedge(eta_deta, {key: 1 + 0j}), sigma)
        for row_key, value in image.items():
            mat[keys.index(row_key), col] = value.real
    return mat


def dict_check_candidate(sigma: int, kappa: float, s: int) -> dict:
    """The acceptance checks of one convention, term by term."""
    tol = 1e-10
    deta = {plane: kappa + 0j for plane in PLANES}
    phi = np.zeros((7, 7))
    for odd, even in PLANES:
        phi[even - 1, odd - 1] = s
        phi[odd - 1, even - 1] = -s

    mat = dict_mixing_matrix(sigma, deta)
    symmetric = bool(np.max(np.abs(mat - mat.T)) <= 1e-12)
    expected = {1.0: 8, -1.0: 6, -2.0: 1, 0.0: 6}
    counts = {key: 0 for key in expected}
    stray = 0
    for ev in np.linalg.eigvalsh(0.5 * (mat + mat.T)):
        hits = [t for t in counts if abs(ev - t) <= tol]
        if hits:
            counts[hits[0]] += 1
        else:
            stray += 1
    spectrum_ok = symmetric and not stray and counts == expected

    eta = {(REEB_INDEX,): 1 + 0j}

    def eigen_resid(form: dict, value: float) -> float:
        image = dict_star(dict_wedge(dict_wedge(eta, deta), form), sigma)
        return dict_norm(dict_sub(image, form, value))

    families = _dict_families()
    w_ok = all(eigen_resid(f, 1.0) <= tol for f in families["w"])
    v_ok = all(eigen_resid(f, -1.0) <= tol for f in families["v"])
    omega_ok = eigen_resid(deta, -2.0) <= tol * max(dict_norm(deta), 1.0)

    gram = np.zeros((6, 6))
    for a in range(6):
        for b in range(6):
            x, y = np.eye(7)[a], phi @ np.eye(7)[b]
            gram[a, b] = 0.5 * sum(
                value.real * (x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1])
                for (i, j), value in deta.items()
            )
    gram_sym = np.max(np.abs(gram - gram.T)) <= 1e-12
    metric_pd = bool(gram_sym and np.min(np.linalg.eigvalsh(gram)) > 1e-12)

    coframe_ok = True
    for dz in families["dz"].values():
        pulled: dict = {}
        for (a,), value in dz.items():
            for b in range(1, 8):
                if phi[a - 1, b - 1]:
                    _dict_add(pulled, (b,), value * phi[a - 1, b - 1])
        if dict_norm(dict_sub(pulled, dz, 1j)) > 1e-12:
            coframe_ok = False

    checks = {
        "spectrum_ok": spectrum_ok,
        "w_plus_one": w_ok,
        "v_minus_one": v_ok,
        "omega_minus_two": omega_ok,
        "transverse_metric_pd": metric_pd,
        "coframe_type_ok": coframe_ok,
    }
    return {
        "label": f"sigma={sigma},kappa={kappa},s={s}",
        **checks,
        "accepted": all(checks.values()),
    }


CONVENTIONS = list(itertools.product(
    (1, -1), (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0), (1, -1)
))


# ---------------------------------------------------------------------------
# Calibration: the 24 report rows against the dict route
# ---------------------------------------------------------------------------

def test_calibration_rows_match_dict_route():
    rows = _check_candidates([_candidate_model(*c) for c in _CONVENTIONS])
    expected = [dict_check_candidate(*c) for c in CONVENTIONS]
    assert rows == expected
    accepted = [row["label"] for row in rows if row["accepted"]]
    assert accepted == ["sigma=1,kappa=-1.0,s=-1"] == [calibrate_model().label]


@pytest.mark.parametrize("sigma,kappa", sorted({c[:2] for c in CONVENTIONS}))
def test_mixing_matrix_matches_dict_route(sigma, kappa):
    deta = {plane: kappa + 0j for plane in PLANES}
    model = ContactModel(
        sigma, KForm(2, deta), np.zeros((7, 7))
    )
    assert np.array_equal(
        mixing_matrix(model), dict_mixing_matrix(sigma, deta)
    )


# ---------------------------------------------------------------------------
# Wedge product
# ---------------------------------------------------------------------------

def evaluate(form: KForm, *vectors) -> complex:
    """Value of a form on ``degree`` tangent vectors (length-7 arrays):
    coefficient times determinant minor, summed over the monomials."""
    assert len(vectors) == form.degree
    mats = [np.asarray(v, dtype=complex) for v in vectors]
    total = 0j
    for key, value in form.terms():
        minor = np.array(
            [[vec[idx - 1] for vec in mats] for idx in key], dtype=complex
        ).reshape(form.degree, form.degree)
        total += value * np.linalg.det(minor)
    return total


def _shuffle_value(a: KForm, b: KForm, vectors) -> complex:
    """Sum over (p, q)-shuffles of sign * a(first p) * b(last q)."""
    p = a.degree
    total = 0j
    for first in itertools.combinations(range(len(vectors)), p):
        rest = tuple(i for i in range(len(vectors)) if i not in first)
        _, sign = sort_key_sign(first + rest)
        total += (
            sign
            * evaluate(a, *(vectors[i] for i in first))
            * evaluate(b, *(vectors[i] for i in rest))
        )
    return total


@ORACLE_SETTINGS
@given(pq=degree_pairs(low=1), seed=seeds, sparse=st.booleans())
def test_wedge_matches_determinant_route(pq, seed, sparse):
    p, q = pq
    a = _random_form(seed, p, sparse)
    b = _random_form(seed + 1, q, sparse)
    rng = np.random.default_rng(seed + 2)
    vectors = list(rng.uniform(-2.0, 2.0, size=(p + q, 7)))
    lhs = evaluate(wedge(a, b), *vectors)
    rhs = _shuffle_value(a, b, vectors)
    scale = 1.0 + 35.0 * a.norm() * b.norm() * np.prod(
        [np.linalg.norm(v) for v in vectors]
    )
    assert abs(lhs - rhs) <= 1e-12 * scale


@ORACLE_SETTINGS
@given(pq=degree_pairs(), seed=seeds, sparse=st.booleans())
def test_wedge_matches_dict_route(pq, seed, sparse):
    p, q = pq
    a = _random_form(seed, p, sparse)
    b = _random_form(seed + 1, q, sparse)
    expected = dict_wedge(dict(a.terms()), dict(b.terms()))
    got = wedge(a, b).to_vector()
    assert np.allclose(got, dict_vector(expected, p + q), rtol=0, atol=1e-12)


@ORACLE_SETTINGS
@given(pq=degree_pairs(), seed=seeds, sparse=st.booleans())
def test_wedge_graded_commutative(pq, seed, sparse):
    p, q = pq
    a = _random_form(seed, p, sparse)
    b = _random_form(seed + 1, q, sparse)
    lhs = wedge(a, b)
    rhs = (-1.0) ** (p * q) * wedge(b, a)
    assert (lhs - rhs).norm() <= 1e-12 * max(a.norm() * b.norm(), 1.0)


@st.composite
def degree_triples(draw):
    p = draw(st.integers(0, 7))
    q = draw(st.integers(0, 7 - p))
    r = draw(st.integers(0, 7 - p - q))
    return p, q, r


@ORACLE_SETTINGS
@given(pqr=degree_triples(), seed=seeds, sparse=st.booleans())
def test_wedge_associative(pqr, seed, sparse):
    forms = [_random_form(seed + i, d, sparse) for i, d in enumerate(pqr)]
    a, b, c = forms
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert (lhs - wedge(a, b, c)).norm() == 0.0
    scale = max(a.norm() * b.norm() * c.norm(), 1.0)
    assert (lhs - rhs).norm() <= 1e-12 * scale


@ORACLE_SETTINGS
@given(pq=degree_pairs(), seed=seeds)
def test_left_wedge_matrix_applies_wedge(pq, seed):
    p, q = pq
    a = _random_form(seed, p, sparse=False)
    b = _random_form(seed + 1, q, sparse=False)
    image = left_wedge_matrix(a, q) @ b.vector
    # ``wedge`` folds through this matrix, so the dict route is the oracle
    expected = dict_wedge(dict(a.terms()), dict(b.terms()))
    assert np.allclose(image, dict_vector(expected, p + q), rtol=0, atol=1e-12)


def test_wedge_rejects_overflowing_degree():
    with pytest.raises(ValueError):
        wedge(KForm.basis(1, 2, 3, 4), KForm.basis(5, 6, 7, 1))
    with pytest.raises(ValueError):
        left_wedge_matrix(KForm.basis(1, 2, 3, 4), 4)


# ---------------------------------------------------------------------------
# Stars and contraction against the dict route
# ---------------------------------------------------------------------------

@ORACLE_SETTINGS
@given(degree=st.integers(0, 7), seed=seeds, sparse=st.booleans(),
       sigma=st.sampled_from((1, -1)))
def test_hodge_star_and_contraction_match_dict_route(degree, seed, sparse,
                                                     sigma):
    form = _random_form(seed, degree, sparse)
    model = ContactModel(sigma, KForm.basis(1, 2), np.zeros((7, 7)))
    star = dict_star(dict(form.terms()), sigma)
    assert np.array_equal(
        hodge_star(form, model).to_vector(), dict_vector(star, 7 - degree)
    )
    if degree:
        contracted = dict_contract_reeb(dict(form.terms()))
        assert np.array_equal(
            contract_reeb(form).to_vector(),
            dict_vector(contracted, degree - 1),
        )


# ---------------------------------------------------------------------------
# The constructor keeps the dict-era key conventions
# ---------------------------------------------------------------------------

def test_constructor_canonicalizes_keys():
    form = KForm(2, {(3, 1): 2.0, (1, 3): 0.5, (2, 2): 9.0})
    assert form.terms() == [((1, 3), -1.5 + 0j)]
    assert form.coefficient(3, 1) == 1.5
    assert form.coefficient(8, 1) == 0j
    with pytest.raises(ValueError):
        KForm(2, {(1, 8): 1.0})
    with pytest.raises(ValueError):
        KForm(2, {(1,): 1.0})


# ---------------------------------------------------------------------------
# The wedge-table signs against the determinant route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("pq", sorted(_WEDGE))
def test_wedge_table_signs_match_determinant_route(pq):
    # e^I ^ e^J = sign e^T, and e^T evaluated on the unit vectors of I
    # followed by J is the determinant of that permutation
    p, q = pq
    target, left, right, sign = _WEDGE[pq]
    units = np.eye(7)
    for t, a, b, s in zip(target, left, right, sign):
        first, second = basis_keys(p)[a], basis_keys(q)[b]
        assert not set(first) & set(second)
        monomial = KForm.basis(*basis_keys(p + q)[t])
        value = evaluate(monomial, *(units[i - 1] for i in first + second))
        assert value == s
        assert sort_key_sign(first + second)[1] == s


# ---------------------------------------------------------------------------
# Oracle: the dict expansion between real and complex monomials
# ---------------------------------------------------------------------------

ORACLE_SYMBOL_RANK = {1: 0, 2: 1, 3: 2, -1: 3, -2: 4, -3: 5, 0: 6}

REAL_TO_COMPLEX = {REEB_INDEX: ((0, 1.0),)}
COMPLEX_TO_REAL = {0: ((REEB_INDEX, 1.0),)}
for _j in (1, 2, 3):
    REAL_TO_COMPLEX[2 * _j - 1] = ((_j, 0.5), (-_j, 0.5))
    REAL_TO_COMPLEX[2 * _j] = ((_j, 0.5j), (-_j, -0.5j))
    COMPLEX_TO_REAL[_j] = ((2 * _j - 1, 1.0), (2 * _j, -1j))
    COMPLEX_TO_REAL[-_j] = ((2 * _j - 1, 1.0), (2 * _j, 1j))


def sort_symbols(symbols):
    """Sort complex symbols canonically; return (tuple, sign or 0)."""
    idx = list(symbols)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while (j > 0 and ORACLE_SYMBOL_RANK[idx[j - 1]]
               > ORACLE_SYMBOL_RANK[idx[j]]):
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


def _expand(key, table, sorter) -> dict:
    """Multiply out the one-factor expansions of ``key`` term by term."""
    partial = {(): 1.0 + 0j}
    for idx in key:
        grown: dict = {}
        for done, coeff in partial.items():
            for item, factor in table[idx]:
                new, sign = sorter(done + (item,))
                if sign:
                    grown[new] = grown.get(new, 0j) + sign * coeff * factor
        partial = grown
    return {k: v for k, v in partial.items() if v}


def real_key_to_complex(key) -> dict:
    return _expand(key, REAL_TO_COMPLEX, sort_symbols)


def complex_symbols_to_real(symbols) -> dict:
    return _expand(symbols, COMPLEX_TO_REAL, sort_key_sign)


@pytest.mark.parametrize("degree", range(8))
def test_change_of_basis_matches_dict_expansion(degree):
    reals, symbols = basis_keys(degree), _SYMBOL_KEYS[degree]
    assert symbols == tuple(
        sorted(symbols, key=lambda s: [ORACLE_SYMBOL_RANK[x] for x in s])
    )
    to_real = np.zeros((len(reals), len(symbols)), dtype=complex)
    for col, sym in enumerate(symbols):
        for key, value in complex_symbols_to_real(sym).items():
            to_real[reals.index(key), col] = value
    to_complex = np.zeros((len(symbols), len(reals)), dtype=complex)
    for col, key in enumerate(reals):
        for sym, value in real_key_to_complex(key).items():
            to_complex[symbols.index(sym), col] = value
    assert np.array_equal(_TO_REAL[degree], to_real)
    assert np.array_equal(_TO_COMPLEX[degree], to_complex)
    assert np.array_equal(_TO_COMPLEX[degree] @ _TO_REAL[degree],
                          np.eye(len(symbols)))


@ORACLE_SETTINGS
@given(degree=st.integers(0, 7), seed=seeds, sparse=st.booleans())
def test_complex_components_match_dict_expansion(degree, seed, sparse):
    form = _random_form(seed, degree, sparse)
    expected: dict = {}
    for key, value in form.terms():
        for sym, coeff in real_key_to_complex(key).items():
            expected[sym] = expected.get(sym, 0j) + coeff * value
    got = complex_components(form)
    assert set(got) <= set(expected)
    for sym, value in expected.items():
        assert abs(got.get(sym, 0j) - value) <= 1e-12 * (1.0 + form.norm())
    # any key order on the way back, the sign from the symbol ranks
    shuffled = {tuple(reversed(sym)): (-1) ** (len(sym) * (len(sym) - 1) // 2)
                * value for sym, value in got.items()}
    back = from_complex_components(shuffled, degree)
    assert np.allclose(back.vector, form.vector, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# Oracle: the dict-of-tuples algebra-valued form
# ---------------------------------------------------------------------------

ALGEBRAS = {"su2": make_su(2), "so3": make_so(3), "so5": make_so(5)}
algebras = st.sampled_from(sorted(ALGEBRAS))


def _random_gform(name: str, degree: int, seed: int,
                  sparse: bool) -> GValuedForm:
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(basis_keys(degree)), algebra.dim))
    if seed % 2:
        rows = rows + 1j * rng.standard_normal(rows.shape)
    if sparse:
        rows[rng.random(len(rows)) < 0.6] = 0.0
    return GValuedForm.from_matrix(algebra, degree, rows)


def as_dict(F: GValuedForm) -> dict:
    """The dict-of-tuples form: ascending key -> nonzero vector."""
    return {key: vec for key, vec in zip(basis_keys(F.degree), F.matrix)
            if np.any(vec)}


def dict_to_matrix(coeffs: dict, degree: int, dim: int) -> np.ndarray:
    out = np.zeros((len(basis_keys(degree)), dim), dtype=complex)
    for key, vec in coeffs.items():
        out[basis_keys(degree).index(key)] = vec
    return out


def dict_accumulate(out: dict, key: tuple, vec: np.ndarray) -> None:
    skey, sign = sort_key_sign(key)
    if sign:
        out[skey] = out.get(skey, 0j) + sign * vec


def dict_g_wedge_bracket(algebra, phi: dict, psi: dict) -> dict:
    out: dict = {}
    for key_i, vec_i in phi.items():
        for key_j, vec_j in psi.items():
            dict_accumulate(out, key_i + key_j,
                            bracket_vec(algebra, vec_j, vec_i))
    return out


def dict_g_inner(algebra, a: dict, b: dict) -> complex:
    return sum((inner_vec(algebra, vec, b[key])
                for key, vec in a.items() if key in b), 0j)


def dict_g_wedge_scalar(F: dict, form: KForm) -> dict:
    out: dict = {}
    for key, vec in F.items():
        for key2, value in form.terms():
            dict_accumulate(out, key + key2, value * vec)
    return out


def dict_gform_complex_components(F: dict) -> dict:
    out: dict = {}
    for key, vec in F.items():
        for sym, coeff in real_key_to_complex(key).items():
            out[sym] = out.get(sym, 0j) + coeff * vec
    return {sym: vec for sym, vec in out.items() if np.any(vec)}


def dict_pairing(F: dict, form: KForm, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    for key, value in form.terms():
        if key in F:
            vec = vec + F[key] * np.conj(value)
    return vec


def _scale(*forms) -> float:
    return 1.0 + float(np.prod([np.linalg.norm(f.matrix) for f in forms]))


@ORACLE_SETTINGS
@given(name=algebras, pq=degree_pairs(), seed=seeds, sparse=st.booleans())
def test_wedge_bracket_matches_dict_route(name, pq, seed, sparse):
    p, q = pq
    phi = _random_gform(name, p, seed, sparse)
    psi = _random_gform(name, q, seed + 1, sparse)
    algebra = ALGEBRAS[name]
    expected = dict_g_wedge_bracket(algebra, as_dict(phi), as_dict(psi))
    got = g_wedge_bracket(phi, psi)
    assert got.degree == p + q
    assert np.allclose(
        got.matrix, dict_to_matrix(expected, p + q, algebra.dim),
        rtol=0, atol=1e-12 * _scale(phi, psi),
    )


@ORACLE_SETTINGS
@given(name=algebras, pq=degree_pairs(), seed=seeds, sparse=st.booleans())
def test_wedge_scalar_matches_dict_route(name, pq, seed, sparse):
    p, q = pq
    F = _random_gform(name, p, seed, sparse)
    form = _random_form(seed + 1, q, sparse)
    expected = dict_g_wedge_scalar(as_dict(F), form)
    got = g_wedge_scalar(F, form)
    assert np.allclose(
        got.matrix, dict_to_matrix(expected, p + q, F.algebra.dim),
        rtol=0, atol=1e-12 * _scale(F) * (1.0 + form.norm()),
    )


@ORACLE_SETTINGS
@given(name=algebras, degree=st.integers(0, 7), seed=seeds,
       sparse=st.booleans())
def test_inner_and_complex_components_match_dict_route(name, degree, seed,
                                                        sparse):
    a = _random_gform(name, degree, seed, sparse)
    b = _random_gform(name, degree, seed + 1, sparse)
    algebra = ALGEBRAS[name]
    expected = dict_g_inner(algebra, as_dict(a), as_dict(b))
    assert abs(g_inner(a, b) - expected) <= (
        1e-12 * _scale(a, b) * algebra.inner_scale
    )
    table = dict_gform_complex_components(as_dict(a))
    got = gform_complex_components(a)
    assert set(got) <= set(table)
    for sym, vec in table.items():
        assert np.allclose(got.get(sym, 0.0), vec, rtol=0,
                           atol=1e-12 * _scale(a))
    back = gform_from_complex_components(algebra, got, degree)
    assert np.allclose(back.matrix, a.matrix, rtol=0, atol=1e-12 * _scale(a))


@ORACLE_SETTINGS
@given(name=algebras, seed=seeds, sparse=st.booleans())
def test_two_form_pairings_match_dict_route(name, seed, sparse):
    F = _random_gform(name, 2, seed, sparse)
    dim = F.algebra.dim
    model = calibrate_model()
    omega = model.omega
    expected = dict_pairing(as_dict(F), omega, dim) / sum(
        abs(value) ** 2 for _, value in omega.terms()
    )
    assert np.allclose(omega_component(F, model), expected, rtol=0,
                       atol=1e-12 * _scale(F))
    family = standard_two_form_families()["w"]
    pairings = np.stack([dict_pairing(as_dict(F), w, dim) for w in family])
    gram = np.array([[np.vdot(v.vector, w.vector) for v in family]
                     for w in family])
    expected = np.linalg.solve(gram, pairings)
    # the w family spans the +1 block, orthogonal to the other blocks, so
    # the block part of F has the same pairings and lies in the span
    plus_one = eigenspace_projectors(model)["8"] @ F.matrix
    got = w_coefficients_from_gform(
        GValuedForm.from_matrix(F.algebra, 2, plus_one)
    )
    assert np.allclose(got, expected, rtol=0, atol=1e-11 * _scale(F))
