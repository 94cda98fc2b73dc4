"""The table-driven exterior-algebra kernel against independent routes.

Two oracles stand beside the dense kernel of ``flat_model``:

* the determinant route ``KForm.evaluate``, which never touches the wedge
  tables: a wedge product evaluated on tangent vectors must equal the
  signed shuffle sum of its factors' values;
* the dict-of-tuples route below, the exterior algebra the package used
  before its forms became dense.  It sorts index tuples one term at a
  time, and the calibration search is repeated on it candidate by
  candidate.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.flat_model import (
    PLANES,
    REEB_INDEX,
    ContactModel,
    KForm,
    basis_keys,
    calibrate_model,
    contract_reeb,
    hodge_star,
    left_wedge_matrix,
    mixing_matrix,
    sort_key_sign,
    wedge,
)

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
    _, report = calibrate_model(with_report=True)
    expected = [dict_check_candidate(*c) for c in CONVENTIONS]
    assert report["candidates"] == expected
    assert report["accepted"] == ["sigma=1,kappa=-1.0,s=-1"]


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

def _shuffle_value(a: KForm, b: KForm, vectors) -> complex:
    """Sum over (p, q)-shuffles of sign * a(first p) * b(last q)."""
    p = a.degree
    total = 0j
    for first in itertools.combinations(range(len(vectors)), p):
        rest = tuple(i for i in range(len(vectors)) if i not in first)
        _, sign = sort_key_sign(first + rest)
        total += (
            sign
            * a.evaluate(*(vectors[i] for i in first))
            * b.evaluate(*(vectors[i] for i in rest))
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
    lhs = wedge(a, b).evaluate(*vectors)
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
    assert np.allclose(image, wedge(a, b).vector, rtol=0, atol=1e-12)


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
