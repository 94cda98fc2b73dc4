"""Exterior algebra, Hodge duality, and convention calibration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from artifact.flat_model import (
    HORIZONTAL_INDICES,
    ContactModel,
    KForm,
    REEB_INDEX,
    basis_keys,
    calibrate_model,
    calibration_constants,
    contract_reeb,
    form_inner,
    _CONVENTIONS,
    _calibration_constants,
    _candidate_model,
    _check_candidates,
    _locate,
    _permutation_sign,
    hodge_star,
    standard_two_form_families,
    transverse_star,
    wedge,
)


@pytest.fixture(scope="module")
def model():
    return calibrate_model()


def _inversion_sign(sequence) -> int:
    """Permutation parity by explicit inversion count."""
    inversions = sum(
        1
        for i in range(len(sequence))
        for j in range(i + 1, len(sequence))
        if sequence[i] > sequence[j]
    )
    return -1 if inversions % 2 else 1


def _random_form(rng, degree: int) -> KForm:
    dim = len(basis_keys(degree))
    return KForm.from_vector(
        degree, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    )


# ---------------------------------------------------------------------------
# KForm basics
# ---------------------------------------------------------------------------


def test_vector_round_trip():
    rng = np.random.default_rng(0)
    for degree in range(8):
        form = _random_form(rng, degree)
        back = KForm.from_vector(degree, form.to_vector())
        assert (back - form).norm() == 0.0


def test_coefficient_antisymmetry():
    form = KForm.basis(1, 2)
    assert form.coefficient(1, 2) == 1.0
    assert form.coefficient(2, 1) == -1.0
    assert form.coefficient(1, 1) == 0.0


def test_sort_key_sign_matches_inversion_count():
    # the sign helper behind _locate, which replaced the insertion sort
    # sort_key_sign, against an explicit inversion count
    rng = np.random.default_rng(1)
    for _ in range(200):
        size = rng.integers(1, 6)
        key = tuple(
            int(i) for i in rng.choice(np.arange(1, 8), size=size,
                                       replace=False)
        )
        assert _permutation_sign(key) == _inversion_sign(key)
        position, sign = _locate(len(key), key)
        assert basis_keys(len(key))[position] == tuple(sorted(key))
        assert sign == _inversion_sign(key)


def test_repeated_index_kills_term():
    assert _permutation_sign((3, 3)) == 0
    assert _locate(3, (2, 5, 2)) == (0, 0)
    assert not wedge(KForm.basis(3), KForm.basis(3)).vector.any()


def test_norm_is_coefficientwise():
    form = KForm.basis(1, 2) * (3 + 4j)
    assert form.norm() == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Wedge product
# ---------------------------------------------------------------------------


def test_wedge_associative():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = _random_form(rng, 1)
        b = _random_form(rng, 2)
        c = _random_form(rng, 1)
        lhs = wedge(wedge(a, b), c)
        rhs = wedge(a, wedge(b, c))
        assert (lhs - rhs).norm() <= 1e-12 * max(lhs.norm(), 1.0)


def test_wedge_graded_commutative():
    rng = np.random.default_rng(3)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
        a = _random_form(rng, p)
        b = _random_form(rng, q)
        lhs = wedge(a, b)
        rhs = wedge(b, a) * ((-1.0) ** (p * q))
        assert (lhs - rhs).norm() <= 1e-12 * max(lhs.norm(), 1.0)


def test_wedge_bilinear():
    rng = np.random.default_rng(4)
    a = _random_form(rng, 1)
    b = _random_form(rng, 2)
    c = _random_form(rng, 2)
    lhs = wedge(a, b + c * 2.5)
    rhs = wedge(a, b) + wedge(a, c) * 2.5
    assert (lhs - rhs).norm() <= 1e-12


# ---------------------------------------------------------------------------
# Hodge star against an independent oracle
# ---------------------------------------------------------------------------


def _star_oracle(form: KForm, orientation: int, span=range(1, 8)) -> KForm:
    """Signed-complement star computed with the inversion-count parity.

    ``span`` is the set of indices whose volume form the star refers to:
    all seven for the Hodge star, the horizontal six for the transverse
    star.
    """
    coeffs = {}
    for key, value in form.terms():
        complement = tuple(
            i for i in span if i not in key
        )
        sign = _inversion_sign(key + complement)
        coeffs[complement] = orientation * sign * value
    return KForm(len(span) - form.degree, coeffs)


def test_hodge_star_matches_oracle(model):
    rng = np.random.default_rng(5)
    for degree in range(8):
        form = _random_form(rng, degree)
        lhs = hodge_star(form, model)
        rhs = _star_oracle(form, model.orientation_sign)
        assert (lhs - rhs).norm() == 0.0


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 7), seed=st.integers(0, 2**32 - 1),
       orientation=st.sampled_from((1, -1)))
def test_stars_match_oracle_on_random_forms(degree, seed, orientation):
    calibrated = calibrate_model()
    model = ContactModel(orientation, calibrated.deta, calibrated.phi)
    rng = np.random.default_rng(seed)
    form = _random_form(rng, degree)
    # sparse inputs reach the table rows one at a time
    form.vector[rng.random(form.vector.shape) < 0.5] = 0.0
    assert (hodge_star(form, model)
            - _star_oracle(form, orientation)).norm() == 0.0
    if degree == 7:
        return
    horizontal = KForm(degree, {
        key: value for key, value in form.terms() if REEB_INDEX not in key
    })
    assert (transverse_star(horizontal, model)
            - _star_oracle(horizontal, orientation, HORIZONTAL_INDICES)
            ).norm() == 0.0


def test_hodge_star_involution(model):
    rng = np.random.default_rng(6)
    for degree in range(8):
        form = _random_form(rng, degree)
        twice = hodge_star(hodge_star(form, model), model)
        assert (twice - form).norm() <= 1e-12 * max(form.norm(), 1.0)


def test_hodge_star_defines_inner_product(model):
    rng = np.random.default_rng(7)
    vol_coeff = model.vol.coefficient(*range(1, 8))
    for degree in range(8):
        a = _random_form(rng, degree)
        b = _random_form(rng, degree)
        pairing = wedge(a, hodge_star(b.conjugate(), model))
        assert pairing.degree == 7
        lhs = pairing.coefficient(*range(1, 8)) / vol_coeff
        rhs = form_inner(a, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_inner_product_is_hermitian_dot():
    rng = np.random.default_rng(8)
    a = _random_form(rng, 3)
    b = _random_form(rng, 3)
    assert form_inner(a, b) == pytest.approx(
        np.vdot(b.to_vector(), a.to_vector()), abs=1e-12
    )
    assert a.norm() == pytest.approx(
        float(np.linalg.norm(a.to_vector()))
    )


# ---------------------------------------------------------------------------
# Reeb contraction
# ---------------------------------------------------------------------------


def test_contract_reeb_kills_horizontal(model):
    assert not contract_reeb(KForm.basis(1, 2)).vector.any()
    # e1 ^ e7 contracts to -e1: the vertical leg is pulled across one slot
    assert (
        contract_reeb(KForm.basis(1, REEB_INDEX)) + KForm.basis(1)
    ).norm() == 0.0
    assert (
        contract_reeb(KForm.basis(REEB_INDEX)) - KForm.constant(1.0)
    ).norm() == 0.0


def test_contract_reeb_antiderivation(model):
    rng = np.random.default_rng(9)
    for p, q in ((1, 1), (1, 2), (2, 2), (2, 3)):
        a = _random_form(rng, p)
        b = _random_form(rng, q)
        lhs = contract_reeb(wedge(a, b))
        rhs = wedge(contract_reeb(a), b) + wedge(
            a, contract_reeb(b)
        ) * ((-1.0) ** p)
        assert (lhs - rhs).norm() <= 1e-12 * max(lhs.norm(), 1.0)


def test_contract_reeb_squares_to_zero():
    rng = np.random.default_rng(10)
    form = _random_form(rng, 3)
    assert not contract_reeb(contract_reeb(form)).vector.any()


# ---------------------------------------------------------------------------
# Transverse star
# ---------------------------------------------------------------------------


def test_transverse_star_rejects_vertical(model):
    with pytest.raises(ValueError):
        transverse_star(KForm.basis(1, REEB_INDEX), model)


def test_transverse_star_double_star_signs(model):
    rng = np.random.default_rng(11)
    for degree in range(7):
        keys = [
            k
            for k in basis_keys(degree)
            if REEB_INDEX not in k
        ]
        if not keys:
            continue
        coeffs = rng.standard_normal(len(keys))
        form = KForm(degree, dict(zip(keys, coeffs)))
        twice = transverse_star(transverse_star(form, model), model)
        expected = form * ((-1.0) ** (degree * (6 - degree)))
        assert (twice - expected).norm() <= 1e-12 * max(form.norm(), 1.0)


def test_transverse_star_of_contact_form(model):
    omega = model.omega
    half_square = wedge(omega, omega) * 0.5
    scale = calibration_constants(model)["transverse_star_omega_scale"]
    assert scale == pytest.approx(-1.0)
    lhs = transverse_star(omega, model)
    assert (lhs - half_square * scale).norm() <= 1e-12


def test_horizontal_volume_from_reeb_contraction(model):
    horizontal_vol = contract_reeb(wedge(model.eta, *(
        KForm.basis(i) for i in HORIZONTAL_INDICES
    )))
    assert (
        horizontal_vol - wedge(*(KForm.basis(i) for i in HORIZONTAL_INDICES))
    ).norm() == 0.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


def test_unique_survivor():
    model = calibrate_model()
    rows = _check_candidates([_candidate_model(*c) for c in _CONVENTIONS])
    accepted = [row["label"] for row in rows if row["accepted"]]
    assert accepted == [model.label]
    assert len(rows) == 24


def test_calibrated_signature(model):
    assert model.signature() == (1, -1.0, -1)
    assert model.orientation_sign == 1
    assert model.deta_coefficient == -1.0
    assert model.phi_sign == -1


def test_calibrated_contact_form(model):
    expected = (
        KForm.basis(1, 2) + KForm.basis(3, 4) + KForm.basis(5, 6)
    ) * (-1.0)
    assert (model.deta - expected).norm() == 0.0
    assert (model.omega - expected).norm() == 0.0
    assert model.omega.norm() == pytest.approx(np.sqrt(3.0))


def test_calibrated_model_is_read_only(model):
    with pytest.raises(ValueError):
        model.phi[1, 0] = 0.0
    with pytest.raises(ValueError):
        model.deta.vector[0] = 1.0
    assert model.signature() == (1, -1.0, -1)


def test_calibration_runs_once_and_matches_a_fresh_search():
    shared = calibrate_model()
    assert calibrate_model() is shared
    fresh = calibrate_model.__wrapped__()
    assert fresh is not shared
    assert fresh.label == shared.label
    assert fresh.orientation_sign == shared.orientation_sign
    assert np.array_equal(fresh.deta.vector, shared.deta.vector)
    assert np.array_equal(fresh.phi, shared.phi)


def test_model_keeps_its_own_arrays():
    phi = np.zeros((7, 7))
    deta = KForm.basis(1, 2)
    model = ContactModel(1, deta, phi)
    assert not np.shares_memory(model.phi, phi)
    assert not np.shares_memory(model.deta.vector, deta.vector)
    assert phi.flags.writeable and deta.vector.flags.writeable


def test_form_arithmetic_returns_fresh_arrays(model):
    a = model.deta
    results = (
        a + a, a - a, -a, 2.0 * a, a * 1j, a.conjugate(), a.copy(),
        model.omega, wedge(a), KForm.from_vector(2, a.vector),
    )
    for out in results:
        assert not np.shares_memory(out.vector, a.vector)
        out.vector[0] = 1.0
    assert a.vector[0] == -1.0
    assert not np.shares_memory(a.to_vector(), a.vector)


def test_calibrated_volume_positive(model):
    assert model.vol.coefficient(*range(1, 8)) == 1.0


def test_frozen_constants(model):
    constants = calibration_constants(model)
    assert constants["orientation_sign"] == 1
    assert constants["deta_coefficient"] == -1.0
    assert constants["phi_sign"] == -1
    assert constants["transverse_metric_ratio"] == pytest.approx(0.5)
    assert constants["volume_ratio"] == pytest.approx(-0.75)
    assert constants["transverse_star_omega_scale"] == pytest.approx(-1.0)
    signs = constants["transverse_double_star_signs"]
    for degree in range(7):
        assert signs[degree] == (-1) ** (degree * (6 - degree))


def test_constants_computed_once_and_handed_out_fresh(model):
    first = calibration_constants(model)
    second = calibration_constants(model)
    assert _calibration_constants(model) is _calibration_constants(model)
    # plain dicts, nested one included, never the cached mapping
    for constants in (first, second):
        assert type(constants) is dict
        assert type(constants["transverse_double_star_signs"]) is dict
    assert first is not second
    assert first["transverse_double_star_signs"] is not (
        second["transverse_double_star_signs"]
    )
    fresh = _calibration_constants.__wrapped__(model)
    assert first == dict(fresh)
    assert first["transverse_double_star_signs"] == dict(
        fresh["transverse_double_star_signs"]
    )
    # a caller's change stays in its copy
    first["volume_ratio"] = 0.0
    first["transverse_double_star_signs"][0] = 0
    assert calibration_constants(model) == second


def test_transverse_metric_is_half_identity(model):
    gram = model.transverse_gram()
    assert np.max(np.abs(gram - 0.5 * np.eye(6))) <= 1e-12


def test_complex_coframe_eigenvectors(model):
    # dz^j = e^{2j-1} - i e^{2j} is a +i eigenvector of the pullback
    # a -> a o Phi, whose matrix on 1-forms is phi transposed
    for j in (1, 2, 3):
        dz = KForm.basis(2 * j - 1) - 1j * KForm.basis(2 * j)
        image = model.phi.T @ dz.vector
        assert np.max(np.abs(image - 1j * dz.vector)) <= 1e-12


# ---------------------------------------------------------------------------
# Standard two-form families (frozen expansions)
# ---------------------------------------------------------------------------

_W_EXPECTED = {
    1: (((1, 3), 1.0), ((2, 4), 1.0)),
    2: (((2, 3), 1.0), ((1, 4), -1.0)),
    3: (((1, 5), 1.0), ((2, 6), 1.0)),
    4: (((2, 5), 1.0), ((1, 6), -1.0)),
    5: (((3, 5), 1.0), ((4, 6), 1.0)),
    6: (((4, 5), 1.0), ((3, 6), -1.0)),
    7: (((5, 6), 1.0), ((1, 2), -1.0)),
    8: (((5, 6), 1.0), ((3, 4), -1.0)),
}

_V_EXPECTED = {
    1: (((1, 3), 1.0), ((2, 4), -1.0)),
    2: (((1, 4), -1.0), ((2, 3), -1.0)),
    3: (((1, 5), 1.0), ((2, 6), -1.0)),
    4: (((1, 6), -1.0), ((2, 5), -1.0)),
    5: (((3, 5), 1.0), ((4, 6), -1.0)),
    6: (((3, 6), -1.0), ((4, 5), -1.0)),
}


def test_frozen_w_family():
    families = standard_two_form_families()
    assert len(families["w"]) == 8
    for index, terms in _W_EXPECTED.items():
        expected = KForm(2, dict(terms))
        assert (families["w"][index - 1] - expected).norm() == 0.0


def test_frozen_v_family():
    families = standard_two_form_families()
    assert len(families["v"]) == 6
    for index, terms in _V_EXPECTED.items():
        expected = KForm(2, dict(terms))
        assert (families["v"][index - 1] - expected).norm() == 0.0


def test_family_norms_and_overlaps():
    families = standard_two_form_families()
    for form in families["w"] + families["v"]:
        assert form.norm() == pytest.approx(np.sqrt(2.0))
    overlap = form_inner(families["w"][6], families["w"][7])
    assert overlap == pytest.approx(1.0)
    v = families["v"]
    for i in range(6):
        for j in range(i + 1, 6):
            assert form_inner(v[i], v[j]) == pytest.approx(0.0, abs=1e-14)
