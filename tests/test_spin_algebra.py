"""Spin-1 matrices, six-component spinors, helicity bases, decomposition."""

import inspect
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from transpin import (DomainError, RepresentationError, SixSpinor,
                      analytic_spin_surface, build_spin_matrices,
                      commutator_table, decompose_polarization,
                      generator_closure_rank, helicity_eigensystem,
                      load_reference_commutator_table, surface_field_phasor,
                      to_chiral, to_standard)
from transpin import spin_algebra
from transpin.spin_algebra import LEVI_CIVITA, _GENERATOR_LABELS, _generator_basis

S2 = math.sqrt(2.0)

# the three spin-1 matrices written out longhand, (tau_k)_lm = -i eps_klm
TAU_X = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
TAU_Y = np.array([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]])
TAU_Z = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])


def test_spin_matrices_entrywise():
    sms = build_spin_matrices()
    assert_allclose(sms.tau[0], TAU_X, atol=0)
    assert_allclose(sms.tau[1], TAU_Y, atol=0)
    assert_allclose(sms.tau[2], TAU_Z, atol=0)


def test_spin_commutation_relations():
    sms = build_spin_matrices()
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    for i in range(3):
        for j in range(3):
            bracket = sms.tau[i] @ sms.tau[j] - sms.tau[j] @ sms.tau[i]
            expected = 1j * sum(eps[i, j, k] * sms.tau[k] for k in range(3))
            assert_allclose(bracket, expected, atol=1e-15)


def test_casimir_values():
    sms = build_spin_matrices()
    assert_allclose(sum(t @ t for t in sms.tau), 2.0 * np.eye(3), atol=1e-15)
    assert_allclose(sum(s @ s for s in sms.Sigma), 2.0 * np.eye(6), atol=1e-15)


def test_block_structure_of_six_dimensional_matrices():
    sms = build_spin_matrices()
    zero = np.zeros((3, 3))
    for k in range(3):
        assert_allclose(sms.Sigma[k][:3, :3], sms.tau[k], atol=0)
        assert_allclose(sms.Sigma[k][3:, 3:], sms.tau[k], atol=0)
        assert_allclose(sms.Sigma[k][:3, 3:], zero, atol=0)
        assert_allclose(sms.alpha[k][:3, 3:], sms.tau[k], atol=0)
        assert_allclose(sms.alpha[k][:3, :3], zero, atol=0)


def test_basis_change_matrix_is_involutive_unitary():
    U = build_spin_matrices().U
    assert_allclose(U @ U, np.eye(6), atol=1e-15)
    assert_allclose(U @ U.conj().T, np.eye(6), atol=1e-15)
    assert_allclose(U, U.T, atol=0)


def test_generator_antisymmetry_and_boost_blocks():
    sms = build_spin_matrices()
    assert_allclose(sms.S, -np.swapaxes(sms.S, 0, 1), atol=0)
    for l in range(1, 4):
        assert_allclose(sms.S[0, l], -1j * sms.alpha[l - 1], atol=0)
        assert_allclose(sms.S[l, 0], 1j * sms.alpha[l - 1], atol=0)
    # rotation block: S_12 = Sigma_3 etc.
    assert_allclose(sms.S[1, 2], sms.Sigma[2], atol=0)
    assert_allclose(sms.S[2, 3], sms.Sigma[0], atol=0)
    assert_allclose(sms.S[3, 1], sms.Sigma[1], atol=0)


def test_spin_matrices_are_one_shared_read_only_set():
    sms = build_spin_matrices()
    assert build_spin_matrices() is sms
    # a fresh construction from the Levi-Civita symbol, longhand
    tau = -1j * LEVI_CIVITA
    Sigma = np.stack([np.kron(np.eye(2), tau[k]) for k in range(3)])
    alpha = np.stack([np.kron([[0.0, 1.0], [1.0, 0.0]], tau[k]) for k in range(3)])
    S = np.zeros((4, 4, 6, 6), dtype=complex)
    for l, m, n in itertools.product(range(3), repeat=3):
        if LEVI_CIVITA[l, m, n] != 0.0:
            S[l + 1, m + 1] += LEVI_CIVITA[l, m, n] * Sigma[n]
    for l in range(3):
        S[0, l + 1] = -1j * alpha[l]
        S[l + 1, 0] = 1j * alpha[l]
    U = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / S2, np.eye(3))
    for name, fresh in [("tau", tau), ("Sigma", Sigma), ("alpha", alpha), ("S", S), ("U", U)]:
        shared = getattr(sms, name)
        with pytest.raises(ValueError, match="read-only"):
            shared[(0,) * shared.ndim] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            shared *= 2.0
        assert shared.dtype == fresh.dtype and shared.shape == fresh.shape, name
        assert shared.tobytes() == fresh.tobytes(), name


def test_commutators_close_with_gaussian_integer_coefficients():
    table = commutator_table()
    assert table.pop("residual") <= 1e-12
    for pair, expansion in table.items():
        assert len(pair.split(",")) == 2
        for coeff in expansion.values():
            re, im = coeff
            assert re == round(re) and im == round(im)
            assert (re, im) != (0.0, 0.0)
    # spot checks: a boost-boost bracket is a rotation, with the sign
    # that encodes Thomas precession
    assert table["S01,S02"] == {"S12": [0.0, -1.0]}
    assert table["S12,S13"] == {"S23": [0.0, 1.0]}


def test_frozen_commutator_fixture_is_reproducible():
    reference = load_reference_commutator_table()
    fresh = commutator_table()
    fresh_residual = fresh.pop("residual")
    ref_residual = reference.pop("residual")
    assert fresh == reference
    # the same text too, so no part of a coefficient is a -0.0
    assert json.dumps(fresh) == json.dumps(reference)
    assert fresh_residual <= 1e-12 and ref_residual <= 1e-12


def test_commutator_table_equals_the_per_bracket_solves():
    # one least-squares solve per bracket, as the table was first built
    basis = _generator_basis()
    stack = np.stack([basis[k].ravel() for k in _GENERATOR_LABELS], axis=1)
    worst = 0.0
    for left in _GENERATOR_LABELS:
        for right in _GENERATOR_LABELS:
            if left != right:
                bracket = (basis[left] @ basis[right] - basis[right] @ basis[left]).ravel()
                coeff, *_ = np.linalg.lstsq(stack, bracket, rcond=None)
                worst = max(worst, float(np.max(np.abs(stack @ coeff - bracket))))
    table = commutator_table()
    assert repr(table.pop("residual")) == repr(worst)
    reference = load_reference_commutator_table()
    reference.pop("residual")
    assert table == reference


def test_a_negative_zero_part_is_written_as_zero(monkeypatch):
    # a solver that returns -0.0 for every zero part must not change the table's text
    lstsq = np.linalg.lstsq

    def signed_zeros(*args, **kwargs):
        coeffs, *rest = lstsq(*args, **kwargs)
        parts = [np.where(part == 0.0, -0.0, part) for part in (coeffs.real, coeffs.imag)]
        return (parts[0] + 1j * parts[1], *rest)

    reference = load_reference_commutator_table()
    reference.pop("residual")
    monkeypatch.setattr(np.linalg, "lstsq", signed_zeros)
    table = commutator_table()
    table.pop("residual")
    assert json.dumps(table) == json.dumps(reference)


@pytest.mark.parametrize("label, scale, pair, coefficient", [
    # with S01 doubled every [S01, .] bracket still expands in Gaussian integers;
    # [S02,S12] = i S01 is the first bracket, in pair order, that does not
    ("S01", 2.0, "S02,S12", complex(0.0, 0.5)),
    ("S23", 0.5, "S02,S23", complex(0.0, -0.5)),
])
def test_a_broken_generator_names_the_first_bad_coefficient(label, scale, pair, coefficient,
                                                             monkeypatch):
    basis = _generator_basis()

    def scaled():
        return {**basis, label: scale * basis[label]}

    monkeypatch.setattr(spin_algebra, "_generator_basis", scaled)
    with pytest.raises(AssertionError) as raised:
        commutator_table()
    assert str(raised.value) == (
        f"[{pair}] coefficient {np.complex128(coefficient)!r} is not a Gaussian integer")


def test_six_generators_are_linearly_independent():
    assert generator_closure_rank() == 6


def test_algebra_closure_functions_take_no_parameters():
    for func in (commutator_table, generator_closure_rank):
        assert not inspect.signature(func).parameters


# ---------------------------------------------------------------------------
# six-component spinors


def test_spinor_representations_round_trip():
    rng = np.random.default_rng(41)
    E = rng.normal(size=3) + 1j * rng.normal(size=3)
    B = rng.normal(size=3) + 1j * rng.normal(size=3)
    std = SixSpinor.standard_from_fields(E, B)
    chi = SixSpinor.chiral_from_fields(E, B)
    assert_allclose(to_chiral(std).values, chi.values, atol=1e-15)
    assert_allclose(to_standard(chi).values, std.values, atol=1e-15)
    assert_allclose(np.linalg.norm(std.values), np.linalg.norm(chi.values),
                    rtol=1e-15)


def test_spinor_rejects_unknown_representation():
    with pytest.raises(RepresentationError):
        SixSpinor(np.zeros(6, dtype=complex), representation="helicity")


def test_conversion_requires_matching_representation():
    std = SixSpinor.standard_from_fields(np.ones(3), np.ones(3))
    with pytest.raises(RepresentationError):
        to_standard(std)  # already standard
    chi = SixSpinor.chiral_from_fields(np.ones(3), np.ones(3))
    with pytest.raises(RepresentationError):
        to_chiral(chi)  # already chiral


# ---------------------------------------------------------------------------
# helicity bases


def test_axis_eigenvectors_match_reference_forms():
    # +z
    basis = helicity_eigensystem(np.array([0.0, 0.0, 1.0]))
    _assert_same_ray(basis.e_plus, np.array([1.0, 1j, 0.0]) / S2)
    _assert_same_ray(basis.e_minus, np.array([1.0, -1j, 0.0]) / S2)
    assert_allclose(basis.e_zero, [0.0, 0.0, 1.0], atol=1e-15)
    # +x
    basis = helicity_eigensystem(np.array([1.0, 0.0, 0.0]))
    _assert_same_ray(basis.e_plus, np.array([0.0, 1j, -1.0]) / S2)
    _assert_same_ray(basis.e_minus, np.array([0.0, 1j, 1.0]) / S2)
    # +y
    basis = helicity_eigensystem(np.array([0.0, 1.0, 0.0]))
    _assert_same_ray(basis.e_plus, np.array([1.0, 0.0, -1j]) / S2)
    _assert_same_ray(basis.e_minus, np.array([1.0, 0.0, 1j]) / S2)


def _assert_same_ray(got, expected):
    overlap = abs(np.vdot(expected, got))
    assert_allclose(overlap, 1.0, atol=1e-13)


def test_eigensystem_on_south_pole_and_near_pole_directions():
    sms = build_spin_matrices()
    directions = [np.array([0.0, 0.0, -1.0]),
                  np.array([1e-12, -1e-12, math.sqrt(1.0 - 2e-24)]),
                  np.array([1e-12, 1e-12, -math.sqrt(1.0 - 2e-24)])]
    for n in directions:
        basis = helicity_eigensystem(n)
        matrix = np.einsum("k,kab->ab", n, sms.tau)
        for lam in (1, 0, -1):
            e = basis.vector(lam)
            assert np.max(np.abs(matrix @ e - lam * e)) <= 1e-13
            assert abs(np.linalg.norm(e) - 1.0) <= 1e-13
        assert_allclose(basis.e_zero, n, atol=1e-15)
        assert_allclose(basis.e_minus, np.conj(basis.e_plus), atol=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
       .filter(lambda v: 1e-6 < v[0] ** 2 + v[1] ** 2 + v[2] ** 2 <= 1.0))
def test_eigensystem_property(v):
    n = np.array(v) / np.linalg.norm(v)
    sms = build_spin_matrices()
    matrix = np.einsum("k,kab->ab", n, sms.tau)
    basis = helicity_eigensystem(n)
    for lam in (1, 0, -1):
        e = basis.vector(lam)
        assert np.max(np.abs(matrix @ e - lam * e)) <= 1e-13
    # the three vectors form an orthonormal triad
    G = np.stack([basis.e_plus, basis.e_zero, basis.e_minus])
    assert_allclose(G @ G.conj().T, np.eye(3), atol=1e-13)


def test_eigensystem_rejects_non_unit_directions():
    with pytest.raises(DomainError):
        helicity_eigensystem(np.array([0.0, 0.0, 2.0]))


def _batch_directions():
    """Mixed hemispheres, the exact poles and rows within 1e-9 of either pole."""
    rng = np.random.default_rng(53)
    dirs = rng.normal(size=(200, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    t = rng.uniform(0.0, 1e-9, 8)
    ph = rng.uniform(0.0, 2.0 * math.pi, 8)
    near = [np.stack([t * np.cos(ph), t * np.sin(ph), sign * np.sqrt(1.0 - t * t)],
                     axis=1) for sign in (1.0, -1.0)]
    poles = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [-0.0, -0.0, -1.0],
             [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]
    return np.vstack([dirs, *near, poles])


def test_batched_eigensystem_equals_per_row_calls_bit_for_bit():
    dirs = _batch_directions()
    batch = helicity_eigensystem(dirs)
    assert batch.e_plus.shape == batch.e_zero.shape == batch.e_minus.shape == dirs.shape
    for i, n in enumerate(dirs):
        single = helicity_eigensystem(n)
        assert single.e_plus.shape == (3,)
        for name in ("e_plus", "e_zero", "e_minus"):
            got, want = getattr(batch, name)[i], getattr(single, name)
            assert got.tobytes() == want.tobytes(), (i, name)
    # leading axes are only a batch: a (2, 110, 3) stack gives the same rows
    stacked = helicity_eigensystem(dirs[:220].reshape(2, 110, 3))
    assert stacked.e_plus.reshape(-1, 3).tobytes() == batch.e_plus[:220].tobytes()


def test_batched_eigensystem_keeps_the_pole_vectors():
    batch = helicity_eigensystem(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    assert batch.e_plus.tolist() == [[1 / S2, 1j / S2, 0.0], [1 / S2, -1j / S2, 0.0]]


@pytest.mark.parametrize("shape", [(3, 2), (2,), (4,), ()])
def test_batched_eigensystem_rejects_a_bad_trailing_shape(shape):
    with pytest.raises(DomainError, match=r"\(\.\.\., 3\)"):
        helicity_eigensystem(np.ones(shape))


@pytest.mark.parametrize("bad", [[0.0, 0.0, 1.0 + 1e-9], [0.0, 0.0, 0.0],
                                 [math.nan, 0.0, 1.0]])
def test_batched_eigensystem_names_the_non_unit_row(bad):
    dirs = _batch_directions()
    dirs[7] = bad
    with pytest.raises(DomainError, match=r"index \(7,\)"):
        helicity_eigensystem(dirs)
    with pytest.raises(DomainError, match=r"index \(1, 2\)"):
        helicity_eigensystem(dirs[:10].reshape(2, 5, 3))


def test_decomposition_needs_a_single_direction():
    with pytest.raises(DomainError):
        decompose_polarization(np.ones(3), np.eye(3))


# ---------------------------------------------------------------------------
# polarization decomposition


def test_decomposition_reconstructs_the_vector():
    rng = np.random.default_rng(43)
    for _ in range(5):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        basis = helicity_eigensystem(n)
        coeffs = decompose_polarization(v, basis)
        assert_allclose(coeffs.reconstruct(basis), v, atol=1e-13)


def test_circular_imbalance_is_spin_projection():
    # <v| tau.n |v> equals |c_+|^2 - |c_-|^2 in the helicity basis of n
    rng = np.random.default_rng(47)
    sms = build_spin_matrices()
    for _ in range(5):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        coeffs = decompose_polarization(v, n)
        matrix = np.einsum("k,kab->ab", n, sms.tau)
        expected = float(np.real(np.vdot(v, matrix @ v)))
        assert_allclose(coeffs.circular_imbalance(), expected, rtol=1e-12)


def test_surface_field_decomposes_as_a_transverse_circulation(make_surface):
    """The TM evanescent electric field is elliptical in the x-z plane:
    decomposition about +y shows the circular imbalance (with the sign of
    the local spin), while decompositions about +x and +z stay balanced."""
    for direction in (+1, -1):
        spec = make_surface("TM", direction=direction)
        field = surface_field_phasor(spec, (0.3 / spec.kappa, 0.0, 0.0))
        E = np.asarray(field.E)
        s_y = float(analytic_spin_surface(spec, 0.3 / spec.kappa).s_e[..., 1])
        along_y = decompose_polarization(E, np.array([0.0, 1.0, 0.0]))
        assert along_y.circular_imbalance() * s_y > 0.0
        assert abs(along_y.c_zero) <= 1e-15 * np.linalg.norm(E)  # E_y = 0
        for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])):
            coeffs = decompose_polarization(E, axis)
            assert abs(coeffs.circular_imbalance()) <= 1e-15 * np.sum(np.abs(E) ** 2)
