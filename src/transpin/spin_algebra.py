"""Spin-1 matrix algebra, six-spinor representations and helicity bases.

The photon-spin generators are the adjoint-representation matrices
``(tau_k)_{lm} = -i eps_{klm}`` obeying ``[tau_i, tau_j] = i eps_{ijk}
tau_k`` and ``tau.tau = 2 I`` (spin s = 1).  Doubling them produces the
6 x 6 blocks used with six-spinors::

    Sigma_k = diag(tau_k, tau_k)        alpha_k = offdiag(tau_k, tau_k)

and an antisymmetric tensor of generators ``S_{lm} = eps_{lmn} Sigma_n``,
``S_{0l} = -i alpha_l`` that closes into the Lorentz algebra so(1,3)
(brute-force structure constants are frozen in ``data/commutator_table.json``).

Six-spinors come in two unitarily equivalent representations::

    standard  psi = (E, iB)/sqrt(2)
    chiral    psi = ((E + iB), (E - iB))/2

related by the involutive block-Hadamard matrix ``U``.

For any unit vector ``n`` the matrix ``tau.n`` has eigenvalues {+1, 0, -1}
with eigenvectors ``(e_+1, e_0 = n, e_-1 = conj(e_+1))`` -- the circular
polarization basis about ``n``.  The eigenvectors are built by rotating the
closed-form pole basis ``(1, +/- i, 0)/sqrt(2)`` from the nearer pole onto
``n`` (Rodrigues formula), which is exact, smooth on each hemisphere and
immune to the coordinate singularity that a component-ratio formula for
generic ``n`` develops where ``n_1 - i n_2 -> 0``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError, RepresentationError

__all__ = [
    "SpinMatrixSet",
    "SixSpinor",
    "HelicityEigensystem",
    "PolarizationCoefficients",
    "build_spin_matrices",
    "to_chiral",
    "to_standard",
    "helicity_eigensystem",
    "decompose_polarization",
    "commutator_table",
    "load_reference_commutator_table",
    "generator_closure_rank",
]

_SQRT2 = np.sqrt(2.0)
_EYE = np.eye(3)
#: standard <-> chiral basis change, the block-Hadamard matrix (module docstring)
_U = np.kron(np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2, _EYE)
_U.flags.writeable = False

#: Levi-Civita symbol eps[i, j, k]
LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_i, _k, _j] = -1.0


@dataclass(frozen=True)
class SpinMatrixSet:
    """The full matrix toolkit; see module docstring for definitions.

    Attributes
    ----------
    tau : (3, 3, 3) complex
        ``tau[k]`` is the spin-1 generator about axis k.
    Sigma, alpha : (3, 6, 6) complex
        Block-diagonal and block-antidiagonal doublings.
    S : (4, 4, 6, 6) complex
        Antisymmetric generator tensor ``S[mu, nu]``.
    U : (6, 6) float
        Standard <-> chiral basis change; ``U = U^dagger = U^{-1}``.
    """

    tau: np.ndarray
    Sigma: np.ndarray
    alpha: np.ndarray
    S: np.ndarray
    U: np.ndarray


def _construct_spin_matrices() -> SpinMatrixSet:
    """Construct all spin matrices from the Levi-Civita symbol, read-only."""
    tau = -1j * LEVI_CIVITA
    eye2 = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    Sigma = np.stack([np.kron(eye2, tau[k]) for k in range(3)])
    alpha = np.stack([np.kron(swap, tau[k]) for k in range(3)])

    S = np.zeros((4, 4, 6, 6), dtype=complex)
    for l in range(1, 4):
        for m in range(1, 4):
            for n in range(1, 4):
                if LEVI_CIVITA[l - 1, m - 1, n - 1] != 0.0:
                    S[l, m] += LEVI_CIVITA[l - 1, m - 1, n - 1] * Sigma[n - 1]
    for l in range(1, 4):
        S[0, l] = -1j * alpha[l - 1]
        S[l, 0] = 1j * alpha[l - 1]

    for array in (tau, Sigma, alpha, S):
        array.flags.writeable = False
    return SpinMatrixSet(tau=tau, Sigma=Sigma, alpha=alpha, S=S, U=_U)


_SPIN_MATRICES = _construct_spin_matrices()


def build_spin_matrices() -> SpinMatrixSet:
    """The spin matrices, built once at import from the Levi-Civita symbol.

    Every call returns the same shared set; its arrays are read-only, so
    writing to one raises ``ValueError`` instead of changing the matrices
    every other caller sees.
    """
    return _SPIN_MATRICES


# --------------------------------------------------------------------------
# six-spinors


@dataclass(frozen=True)
class SixSpinor:
    """A six-component field spinor with an explicit representation tag."""

    values: np.ndarray
    representation: str  # "standard" or "chiral"

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (6,):
            raise ValueError(f"six-spinor needs shape (6,), got {values.shape}")
        if self.representation not in ("standard", "chiral"):
            raise RepresentationError(
                f"unknown representation {self.representation!r}")
        object.__setattr__(self, "values", values)

    @classmethod
    def standard_from_fields(cls, E, B) -> "SixSpinor":
        """``psi = (E, iB)/sqrt(2)``."""
        E = np.asarray(E, dtype=complex)
        B = np.asarray(B, dtype=complex)
        return cls(np.concatenate([E, 1j * B]) / _SQRT2, "standard")

    @classmethod
    def chiral_from_fields(cls, E, B) -> "SixSpinor":
        """``psi = ((E + iB), (E - iB))/2``."""
        E = np.asarray(E, dtype=complex)
        B = np.asarray(B, dtype=complex)
        return cls(np.concatenate([E + 1j * B, E - 1j * B]) / 2.0, "chiral")


def _basis_change(psi: SixSpinor, source: str, target: str) -> SixSpinor:
    if psi.representation != source:
        raise RepresentationError(
            f"expected a {source} six-spinor, got {psi.representation!r}")
    return SixSpinor(_U @ psi.values, target)


def to_chiral(psi: SixSpinor) -> SixSpinor:
    """Map a standard six-spinor to the chiral representation (apply U)."""
    return _basis_change(psi, "standard", "chiral")


def to_standard(psi: SixSpinor) -> SixSpinor:
    """Map a chiral six-spinor back to the standard representation."""
    return _basis_change(psi, "chiral", "standard")


# --------------------------------------------------------------------------
# helicity eigensystem


@dataclass(frozen=True)
class HelicityEigensystem:
    """Orthonormal circular basis about ``direction``: ``(tau.n) e_lam = lam e_lam``."""

    direction: np.ndarray
    e_plus: np.ndarray
    e_zero: np.ndarray
    e_minus: np.ndarray

    def vector(self, lam: int) -> np.ndarray:
        try:
            return {+1: self.e_plus, 0: self.e_zero, -1: self.e_minus}[lam]
        except KeyError:
            raise ValueError(f"helicity must be +1, 0 or -1, got {lam!r}") from None


def helicity_eigensystem(n) -> HelicityEigensystem:
    """Circular polarization basis about the unit vector(s) ``n``.

    ``n`` has shape ``(..., 3)``, one direction per row, and every returned
    vector has the shape of ``n``: a ``(3,)`` direction gives ``(3,)``
    vectors, an ``(N, 3)`` batch gives ``(N, 3)`` ones.  Each row goes
    through the same per-row arithmetic, so a batch equals the per-row calls
    bit for bit.  A row whose norm is not 1 to within 1e-12 raises
    :class:`DomainError` naming its index.

    Convention: at the north pole ``e_+1 = (1, i, 0)/sqrt(2)``; at the south
    pole its complex conjugate.  Directions in each hemisphere inherit the
    nearer pole's vector through the rotation that carries that pole onto
    ``n`` about the axis ``pole x n`` (Rodrigues); a direction within 1e-15
    of its pole keeps the pole's vector.  ``e_0 = n`` exactly and ``e_-1 =
    conj(e_+1)``, so eigen-residuals stay at rounding level (~1e-16) for all
    directions, including within 1e-8 of either pole.
    """
    n = np.asarray(n, dtype=float)
    if n.ndim == 0 or n.shape[-1] != 3:
        raise DomainError(f"direction needs shape (..., 3), got {n.shape}")
    norm = np.sqrt(np.vecdot(n, n))
    bad = ~(np.abs(norm - 1.0) <= 1e-12)
    if np.any(bad):
        row = tuple(int(i) for i in np.argwhere(bad)[0])
        where = f" at index {row}" if row else ""
        raise DomainError(f"direction{where} must be a unit vector, "
                          f"|n| = {float(norm[row])!r}")

    sign = np.where(n[..., 2] >= 0.0, 1.0, -1.0)[..., None]
    pole = sign * _EYE[2]
    base = (_EYE[0] + 1j * sign * _EYE[1]) / _SQRT2

    axis = np.cross(pole, n)
    # vecdot rounds as np.dot does, which keeps e_+1 bit-identical to the
    # single-direction np.dot form; a sum over the last axis moves ~8% of rows
    sin_t = np.sqrt(np.vecdot(axis, axis))
    cos_t = np.vecdot(pole, n)
    at_pole = sin_t < 1e-15
    u = axis / np.where(at_pole, 1.0, sin_t)[..., None]
    K = np.cross(_EYE, u[..., None, :])  # K @ v = u x v
    R = (_EYE + sin_t[..., None, None] * K
         + (1.0 - cos_t)[..., None, None] * (K @ K))
    e_plus = np.where(at_pole[..., None], base,
                      np.einsum("...ij,...j->...i", R, base))
    return HelicityEigensystem(direction=n, e_plus=e_plus,
                               e_zero=n.astype(complex), e_minus=np.conj(e_plus))


@dataclass(frozen=True)
class PolarizationCoefficients:
    """Projections ``c_lam = <e_lam, v>`` (first slot conjugated)."""

    c_plus: complex
    c_zero: complex
    c_minus: complex

    def reconstruct(self, basis: HelicityEigensystem) -> np.ndarray:
        return (self.c_plus * basis.e_plus + self.c_zero * basis.e_zero
                + self.c_minus * basis.e_minus)

    def circular_imbalance(self) -> float:
        """``|c_+1|^2 - |c_-1|^2``; the spin expectation along the axis."""
        return float(abs(self.c_plus) ** 2 - abs(self.c_minus) ** 2)


def decompose_polarization(vec, n) -> PolarizationCoefficients:
    """Decompose a complex 3-vector in the circular basis about ``n``.

    ``n`` may be a direction or a prebuilt :class:`HelicityEigensystem`.
    Individual coefficient phases depend on the basis phase convention; only
    ``|c_lam|`` and the imbalance ``|c_+1|^2 - |c_-1|^2`` are convention-free.
    """
    basis = n if isinstance(n, HelicityEigensystem) else helicity_eigensystem(n)
    if basis.e_plus.shape != (3,):
        raise DomainError(
            f"decomposition needs one direction, got shape {basis.direction.shape}")
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {vec.shape}")
    return PolarizationCoefficients(
        c_plus=complex(np.vdot(basis.e_plus, vec)),
        c_zero=complex(np.vdot(basis.e_zero, vec)),
        c_minus=complex(np.vdot(basis.e_minus, vec)),
    )


# --------------------------------------------------------------------------
# commutator table / algebra closure

_GENERATOR_LABELS = ("S01", "S02", "S03", "S12", "S13", "S23")


def _generator_basis() -> dict[str, np.ndarray]:
    S = _SPIN_MATRICES.S
    return {
        "S01": S[0, 1], "S02": S[0, 2], "S03": S[0, 3],
        "S12": S[1, 2], "S13": S[1, 3], "S23": S[2, 3],
    }


def commutator_table() -> dict:
    """Brute-force structure constants of the six independent generators.

    For every ordered pair computes ``[A, B]`` and expands it in the
    generator basis by least squares.  Expansion coefficients within 1e-12
    of a Gaussian integer are snapped to it (they all are: the algebra
    closes with coefficients in {0, +/-1, +/-i}).  Returns
    ``{"A,B": {label: [re, im], ...}, ...}`` with zero entries omitted,
    plus a ``"residual"`` key recording the worst expansion error.
    """
    basis = _generator_basis()
    stack = np.stack([basis[k].ravel() for k in _GENERATOR_LABELS], axis=1)
    pairs = [(left, right) for left in _GENERATOR_LABELS
             for right in _GENERATOR_LABELS if left != right]
    # every bracket is one column of a single least-squares solve
    brackets = np.stack([(basis[left] @ basis[right] - basis[right] @ basis[left]).ravel()
                         for left, right in pairs], axis=1)
    coeffs, *_ = np.linalg.lstsq(stack, brackets, rcond=None)

    # one row per pair and one column per label, the order in which the first
    # bad coefficient is named; + 0.0 turns np.round's -0.0 parts into 0.0
    per_pair = coeffs.T
    snapped = np.round(per_pair) + 0.0
    bad = ~(np.abs(per_pair - snapped) <= 1e-12)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        left, right = pairs[row]
        raise AssertionError(f"[{left},{right}] coefficient {per_pair[row, col]!r} "
                             "is not a Gaussian integer")
    table: dict = {
        f"{left},{right}": {label: [c.real, c.imag]
                            for label, c in zip(_GENERATOR_LABELS, row) if c}
        for (left, right), row in zip(pairs, snapped.tolist())}
    table["residual"] = float(np.max(np.abs(stack @ coeffs - brackets)))
    return table


def load_reference_commutator_table() -> dict:
    """The frozen structure-constant fixture shipped with the package."""
    fixture = resources.files("transpin").joinpath("data/commutator_table.json")
    text = fixture.read_text(encoding="utf-8")
    return json.loads(text)


def generator_closure_rank() -> int:
    """Rank of the vectorized generator set: 6 for a closed 6-dim algebra."""
    basis = _generator_basis()
    stack = np.stack([basis[k].ravel() for k in _GENERATOR_LABELS], axis=0)
    return int(np.linalg.matrix_rank(stack, tol=1e-10))
