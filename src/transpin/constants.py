"""Physical constants and unit systems.

Every formula in this package takes an explicit :class:`PhysicalConstants`
set.  The default is SI, with the CODATA 2022 values pinned as literals so
results do not depend on the installed version of any library; a natural
unit system with ``c = eps0 = hbar = 1`` is provided for well-conditioned
work at the single-quantum scale.

The vacuum relation ``c**2 * eps0 * mu0 == 1`` is load-bearing throughout
(it is what makes the electric and magnetic energy branches balance), so
``mu0`` is always derived from ``c`` and ``eps0`` rather than taken as an
independent datum.  The CODATA value of ``mu_0`` agrees with the derived one
only to ~1e-12 relative, which is not good enough here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PhysicalConstants", "SI", "NATURAL"]


@dataclass(frozen=True)
class PhysicalConstants:
    """An internally consistent set of electromagnetic constants.

    Attributes
    ----------
    c : float
        Vacuum speed of light [m/s].
    eps0 : float
        Vacuum permittivity [F/m].
    hbar : float
        Reduced Planck constant [J*s].
    mu0 : float
        Vacuum permeability [H/m]; always ``1/(eps0*c**2)``.
    """

    c: float
    eps0: float
    hbar: float
    mu0: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("c", "eps0", "hbar"):
            value = getattr(self, name)
            if not (value > 0.0):
                raise ValueError(f"constant {name!r} must be positive, got {value!r}")
        object.__setattr__(self, "mu0", 1.0 / (self.eps0 * self.c**2))
        # one multiply/divide round trip: exact up to 1 ulp
        residual = abs(self.c**2 * self.eps0 * self.mu0 - 1.0)
        if residual > 1e-15:
            raise ValueError(f"c^2*eps0*mu0 deviates from 1 by {residual:.3e}")

    @classmethod
    def si(cls) -> "PhysicalConstants":
        """CODATA 2022 SI values (``mu0`` derived, see module docstring)."""
        return cls(c=299792458.0, eps0=8.8541878188e-12,
                   hbar=1.0545718176461565e-34)

    @classmethod
    def natural(cls) -> "PhysicalConstants":
        """Natural units: ``c = eps0 = hbar = 1`` (hence ``mu0 = 1``)."""
        return cls(c=1.0, eps0=1.0, hbar=1.0)


SI = PhysicalConstants.si()
NATURAL = PhysicalConstants.natural()
