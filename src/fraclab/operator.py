"""Discrete fractional Laplacian of order s on an interval, n = 1.

The bilinear form of (-Delta)^s over piecewise-linear hat functions on a
uniform grid has Toeplitz structure, and every entry reduces to a closed
form.  Writing p = 1 - 2s, the double integral of |x - y|^{-1-2s} against a
pair of hats separated by k cells equals a second difference of the twice
integrated kernel, so no quadrature is needed and the contribution of the
exterior of the interval (where functions vanish) is captured exactly: the
integrals below run over the whole real line.

The singular kernel is scaled by the usual normalization constant so that
the operator's symbol is |xi|^{2s}.

The assembled ``DiscreteSystem`` is the one owner of the stiffness matrix's
Cholesky factor and of the torsion field (the solution with unit source):
both are computed once, on first use, and every linear solve against the
stiffness matrix goes through them.  The system's arrays are read-only, so
neither cached value can go stale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, toeplitz
from scipy.optimize import brentq
from scipy.special import gamma

from .errors import ConvergenceError, ParameterError
from .grid import Grid

Field = np.ndarray


def critical_exponent(n: int, s: float) -> float:
    """Critical embedding exponent 2n/(n - 2s); needs n > 2s."""
    if not n > 2.0 * s:
        raise ParameterError(f"critical exponent undefined: n={n} <= 2s={2.0 * s}")
    return 2.0 * n / (n - 2.0 * s)


def normalization_constant(n: int, s: float) -> float:
    """Kernel constant pi^{-n/2} 2^{2s-1} s Gamma((n+2s)/2) / Gamma(1-s)."""
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in (0, 1), got {s}")
    return (
        np.pi ** (-n / 2.0)
        * 2.0 ** (2.0 * s - 1.0)
        * s
        * gamma((n + 2.0 * s) / 2.0)
        / gamma(1.0 - s)
    )


def admissibility(q: float, s: float) -> bool:
    """Exponent compatibility q(2s - 1) < 2s + 1; q must be positive."""
    if not q > 0.0:
        raise ParameterError(f"singular exponent q must be positive, got {q}")
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in (0, 1), got {s}")
    return q * (2.0 * s - 1.0) < 2.0 * s + 1.0


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of the singular critical problem.

    s    : order of the fractional Laplacian, 0 < s < 1/2
    q    : exponent of the singular term u^{-q}, q > 0
    lam  : coefficient of the critical term, lam >= 0
    """

    s: float
    q: float
    lam: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.s < 0.5):
            raise ParameterError(
                f"need n > 2s with n = 1, so s must lie in (0, 1/2); got s={self.s}"
            )
        if not admissibility(self.q, self.s):
            raise ParameterError(
                f"admissibility q(2s-1) < 2s+1 fails for q={self.q}, s={self.s}"
            )
        if not self.lam >= 0.0:
            raise ParameterError(f"lam must be nonnegative, got {self.lam}")

    @property
    def crit(self) -> float:
        """Critical exponent 2n/(n - 2s) with n = 1."""
        return 2.0 / (1.0 - 2.0 * self.s)

    @property
    def cns(self) -> float:
        """Normalization constant of the kernel for this order."""
        return kernel_constant(self.s)

    def with_lam(self, lam: float) -> "ProblemParams":
        return ProblemParams(s=self.s, q=self.q, lam=lam)


def defect(system: "DiscreteSystem", params: ProblemParams, u: Field, g=0.0, eps=0.0) -> Field:
    """Nodal defect A u - massw ((u + eps)^{-q} + g + lam u^{crit-1}).

    ``g`` is a frozen source (scalar or nodal vector) and ``eps`` the
    regularization level.  The critical term enters only when lam != 0, so
    frozen-source solves (lam = 0) never form lam * u^{crit-1}.
    """
    src = (u + eps) ** (-params.q) + g
    if params.lam != 0.0:
        src = src + params.lam * u ** (params.crit - 1.0)
    return system.stiffness @ u - system.massw * src


def jacobian(system: "DiscreteSystem", params: ProblemParams, u: Field, eps=0.0) -> np.ndarray:
    """Jacobian of ``defect`` in u: A + diag(massw (q (u+eps)^{-q-1} - lam (crit-1) u^{crit-2})).

    Symmetric positive definite when lam = 0; the critical term can make it
    indefinite.
    """
    d = params.q * system.massw * (u + eps) ** (-params.q - 1.0)
    if params.lam != 0.0:
        d = d - params.lam * (params.crit - 1.0) * system.massw * u ** (params.crit - 2.0)
    return system.stiffness + np.diag(d)


def kernel_constant(s: float) -> float:
    """Constant multiplying |z|^{-1-2s} so the symbol is |xi|^{2s} (n = 1)."""
    return normalization_constant(1, s)


def _twice_integrated(m: np.ndarray, s: float) -> np.ndarray:
    """Second antiderivative combination of |z|^{p-1} at integer offsets.

    p = 1 - 2s.  With S(t) = sign(t)|t|^{p+1}/(p+1) and T(t) = |t|^{p+2}/(p+2)
    this is the hat-pair interaction before taking second differences.
    """
    p = 1.0 - 2.0 * s
    m = np.abs(np.asarray(m, dtype=float))

    def S(t):
        return np.sign(t) * np.abs(t) ** (p + 1) / (p + 1)

    def T(t):
        return np.abs(t) ** (p + 2) / (p + 2)

    a1 = S(m) - S(m - 1)
    a2 = T(m) - T(m - 1)
    b1 = S(m + 1) - S(m)
    b2 = T(m + 1) - T(m)
    return (a2 - (m - 1) * a1) + ((m + 1) * b1 - b2)


def interaction_column(kmax: int, s: float) -> np.ndarray:
    """Unit-grid interactions g(0..kmax): energy of hat pairs k cells apart.

    The physical stiffness entry is cns * h^{1-2s} * g(|i-j|).
    """
    k = np.arange(kmax + 1, dtype=float)
    num = (
        _twice_integrated(k - 1, s)
        - 2.0 * _twice_integrated(k, s)
        + _twice_integrated(k + 1, s)
    )
    return num / (s * (1.0 - 2.0 * s))


@lru_cache(maxsize=None)
def m_matrix_threshold() -> float:
    """Order below which the nearest-neighbour stiffness entry turns positive.

    For s above this value all off-diagonal entries are nonpositive and the
    stiffness matrix is an M-matrix; below it the discrete comparison
    argument loses its sign structure.
    """
    f = lambda t: interaction_column(1, t)[1]
    return brentq(f, 0.05, 0.45, xtol=1e-12)


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled stiffness matrix and lumped mass weights on a grid.

    ``assemble`` marks both arrays read-only.  The system owns the Cholesky
    factor of the stiffness matrix and the torsion field; each is computed
    on first use and kept for the life of the system.
    """

    grid: Grid
    s: float
    stiffness: np.ndarray
    massw: np.ndarray

    @cached_property
    def factor(self):
        """Cholesky factor of the stiffness matrix, as ``cho_solve`` takes it."""
        return cho_factor(self.stiffness)

    def solve(self, rhs: Field) -> Field:
        """Solution x of A x = rhs, from the cached factor."""
        return cho_solve(self.factor, rhs)

    @cached_property
    def torsion(self) -> Field:
        """Read-only solution of the linear problem with unit source."""
        z = solve_dirichlet(self, 1.0)
        z.flags.writeable = False
        return z


def assemble(grid: Grid, s: float) -> DiscreteSystem:
    """Assemble the Toeplitz stiffness matrix and lumped mass vector.

    Entries follow the closed form; the mass weights are the row sums of the
    consistent mass matrix, which on a uniform interior grid equal h.
    """
    if not (0.0 < s < 0.5):
        raise ParameterError(f"order s must lie in (0, 1/2), got {s}")
    col = kernel_constant(s) * grid.h ** (1.0 - 2.0 * s) * interaction_column(grid.n - 1, s)
    stiffness = toeplitz(col)
    massw = np.full(grid.n, grid.h)
    stiffness.flags.writeable = False
    massw.flags.writeable = False
    return DiscreteSystem(grid=grid, s=float(s), stiffness=stiffness, massw=massw)


def apply_operator(system: DiscreteSystem, u: Field) -> Field:
    """Matrix-vector product with the stiffness matrix."""
    u = np.asarray(u, dtype=float)
    if u.shape != (system.grid.n,):
        raise ParameterError(f"field shape {u.shape} does not match grid size {system.grid.n}")
    return system.stiffness @ u


def nodal_source(system: DiscreteSystem, f, name: str) -> Field:
    """Broadcast a scalar or nodal source ``f`` to the grid, read-only.

    Raises ParameterError when ``f`` does not broadcast to the node count or
    has a non-finite entry; ``name`` labels the source in the message.
    """
    n = system.grid.n
    try:
        f = np.broadcast_to(np.asarray(f, dtype=float), (n,))
    except ValueError as exc:
        raise ParameterError(
            f"{name} of shape {np.shape(f)} does not match grid size {n}"
        ) from exc
    if not np.all(np.isfinite(f)):
        raise ParameterError(f"{name} has non-finite entries")
    return f


def solve_dirichlet(system: DiscreteSystem, f) -> Field:
    """Solve the linear problem with nodal source ``f`` and zero exterior data.

    ``f`` may be a scalar or a nodal vector; the discrete right-hand side is
    the lumped load massw * f, solved against the system's cached factor.
    A wrong shape or a non-finite entry raises ParameterError.  The solve is
    checked a posteriori and a relative residual above 1e-10 raises
    ConvergenceError.
    """
    rhs = system.massw * nodal_source(system, f, "source f")
    u = system.solve(rhs)
    scale = np.linalg.norm(rhs)
    res = np.linalg.norm(system.stiffness @ u - rhs)
    if scale > 0 and res > 1e-10 * scale:
        raise ConvergenceError(f"linear solve residual {res / scale:.3e} above 1e-10")
    return u


@dataclass(frozen=True)
class SpectralData:
    """Principal generalized eigenpair of stiffness vs lumped mass."""

    value: float
    mode: np.ndarray


def principal_eigenpair(system: DiscreteSystem) -> SpectralData:
    """Smallest eigenvalue and positive eigenvector with max value 1.

    The eigenvalue is cross-checked against the Rayleigh quotient of the
    returned mode to 1e-8 relative; a sign-indefinite mode is rejected.
    """
    vals, vecs = eigh(
        system.stiffness,
        np.diag(system.massw),
        subset_by_index=[0, 0],
    )
    lam1 = float(vals[0])
    phi = vecs[:, 0]
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    if phi.min() <= 0.0:
        raise ConvergenceError("principal mode is not strictly positive")
    phi = phi / phi.max()
    rayleigh = (phi @ (system.stiffness @ phi)) / np.sum(system.massw * phi ** 2)
    if abs(rayleigh - lam1) > 1e-8 * max(1.0, abs(lam1)):
        raise ConvergenceError(
            f"eigenvalue {lam1!r} disagrees with Rayleigh quotient {rayleigh!r}"
        )
    return SpectralData(value=lam1, mode=phi)
