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

The assembled ``DiscreteSystem`` owns every quantity that depends on it
alone (see its docstring): each is computed once, on first use, and kept
read-only for the life of the system.  The energy functional lives here
beside its gradient ``defect`` and its Hessian ``jacobian``; ``energy`` and
``defect`` also take an (m, n) stack of fields, one per row, so a whole
elastic band is evaluated in one call.  ``source`` is the one spelling of
the nonlinearity u^{-q} + g + lam u^{crit-1} and ``critical_power`` its
lam-derivative; the other modules form the source through them.  No kernel
carries a regularization level (see ``defect``).  ``is_positive_definite``
reads the inertia of a symmetric matrix from one Cholesky attempt.

The grid is uniform, so the Toeplitz stiffness commutes with the reflection
i -> N-1-i and the system splits into an even and an odd block of about half
the size.  ``DiscreteSystem.even`` owns that split: the torsion field is
solved on the even block and mirrored back, ``principal_eigenpair`` takes
its mode from the even block and tests the odd one by a Cholesky, and the
monotone iteration and the mountain-pass band run on the even block, from
fields that ``even_half`` checks to be even.  Each block is formed from
slices of the stiffness in O(N^2).

Every product of a matrix with a field goes through ``row_products`` except
``holder_fit``'s n x 2 least-squares prediction, which is too small to
matter.  numpy and scipy each load their own OpenBLAS, each with its own thread pool; the
factorizations and solves run in scipy's, so a single field's product with
the stiffness or a block runs there too, through ``dgemv``, and no
matrix-vector product by a single field wakes numpy's pool beside them.  A
stack keeps numpy's stacked matmul (see ``row_products``).  Dot products
(``np.vecdot``) and norms of fields stay in numpy's BLAS; at N <= 1024 they
are level-1 calls, which are not expected to wake its pool, but that has
not been measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh, toeplitz
from scipy.linalg.blas import dgemv
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
    """Exponent compatibility q(2s - 1) < 2s + 1; q must be positive and finite."""
    if not 0.0 < q < math.inf:
        raise ParameterError(f"singular exponent q must be positive and finite, got {q}")
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in (0, 1), got {s}")
    return q * (2.0 * s - 1.0) < 2.0 * s + 1.0


@dataclass(frozen=True)
class ProblemParams:
    """Parameters of the singular critical problem.

    s    : order of the fractional Laplacian, 0 < s < 1/2
    q    : exponent of the singular term u^{-q}, q > 0
    lam  : coefficient of the critical term, 0 <= lam < inf
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
        if not 0.0 <= self.lam < math.inf:
            raise ParameterError(f"lam must be nonnegative and finite, got {self.lam}")

    @property
    def crit(self) -> float:
        """Critical exponent 2n/(n - 2s) with n = 1."""
        return critical_exponent(1, self.s)

    def with_lam(self, lam: float) -> "ProblemParams":
        return ProblemParams(s=self.s, q=self.q, lam=lam)


def row_products(matrix: np.ndarray, u: Field) -> Field:
    """``matrix @ u`` for a field, or for each row of an (m, n) stack of fields.

    A single field's product with a C-ordered matrix (the stiffness, the
    blocks) is one ``dgemv`` in scipy's BLAS, the library that runs the
    factorizations and solves, so no second OpenBLAS thread pool (numpy's)
    wakes beside them.  It uses the transposed kernel, as numpy does on a
    C-ordered matrix.  With the wheels measured (numpy 2.4.6 with OpenBLAS
    0.3.31, scipy 1.17.1 with OpenBLAS 0.3.30, x86-64) the result equals
    ``matrix @ u`` bit for bit because both copies pick the same kernel;
    nothing in fraclab guarantees that for other builds or CPUs.  Any other
    matrix or field (F-ordered, strided) stays with numpy.

    A stack keeps numpy's stacked matmul, which runs one matrix-vector
    product per row, so every row equals the product of that row alone bit
    for bit; a Python loop of ``dgemv`` calls costs about 1.7 times as much
    at band sizes.  One ``dgemm`` per stack is no faster on the benchmark's
    bands and rounds differently, and the mountain-pass band's sweep count,
    even whether it succeeds, follows those bits.
    """
    if u.ndim == 1 and u.flags.c_contiguous and matrix.flags.c_contiguous:
        return dgemv(1.0, matrix.T, u, trans=1)
    return (matrix @ u[..., None])[..., 0]


def critical_power(params: ProblemParams, u):
    """u^{crit-1}, the lam-derivative of ``source``; u is a scalar, a field or a stack."""
    return u ** (params.crit - 1.0)


def source(params: ProblemParams, u, g=0.0):
    """Nodal source u^{-q} + g + lam u^{crit-1}, the one spelling of the nonlinearity.

    ``g`` is a frozen source (scalar or nodal vector).  The critical term
    enters only when lam != 0, so frozen-source problems (lam = 0) never form
    u^{crit-1}, which can overflow.  ``u`` is a scalar, a field or an (m, n)
    stack of fields, one per row.
    """
    src = u ** (-params.q) + g
    if params.lam != 0.0:
        src = src + params.lam * critical_power(params, u)
    return src


def defect(system: "DiscreteSystem", params: ProblemParams, u: Field, g=0.0) -> Field:
    """Nodal defect A u - massw ``source``(u, g) = A u - massw (u^{-q} + g + lam u^{crit-1}).

    ``u`` may be an (m, n) stack of fields, one per row; the defects come
    back as rows, each equal to the defect of its row alone.  A regularized
    level eps, A u = massw (u + eps)^{-q}, is the frozen-source problem in
    v = u + eps with g = eps (A 1) / massw, because A is linear.
    """
    return row_products(system.stiffness, u) - system.massw * source(params, u, g)


def jacobian(system: "DiscreteSystem", params: ProblemParams, u: Field) -> np.ndarray:
    """Jacobian of ``defect`` in u: A + diag(massw (q u^{-q-1} - lam (crit-1) u^{crit-2})).

    Symmetric positive definite when lam = 0; the critical term can make it
    indefinite.
    """
    d = params.q * system.massw * u ** (-params.q - 1.0)
    if params.lam != 0.0:
        d = d - params.lam * (params.crit - 1.0) * system.massw * u ** (params.crit - 2.0)
    J = system.stiffness.copy()
    J.flat[:: J.shape[0] + 1] += d
    return J


def energy(system: "DiscreteSystem", params: ProblemParams, u: Field):
    """Value of the functional whose gradient is ``defect`` at a nonnegative field.

    I(u) = 1/2 <A u, u> - sum massw P(u) - (lam/crit) sum massw u^crit, with
    P(u) = u^{1-q}/(1-q) for q != 1 and log u for q = 1.  The value is +inf
    when a zero node makes the singular term diverge (q >= 1).  Negative
    fields are outside the domain of the functional and rejected.  ``u`` may
    be an (m, n) stack of fields, one per row: the m values come back as an
    array, each equal to the value of its row alone.
    """
    u = np.asarray(u, dtype=float)
    if u.min() < 0.0:
        raise ParameterError("energy is defined on nonnegative fields")
    mw = system.massw
    quad = 0.5 * np.vecdot(u, row_products(system.stiffness, u))
    q = params.q
    with np.errstate(divide="ignore"):
        if q == 1.0:
            sing = np.sum(mw * np.log(u), axis=-1)
        else:
            sing = np.sum(mw * u ** (1.0 - q), axis=-1) / (1.0 - q)
    ts = params.crit
    critical = params.lam / ts * np.sum(mw * u ** ts, axis=-1)
    value = np.where((u.min(axis=-1) == 0.0) & (q >= 1.0), math.inf, quad - sing - critical)
    return float(value) if u.ndim == 1 else value


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
    # imported here: scipy.optimize adds about 0.13 s and 17 MB to importing fraclab
    from scipy.optimize import brentq

    f = lambda t: interaction_column(1, t)[1]
    return brentq(f, 0.05, 0.45, xtol=1e-12)


@dataclass(frozen=True)
class DiscreteSystem:
    """Assembled stiffness matrix and lumped mass weights on a grid.

    ``assemble`` marks both arrays read-only, so no cached value can go
    stale.  The stiffness factor, the even block, the torsion field, the
    principal eigenpair, the pure singular solution (per q) and the Sobolev
    constant are computed on first use through ``memo`` and kept for the
    life of the system; cached arrays are read-only.

    The even block is a system too.  It keeps its parent's grid, so the node
    count of a field is read from ``massw``, never from ``grid``.
    """

    grid: Grid
    s: float
    stiffness: np.ndarray
    massw: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, compute):
        """Value of ``compute()`` under ``key``, computed on the first call only."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def factor(self):
        """Cholesky factor of the stiffness matrix, as ``cho_solve`` takes it."""
        return self.memo("factor", lambda: cho_factor(self.stiffness))

    def solve(self, rhs: Field) -> Field:
        """Solution x of A x = rhs, from the cached factor."""
        return cho_solve(self.factor, rhs)

    @property
    def even(self) -> "DiscreteSystem":
        """Even block: stiffness P^T A P and mass P^T massw, of size ceil(N/2).

        P is the even lift: column i holds e_i + e_{N-1-i}, and for odd N the
        middle node's column a single 1.  A field u = P v solves a problem of
        this system exactly when v solves it on the block, because the
        nonlinearity acts node by node; ``lift`` maps v back to u.  The split
        needs A to equal its reflection.  A block has no split, even a 1 x 1
        one that equals its reflection, so asking a block raises too.
        """
        def block():
            if self.is_block:
                raise ParameterError("a parity block has no parity split")
            if not np.array_equal(self.stiffness, self.stiffness[::-1, ::-1]):
                raise ParameterError("stiffness is not reflection-symmetric: no parity split")
            a, m = _parity_block(self, 1.0)
            return DiscreteSystem(grid=self.grid, s=self.s, stiffness=a, massw=m)

        return self.memo("even", block)

    @property
    def is_block(self) -> bool:
        """True for a parity block: it has fewer nodes than its grid (N >= 2)."""
        return self.massw.shape[0] < self.grid.n

    def lift(self, v: Field) -> Field:
        """The field of this system whose left half is the even-block field ``v``."""
        n = self.massw.shape[0]
        return np.concatenate([v, v[: n - v.shape[0]][::-1]])

    def even_half(self, u: Field, name: str) -> Field:
        """The even-block field that ``lift`` maps to ``u``: its left ceil(N/2) nodes.

        ``u`` must be reflection-even, |u - u reflected| <= 1e-12 max |u| at
        every node; otherwise ParameterError, with ``name`` labelling the
        field.  There is no full-space fallback.
        """
        u = np.asarray(u, dtype=float)
        if np.abs(u - u[::-1]).max() > 1e-12 * np.abs(u).max():
            raise ParameterError(f"{name} must be reflection-even")
        return u[: self.even.massw.shape[0]]

    @property
    def torsion(self) -> Field:
        """Read-only solution of the linear problem with unit source.

        It is even, so it is solved on the even block and mirrored back; a
        block, which has no split, solves it directly.
        """
        def solve():
            if self.is_block:
                return read_only(solve_dirichlet(self, 1.0))
            return read_only(self.lift(self.even.torsion))

        return self.memo("torsion", solve)


def _parity_block(system: DiscreteSystem, sign: float) -> tuple:
    """(Q^T A Q, Q^T massw) for the even (sign 1) or odd (sign -1) lift Q.

    A commutes with the reflection, so entry (i, j) of the block is
    2 (A[i, j] + sign A[i, N-1-j]), halved in the row and in the column of an
    odd N's middle node (even lift only).  The odd lift has columns
    e_i - e_{N-1-i}, i < N/2; the middle node carries no odd field.
    """
    n = system.massw.shape[0]
    k = (n + 1) // 2 if sign > 0 else n // 2
    a = system.stiffness
    flip = a[:k, ::-1][:, :k]
    block = a[:k, :k] + flip if sign > 0 else a[:k, :k] - flip
    block *= 2.0
    mass = 2.0 * system.massw[:k]
    if sign > 0 and n % 2:
        block[-1] *= 0.5
        block[:, -1] *= 0.5
        mass[-1] = system.massw[k - 1]
    return read_only(block), read_only(mass)


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark ``a`` read-only and return it."""
    a.flags.writeable = False
    return a


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
    n = system.massw.shape[0]
    if u.shape != (n,):
        raise ParameterError(f"field shape {u.shape} does not match grid size {n}")
    return row_products(system.stiffness, u)


def nodal_source(system: DiscreteSystem, f, name: str) -> Field:
    """Broadcast a scalar or nodal source ``f`` to the grid, read-only.

    Raises ParameterError when ``f`` does not broadcast to the node count or
    has a non-finite entry; ``name`` labels the source in the message.  The
    node count is read from ``massw``, so the even block takes its own size.
    """
    n = system.massw.shape[0]
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
    res = np.linalg.norm(row_products(system.stiffness, u) - rhs)
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

    The pencil splits into the even and the odd block, so the smallest
    eigenvalue of the full pencil is the smaller of the two blocks' lowest.
    An odd mode changes sign: when the odd block holds the lowest eigenvalue
    the mode is rejected, and the message names both block eigenvalues.  The
    odd block needs no eigen-solve for that test: its lowest eigenvalue lies
    above lam1 exactly when A_o - lam1 M_o is positive definite, and it is
    computed only to name it in the message.
    The eigenvalue is cross-checked against the Rayleigh quotient of the
    returned mode in the full system to 1e-8 relative; a sign-indefinite
    mode is rejected.  Computed once per system; the mode is read-only.
    """
    return system.memo("eigenpair", lambda: _principal_eigenpair(system))


def _lowest(stiffness: np.ndarray, massw: np.ndarray) -> tuple:
    vals, vecs = eigh(stiffness, np.diag(massw), subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0]


def is_positive_definite(M: np.ndarray) -> bool:
    """True when the symmetric matrix M has a Cholesky factor.

    By Sylvester's law of inertia this says whether every eigenvalue of M is
    positive, at the cost of one factorization and no eigen-solve.
    """
    try:
        cho_factor(M)
    except np.linalg.LinAlgError:
        return False
    return True


def _principal_eigenpair(system: DiscreteSystem) -> SpectralData:
    even = system.even
    lam1, v = _lowest(even.stiffness, even.massw)
    odd_a, odd_m = _parity_block(system, -1.0)
    if not is_positive_definite(odd_a - np.diag(lam1 * odd_m)):
        lam_odd, _ = _lowest(odd_a, odd_m)
        raise ConvergenceError(
            "principal mode is not strictly positive: lowest mode is odd "
            f"(even block {lam1!r}, odd block {lam_odd!r})"
        )
    phi = system.lift(v)
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    if phi.min() <= 0.0:
        raise ConvergenceError("principal mode is not strictly positive")
    phi = phi / phi.max()
    quad = np.vecdot(phi, row_products(system.stiffness, phi))
    rayleigh = quad / np.sum(system.massw * phi ** 2)
    if abs(rayleigh - lam1) > 1e-8 * max(1.0, abs(lam1)):
        raise ConvergenceError(
            f"eigenvalue {lam1!r} disagrees with Rayleigh quotient {rayleigh!r}"
        )
    return SpectralData(value=lam1, mode=read_only(phi))
