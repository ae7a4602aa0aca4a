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
the size.  ``DiscreteSystem.even`` and ``DiscreteSystem.odd`` own that split:
the torsion field is solved on the even block and mirrored back,
``principal_eigenpair`` takes its mode from the even block and tests the odd
one by a Cholesky, and the monotone iteration and the mountain-pass band run
on the even block, from fields that ``even_half`` checks to be even.  The
full system holds only the stiffness's Toeplitz column: each block is built
from it as a Toeplitz plus or minus a Hankel matrix in O(N^2), and the full
system's products run through the blocks (``DiscreteSystem.apply``), so no
pipeline forms the dense N x N matrix (8 MB at N = 1024).

Every product of a matrix with a field goes through ``row_products`` except
``holder_fit``'s n x 2 least-squares prediction, which is too small to
matter.  numpy and scipy each load their own OpenBLAS, each with its own
thread pool; the factorizations and solves run in scipy's, so the products
run there too: a single field's product with a block (or a dense matrix)
through ``dgemv``, and a whole stack of fields (an elastic band, a ray
grid) through one ``dgemm``.  No matrix product wakes numpy's pool beside
them.  Dot products (``np.vecdot``) and norms of fields stay in numpy's
BLAS; at N <= 1024 they are level-1 calls, which are not expected to wake
its pool, but that has not been measured.

Every matrix handed to ``cho_factor`` or ``lu_factor`` is Fortran-ordered.
LAPACK stores matrices by column, and f2py answers a C-ordered argument
with a transposed Fortran-ordered copy, a fresh N x N allocation that cost
about as much as the Cholesky factorization itself at N = 512.  The
stiffness, its blocks and every Jacobian are exactly symmetric, so the
view ``M.T`` of a C-ordered M is M itself in Fortran order: ``jacobian``
returns such a view of a fresh copy, which Newton factors in place
(``overwrite_a=True``), ``DiscreteSystem.factor`` factors
``stiffness.T`` and ``is_positive_definite`` whichever of M and ``M.T`` is
Fortran-ordered, which f2py copies without a transpose because they may
not overwrite it.  The factors and solves are bit for bit those of the
C-ordered matrices.  A Jacobian plus factor plus solve went from 4.7 to
2.2 ms (Cholesky) at N = 512 and from 1.0 to 0.55 ms (LU) at N = 256 on a
shared 2-vCPU x86-64 host.  The mountain-pass band's inverse keeps the
Fortran order ``cho_solve`` returns it in, and ``row_products`` hands it to
``dgemm`` as it is.

The package's one eigensolve is ``_lowest``, behind ``principal_eigenpair``.
The lumped mass is diagonal, so the pencil (A, diag(massw)) is the standard
symmetric problem of A / (r r^T), r = sqrt(massw): one ``eigh`` of its
Fortran-ordered view, with no Cholesky of the mass and no reduction to
standard form, about 40% less time than a generalized solve at N = 512 on
the host above.  Its bits are not a generalized solve's: on the four
reference pairs at N <= 1024, lam1 differed by up to 2.7e-14 relative and
the mode by up to 1.8e-14 (measured, not bounds), and each solve's lam1
lies within 1.7e-14 of an extended-precision Rayleigh quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve, eigh, toeplitz
from scipy.linalg.blas import dgemm, dgemv
from scipy.special import gamma

from .errors import ConvergenceError, ParameterError
from .grid import Grid

Field = np.ndarray


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
        # q(2s - 1) < 2s + 1 holds for every such s and q
        if not 0.0 < self.q < math.inf:
            raise ParameterError(
                f"singular exponent q must be positive and finite, got {self.q}"
            )
        if not 0.0 <= self.lam < math.inf:
            raise ParameterError(f"lam must be nonnegative and finite, got {self.lam}")

    @property
    def crit(self) -> float:
        """Critical exponent 2n/(n - 2s) with n = 1."""
        return 2.0 / (1.0 - 2.0 * self.s)

    def with_lam(self, lam: float) -> "ProblemParams":
        return ProblemParams(s=self.s, q=self.q, lam=lam)


def row_products(matrix: np.ndarray, u: Field) -> Field:
    """``matrix @ u`` for a field, or for each row of an (m, n) stack of fields.

    Every product of a contiguous stack or field runs in scipy's BLAS, the
    library that runs the factorizations and solves, so no second OpenBLAS
    thread pool (numpy's) wakes beside them:

    - a single field's product with a C-ordered matrix (the stiffness, the
      blocks) is one ``dgemv``, with the transposed kernel as numpy uses on
      a C-ordered matrix.  With the wheels measured (numpy 2.4.6 with
      OpenBLAS 0.3.31, scipy 1.17.1 with OpenBLAS 0.3.30, x86-64) the result
      equals ``matrix @ u`` bit for bit because both copies pick the same
      kernel; nothing in fraclab guarantees that for other builds or CPUs;
    - a C-contiguous stack is one ``dgemm``: U A^T, read as (A U^T)^T, for a
      C-ordered matrix and for an F-ordered one (the band's inverse, from
      ``block.solve(np.eye(n))``).  A level-3 kernel sums in its own order,
      so a row agrees with the product of that row alone to rounding, not
      bit for bit; the same stack gives the same bits on every call at a
      fixed thread count.

    Any other matrix or field (an F-ordered matrix times a single field,
    strided arrays) stays with numpy.
    """
    if u.flags.c_contiguous:
        if u.ndim == 1 and matrix.flags.c_contiguous:
            return dgemv(1.0, matrix.T, u, trans=1)
        if u.ndim == 2 and matrix.flags.c_contiguous:
            return dgemm(1.0, matrix.T, u.T, trans_a=1).T
        if u.ndim == 2 and matrix.flags.f_contiguous:
            return dgemm(1.0, matrix, u.T).T
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
    back as rows, each equal to the defect of its row alone up to the
    rounding of a ``dgemm`` per block (``DiscreteSystem.apply``).  A regularized
    level eps, A u = massw (u + eps)^{-q}, is the frozen-source problem in
    v = u + eps with g = eps (A 1) / massw, because A is linear.
    """
    return system.apply(u) - system.massw * source(params, u, g)


def jacobian(system: "DiscreteSystem", params: ProblemParams, u: Field) -> np.ndarray:
    """Jacobian of ``defect`` in u: A + diag(massw (q u^{-q-1} - lam (crit-1) u^{crit-2})).

    Symmetric positive definite when lam = 0; the critical term can make it
    indefinite.  The matrix is a fresh Fortran-ordered array that the caller
    owns and may factor in place (``overwrite_a=True``): it is the transpose
    view of a C-ordered copy of A + diag(d), and that sum is exactly
    symmetric, so the view equals it entry by entry.  A diagonal that
    overflows (a node so close to 0 that u^{-q-1} leaves the float range,
    say) raises ConvergenceError.
    """
    with np.errstate(over="ignore"):
        d = params.q * system.massw * u ** (-params.q - 1.0)
        if params.lam != 0.0:
            d = d - params.lam * (params.crit - 1.0) * system.massw * u ** (params.crit - 2.0)
    if not np.isfinite(d).all():
        raise ConvergenceError(
            f"non-finite Jacobian diagonal (u from {u.min():.3e} to {u.max():.3e})")
    J = system.stiffness.copy()
    J.flat[:: J.shape[0] + 1] += d
    return J.T


def energy(system: "DiscreteSystem", params: ProblemParams, u: Field):
    """Value of the functional whose gradient is ``defect`` at a nonnegative field.

    I(u) = 1/2 <A u, u> - sum massw P(u) - (lam/crit) sum massw u^crit, with
    P(u) = u^{1-q}/(1-q) for q != 1 and log u for q = 1.  The value is +inf
    when a zero node makes the singular term diverge (q >= 1).  Negative
    fields are outside the domain of the functional and rejected.  ``u`` may
    be an (m, n) stack of fields, one per row: the m values come back as an
    array, each equal to the value of its row alone up to the rounding of
    a ``dgemm`` per block (``DiscreteSystem.apply``).
    """
    u = np.asarray(u, dtype=float)
    if u.min() < 0.0:
        raise ParameterError("energy is defined on nonnegative fields")
    mw = system.massw
    quad = 0.5 * np.vecdot(u, system.apply(u))
    q = params.q
    with np.errstate(divide="ignore"):
        if q == 1.0:
            sing = np.sum(mw * np.log(u), axis=-1)
        else:
            sing = np.sum(mw * u ** (1.0 - q), axis=-1) / (1.0 - q)
    # as in ``source``, lam = 0 never forms u^crit, which can overflow
    critical = 0.0
    if params.lam != 0.0:
        ts = params.crit
        critical = params.lam / ts * np.sum(mw * u ** ts, axis=-1)
    value = np.where((u.min(axis=-1) == 0.0) & (q >= 1.0), math.inf, quad - sing - critical)
    return float(value) if u.ndim == 1 else value


def kernel_constant(s: float) -> float:
    """Constant multiplying |z|^{-1-2s} so the symbol is |xi|^{2s} (n = 1).

    pi^{-1/2} 2^{2s-1} s Gamma((1+2s)/2) / Gamma(1-s); s must lie in (0, 1).
    """
    if not 0.0 < s < 1.0:
        raise ParameterError(f"order s must lie in (0, 1), got {s}")
    return float(
        np.pi ** -0.5 * 2.0 ** (2.0 * s - 1.0) * s * gamma((1.0 + 2.0 * s) / 2.0) / gamma(1.0 - s)
    )


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
    """Stiffness and lumped mass weights of the full system or of a parity block.

    The full system holds its stiffness as ``column``, the first column of
    the symmetric Toeplitz matrix A, and ``matrix`` is None; a parity block
    holds its dense matrix in ``matrix`` and ``column`` is None.  ``apply``
    multiplies by the stiffness either way, and the full system's products
    run through its even and odd blocks, so no pipeline forms the dense
    N x N matrix.  ``stiffness`` is that dense matrix, built on first use; it
    serves the cold paths that factor or inspect a full-space matrix
    (``factor``, ``jacobian`` of the full system, ``validate``).

    ``assemble`` marks every array read-only, so no cached value can go
    stale.  The dense stiffness, its factor, the even and the odd block, the
    torsion field, the principal eigenpair, the pure singular solution (per
    q), the default supersolution ladder's candidates and lam-free defects
    (per q) and the Sobolev constant are computed on first use through
    ``memo`` and kept for the life of the system; cached arrays are
    read-only.

    A block is a system too.  It keeps its parent's grid, so the node count
    of a field is read from ``massw``, never from ``grid``.
    """

    grid: Grid
    s: float
    massw: np.ndarray
    column: np.ndarray | None = None
    matrix: np.ndarray | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, compute):
        """Value of ``compute()`` under ``key``, computed on the first call only."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @property
    def stiffness(self) -> np.ndarray:
        """The dense, read-only stiffness: a block's matrix, or toeplitz(column)."""
        if self.is_block:
            return self.matrix
        return self.memo("stiffness", lambda: read_only(toeplitz(self.column)))

    def apply(self, u: Field) -> Field:
        """A u for a field, or for each row of an (m, n) stack of fields.

        A block multiplies by its matrix through ``row_products``.  The full
        system multiplies through its blocks E = P^T A P and O = Q^T A Q (P
        and Q the lifts of ``even`` and ``odd``): with a and b the left
        halves of u's even and odd parts, A u = P (E a) / 2 + Q (O b) / 2,
        where the halving spares the middle node of an odd N, whose lift
        column is a single 1.  A field or stack whose odd part is exactly
        zero never touches the odd block, so an even field costs one
        half-size ``dgemv`` or ``dgemm``.  Each row agrees with the dense
        product to rounding, not bit for bit.
        """
        if self.is_block:
            return row_products(self.matrix, u)
        n = self.massw.shape[0]
        k = n // 2
        flip = u[..., ::-1]
        half = row_products(self.even.matrix, 0.5 * (u[..., : n - k] + flip[..., : n - k]))
        half[..., :k] *= 0.5
        out = np.concatenate([half, half[..., :k][..., ::-1]], axis=-1)
        b = 0.5 * (u[..., :k] - flip[..., :k])
        if b.any():
            odd = 0.5 * row_products(self.odd.matrix, b)
            out[..., :k] += odd
            out[..., n - k:] -= odd[..., ::-1]
        return out

    @property
    def factor(self):
        """Cholesky factor of the stiffness matrix, as ``cho_solve`` takes it.

        It factors the Fortran-ordered view ``stiffness.T`` (A is symmetric),
        which f2py copies without a transpose.
        """
        return self.memo("factor", lambda: cho_factor(self.stiffness.T))

    def solve(self, rhs: Field) -> Field:
        """Solution x of A x = rhs, from the cached factor."""
        return cho_solve(self.factor, rhs)

    @property
    def even(self) -> "DiscreteSystem":
        """Even block: stiffness P^T A P and mass P^T massw, of size ceil(N/2).

        P is the even lift: column i holds e_i + e_{N-1-i}, and for odd N the
        middle node's column a single 1.  A field u = P v solves a problem of
        this system exactly when v solves it on the block, because the
        nonlinearity acts node by node; ``lift`` maps v back to u.  A block
        has no split, so asking a block raises ParameterError.
        """
        return self.memo("even", lambda: _parity_block(self, 1.0))

    @property
    def odd(self) -> "DiscreteSystem":
        """Odd block: stiffness Q^T A Q and mass Q^T massw, of size floor(N/2).

        Q is the odd lift, with columns e_i - e_{N-1-i}, i < N/2; the middle
        node of an odd N carries no odd field.  Asking a block raises.
        """
        return self.memo("odd", lambda: _parity_block(self, -1.0))

    @property
    def is_block(self) -> bool:
        """True for a parity block, which holds a dense matrix and no column."""
        return self.column is None

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


def _parity_block(system: DiscreteSystem, sign: float) -> DiscreteSystem:
    """The block (Q^T A Q, Q^T massw) for the even (sign 1) or odd (sign -1) lift Q.

    A is symmetric Toeplitz with column c, so it commutes with the
    reflection i -> N-1-i, and entry (i, j) of the block is
    2 (c[|i-j|] + sign c[N-1-i-j]): twice a Toeplitz plus or minus a Hankel
    matrix of the column, halved in the row and in the column of an odd N's
    middle node (even lift only).  These are, bit for bit, the entries of
    the slices 2 (A[:k, :k] + sign A[:k, ::-1][:, :k]) of the dense A, built
    in O(N^2) without it.
    """
    if system.is_block:
        raise ParameterError("a parity block has no parity split")
    n = system.massw.shape[0]
    k = (n + 1) // 2 if sign > 0 else n // 2
    c = system.column
    # strided views of the column, no copies: row i of toep is c[|i - j|]
    # and row i of hank is c[N-1-i-j], j < k
    toep = sliding_window_view(np.concatenate([c[k - 1:0:-1], c[:k]]), k)[::-1]
    hank = sliding_window_view(c[::-1][: 2 * k - 1], k)
    block = (np.add if sign > 0 else np.subtract)(toep, hank, out=np.empty((k, k)))
    block *= 2.0
    mass = 2.0 * system.massw[:k]
    if sign > 0 and n % 2:
        block[-1] *= 0.5
        block[:, -1] *= 0.5
        mass[-1] = system.massw[k - 1]
    return DiscreteSystem(grid=system.grid, s=system.s, massw=read_only(mass),
                          matrix=read_only(block))


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
    massw = np.full(grid.n, grid.h)
    return DiscreteSystem(grid=grid, s=float(s), massw=read_only(massw), column=read_only(col))


def apply_operator(system: DiscreteSystem, u: Field) -> Field:
    """Matrix-vector product with the stiffness matrix."""
    u = np.asarray(u, dtype=float)
    n = system.massw.shape[0]
    if u.shape != (n,):
        raise ParameterError(f"field shape {u.shape} does not match grid size {n}")
    return system.apply(u)


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
    checked a posteriori: a relative residual above 1e-10, or one that is
    not a number, raises ConvergenceError.  The load is solved and checked
    scaled by the power of two 2^-e that brings max |rhs| into [1/2, 1), and
    the solution is scaled back.  So the check holds at any scale of the
    load (a subnormal load keeps its digits, and the 2-norm of one near
    1e300 does not overflow), and where no scaled value leaves the normal
    range the result is bit for bit that of the unscaled solve.
    """
    rhs = system.massw * nodal_source(system, f, "source f")
    peak = np.abs(rhs).max()
    if not peak > 0:
        return system.solve(rhs)
    e = math.frexp(peak)[1]
    rhs = np.ldexp(rhs, -e)
    u = system.solve(rhs)
    res = np.linalg.norm(system.apply(u) - rhs)
    scale = np.linalg.norm(rhs)
    if not res <= 1e-10 * scale:
        raise ConvergenceError(f"linear solve residual {res / scale:.3e} above 1e-10")
    return np.ldexp(u, e)


@dataclass(frozen=True)
class SpectralData:
    """Principal generalized eigenpair of stiffness vs lumped mass."""

    value: float
    mode: np.ndarray


def principal_eigenpair(system: DiscreteSystem) -> SpectralData:
    """Smallest eigenvalue and positive eigenvector with max value 1.

    The pencil splits into the even and the odd block, so the smallest
    eigenvalue of the full pencil is the smaller of the two blocks' lowest.
    The even block's lowest pair comes from ``_lowest``, one standard
    symmetric eigensolve of the block scaled by its diagonal mass.  An odd
    mode changes sign: when the odd block holds the lowest eigenvalue the
    mode is rejected, and the message names both block eigenvalues.  The
    odd block needs no eigen-solve for that test: its lowest eigenvalue lies
    above lam1 exactly when A_o - lam1 M_o is positive definite, and it is
    computed only to name it in the message.
    The eigenvalue is cross-checked against the Rayleigh quotient of the
    returned mode in the full system to 1e-8 relative; a sign-indefinite
    mode is rejected.  Computed once per system; the mode is read-only.
    """
    return system.memo("eigenpair", lambda: _principal_eigenpair(system))


def _lowest(stiffness: np.ndarray, massw: np.ndarray) -> tuple:
    """Lowest eigenpair (lam, y) of the pencil (A, diag(massw)): A y = lam massw y.

    The mass is diagonal, so with r = sqrt(massw) the pencil is the standard
    symmetric problem C z = lam z, C = A / (r r^T), y = z / r: one ``eigh``,
    with no Cholesky of the mass and no reduction.  C is exactly symmetric
    (A is, and r_i r_j = r_j r_i), so LAPACK takes its Fortran-ordered view
    ``C.T`` without a copy and may overwrite it.  This is the package's one
    eigensolve.
    """
    r = np.sqrt(massw)
    c = stiffness / np.outer(r, r)
    vals, vecs = eigh(c.T, overwrite_a=True, subset_by_index=[0, 0])
    return float(vals[0]), vecs[:, 0] / r


def is_positive_definite(M: np.ndarray) -> bool:
    """True when the symmetric matrix M has a Cholesky factor.

    By Sylvester's law of inertia this says whether every eigenvalue of M is
    positive, at the cost of one factorization and no eigen-solve.  M is
    exactly symmetric, so M and its view ``M.T`` hold the same entries: it
    factors whichever is Fortran-ordered (a Jacobian is, a C-ordered matrix's
    view is), which f2py copies without a transpose; M itself is never
    overwritten.
    """
    try:
        cho_factor(M if M.flags.f_contiguous else M.T)
    except np.linalg.LinAlgError:
        return False
    return True


def _principal_eigenpair(system: DiscreteSystem) -> SpectralData:
    even, odd = system.even, system.odd
    lam1, v = _lowest(even.stiffness, even.massw)
    if not is_positive_definite(odd.stiffness - np.diag(lam1 * odd.massw)):
        lam_odd, _ = _lowest(odd.stiffness, odd.massw)
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
    quad = np.vecdot(phi, system.apply(phi))
    rayleigh = quad / np.sum(system.massw * phi ** 2)
    if abs(rayleigh - lam1) > 1e-8 * max(1.0, abs(lam1)):
        raise ConvergenceError(
            f"eigenvalue {lam1!r} disagrees with Rayleigh quotient {rayleigh!r}"
        )
    return SpectralData(value=lam1, mode=read_only(phi))
