"""Oracle tests for the kernel constant, the stiffness assembly, and the spectrum.

The frozen numbers below were produced by independent routes before the
assembly code was written: the closed-form interaction column is checked
against a Fourier-symbol quadrature (entries at unit spacing) and against a
split interior/exterior adaptive quadrature on a 7-node mesh.  Disagreement
between routes would indicate a kernel-normalization or scaling bug, which
is exactly the class of error a single-route test cannot see.
"""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

import fraclab
import fraclab.operator
from fraclab import (
    ConvergenceError,
    ParameterError,
    ProblemParams,
    admissibility,
    apply_operator,
    assemble,
    boundary_distance,
    build_grid,
    critical_exponent,
    kernel_constant,
    m_matrix_threshold,
    normalization_constant,
    principal_eigenpair,
    solve_dirichlet,
)
from fraclab.operator import (
    _parity_block,
    critical_power,
    defect,
    energy,
    interaction_column,
    is_positive_definite,
    row_products,
    source,
)

# kernel normalization constant, n = 1, from the Gamma-function formula
# evaluated in 50-digit arithmetic
CNS_TABLE = {
    0.25: 0.099735570100358169,
    0.4: 0.14097922649999519,
    0.3: 0.11504819084081605,
    0.2: 0.083002579316752563,
    0.1: 0.045156991435727807,
    0.05: 0.023686083009469706,
}

# twice-integrated-kernel closed form for the P1 interaction column at unit
# spacing, offsets 0..6, evaluated in extended precision
COLUMN_TABLE = {
    0.25: [
        7.0692447978341555, -0.083114090345866963, -0.88043429445397631,
        -0.41594443041152964, -0.26056924324642235, -0.18358362778529515,
        -0.13852649326099183,
    ],
    0.4: [
        5.6325134468573866, -0.79353798964443265, -0.78327052018691014,
        -0.30761218584037072, -0.17443275712556822, -0.11430575173812767,
        -0.081427418971189258,
    ],
    0.3: [
        6.3394426740653623, -0.36090378752001756, -0.84482335547498412,
        -0.3759653148408068, -0.22788774241441183, -0.15674088550407508,
        -0.1160297916787873,
    ],
    0.1: [
        14.704387432385879, 2.0248118602436904, -1.0087586893804969,
        -0.56485013377384687, -0.39007335795172993, -0.29523291124151745,
        -0.23587254500807821,
    ],
}

# independent route 1: hat-function quadratic form via the Fourier symbol
# |xi|^{2s}, offsets 0..3 at unit spacing (already carries the constant)
FOURIER_ENTRIES = {
    0.25: [0.705055160170502, -0.00828943126806686, -0.0878106162007273,
           -0.0414844549951531],
    0.4: [0.794067390030731, -0.111872373041212, -0.110424871034432,
          -0.0433669258461917],
    0.3: [0.729341410778891, -0.0415213280204514, -0.0971953984409949,
          -0.0432541295055601],
}

# independent route 2: split interior/exterior adaptive quadrature of the
# double integral, 7 interior nodes on (-1, 1), s = 0.3.  Entry (1,3)
# straddles the near-diagonal singular cell where the adaptive rule loses
# digits, hence its looser tolerance.
SPLIT_QUAD_ENTRIES = [
    ((0, 0), 3.6410540360793906, 5e-5),
    ((3, 3), 3.6410545381609842, 5e-5),
    ((0, 1), -0.20728571035508386, 5e-5),
    ((2, 5), -0.2159299651837228, 5e-5),
    ((0, 6), -0.06664161644041391, 5e-5),
    ((1, 3), -0.4816373221506662, 1.5e-2),
]

M_MATRIX_THRESHOLD = 0.2373770657941625
EIG_128_S04 = 1.0591802375553772


@pytest.mark.parametrize("s,expected", sorted(CNS_TABLE.items()))
def test_normalization_constant_frozen(s, expected):
    assert normalization_constant(1, s) == pytest.approx(expected, rel=1e-13)
    assert kernel_constant(s) == pytest.approx(expected, rel=1e-13)


def test_normalization_constant_small_order_decay():
    """the constant vanishes with s, so small orders damp the operator"""
    values = [normalization_constant(1, s) for s in (0.2, 0.1, 0.05)]
    assert values[0] > values[1] > values[2] > 0.0


@pytest.mark.parametrize("s", [0.0, 1.0, 1.5, -0.2])
def test_normalization_constant_rejects_bad_order(s):
    with pytest.raises(ParameterError):
        normalization_constant(1, s)


def test_critical_exponent_values():
    assert critical_exponent(1, 0.25) == pytest.approx(4.0, rel=1e-14)
    assert critical_exponent(1, 0.4) == pytest.approx(10.0, rel=1e-12)
    assert critical_exponent(2, 0.9) == pytest.approx(20.0, rel=1e-12)


@pytest.mark.parametrize("n,s", [(1, 0.5), (1, 0.75), (2, 1.0)])
def test_critical_exponent_needs_subcritical_dimension(n, s):
    with pytest.raises(ParameterError):
        critical_exponent(n, s)


def test_admissibility_region():
    # any positive q is compatible below order one half
    assert admissibility(2.0, 0.4)
    assert admissibility(0.5, 0.4)
    assert admissibility(100.0, 0.25)
    # above one half the constraint starts to bite
    assert admissibility(3.4, 0.9)
    assert not admissibility(30.0, 0.9)
    with pytest.raises(ParameterError):
        admissibility(0.0, 0.4)
    with pytest.raises(ParameterError):
        admissibility(2.0, 1.0)


def test_problem_params_validation():
    p = ProblemParams(s=0.4, q=2.0, lam=0.05)
    assert p.crit == pytest.approx(10.0, rel=1e-12)
    assert kernel_constant(p.s) == pytest.approx(CNS_TABLE[0.4], rel=1e-13)
    assert not hasattr(p, "cns")
    p2 = p.with_lam(0.1)
    assert (p2.s, p2.q, p2.lam) == (0.4, 2.0, 0.1)
    with pytest.raises(ParameterError):
        ProblemParams(s=0.6, q=1.0)
    with pytest.raises(ParameterError):
        ProblemParams(s=0.4, q=-1.0)
    with pytest.raises(ParameterError):
        ProblemParams(s=0.4, q=np.inf)
    with pytest.raises(ParameterError):
        ProblemParams(s=0.4, q=2.0, lam=-0.01)
    with pytest.raises(ParameterError):
        ProblemParams(s=0.4, q=2.0, lam=np.inf)


@pytest.mark.parametrize("s", sorted(COLUMN_TABLE))
def test_interaction_column_frozen(s):
    # the table is extended precision; float64 second differences cancel a
    # couple of digits at the far offsets
    col = interaction_column(6, s)
    np.testing.assert_allclose(col, COLUMN_TABLE[s], rtol=1e-10)


@pytest.mark.parametrize("s", sorted(FOURIER_ENTRIES))
def test_stiffness_matches_fourier_route(s):
    """closed form times the constant reproduces the symbol-side quadrature"""
    col = kernel_constant(s) * interaction_column(3, s)
    np.testing.assert_allclose(col, FOURIER_ENTRIES[s], atol=1e-6)


def test_stiffness_matches_split_quadrature_route():
    grid = build_grid(-1.0, 1.0, 7)
    system = assemble(grid, 0.3)
    c = kernel_constant(0.3)
    for (i, j), raw, rtol in SPLIT_QUAD_ENTRIES:
        assert system.stiffness[i, j] / c == pytest.approx(raw, rel=rtol)


def test_stiffness_mesh_scaling():
    """entries scale exactly like h^{1-2s} so the column is mesh free"""
    s = 0.3
    g1 = build_grid(-1.0, 1.0, 31)
    g2 = build_grid(-1.0, 1.0, 63)
    a1 = assemble(g1, s).stiffness
    a2 = assemble(g2, s).stiffness
    ref = kernel_constant(s) * interaction_column(0, s)[0]
    assert a1[0, 0] / g1.h ** (1.0 - 2.0 * s) == pytest.approx(ref, rel=1e-12)
    assert a2[0, 0] / g2.h ** (1.0 - 2.0 * s) == pytest.approx(ref, rel=1e-12)


def test_stiffness_symmetric_toeplitz():
    system = assemble(build_grid(-1.0, 1.0, 24), 0.35)
    A = system.stiffness
    assert np.abs(A - A.T).max() <= 1e-12 * np.abs(A).max()
    for k in range(24):
        diag = np.diagonal(A, offset=k)
        np.testing.assert_allclose(diag, diag[0], rtol=0, atol=1e-15 * abs(diag[0]))
    # the system caches its factor and torsion field, so its arrays are frozen
    with pytest.raises(ValueError):
        system.stiffness[0, 0] = 1.0
    with pytest.raises(ValueError):
        system.massw[0] = 1.0
    # the torsion field is solved on the even block: the full solve to rounding
    full = solve_dirichlet(system, 1.0)
    assert np.abs(system.torsion - full).max() <= 1e-13 * np.abs(full).max()


@pytest.mark.parametrize("s", [0.3, 0.1])
def test_stiffness_positive_definite(s):
    A = assemble(build_grid(-1.0, 1.0, 31), s).stiffness
    assert np.linalg.eigvalsh(A).min() > 0.0


def test_sign_structure_above_threshold():
    col = interaction_column(10, 0.25)
    assert col[0] > 0.0
    assert np.all(col[1:] < 0.0)


def test_sign_structure_below_threshold():
    """small orders lose the M-matrix property: the first neighbor flips sign"""
    col = interaction_column(10, 0.1)
    assert col[1] > 0.0
    # and just above 0.25 the magnitudes are not even monotone
    col3 = interaction_column(3, 0.3)
    assert abs(col3[2]) > abs(col3[1])


def test_m_matrix_threshold_frozen():
    thr = m_matrix_threshold()
    assert thr == pytest.approx(M_MATRIX_THRESHOLD, abs=1e-9)
    assert interaction_column(1, thr + 1e-3)[1] < 0.0
    assert interaction_column(1, thr - 1e-3)[1] > 0.0


@settings(max_examples=20, deadline=None)
@given(s=st.floats(0.05, 0.49))
def test_column_head_positive(s):
    col = interaction_column(4, s)
    assert np.all(np.isfinite(col))
    assert col[0] > 0.0
    assert col[0] > np.abs(col[1:]).sum()


def test_apply_operator_is_matrix_action(system64, rng):
    u = rng.standard_normal(64)
    v = rng.standard_normal(64)
    np.testing.assert_allclose(
        apply_operator(system64, u), system64.stiffness @ u, rtol=1e-13
    )
    left = apply_operator(system64, 2.0 * u - 3.0 * v)
    right = 2.0 * apply_operator(system64, u) - 3.0 * apply_operator(system64, v)
    np.testing.assert_allclose(left, right, atol=1e-10 * max(1.0, np.abs(left).max()))


def test_solve_dirichlet_zero_source(system64):
    u = solve_dirichlet(system64, 0.0)
    assert np.abs(u).max() == 0.0
    bad = np.zeros(64)
    bad[5] = np.inf
    for source in (np.nan, bad):
        with pytest.raises(ParameterError, match="non-finite"):
            solve_dirichlet(system64, source)
    with pytest.raises(ParameterError, match="does not match grid size"):
        solve_dirichlet(system64, np.ones(65))


def test_solve_dirichlet_residual_and_positivity(system64):
    u = solve_dirichlet(system64, 1.0)
    r = system64.stiffness @ u - system64.massw
    assert np.abs(r).max() <= 1e-10 * np.abs(system64.massw).max()
    assert u.min() > 0.0


def test_torsion_midpoint_value():
    """f = 1 at order 1/4 has a closed-form center value 2/sqrt(pi)"""
    grid = build_grid(-1.0, 1.0, 255)
    system = assemble(grid, 0.25)
    u = solve_dirichlet(system, 1.0)
    center = u[127]
    assert grid.nodes[127] == pytest.approx(0.0, abs=1e-14)
    assert center == pytest.approx(2.0 / np.sqrt(np.pi), rel=2e-2)


def test_torsion_profile_shape():
    grid = build_grid(-1.0, 1.0, 127)
    system = assemble(grid, 0.25)
    u = solve_dirichlet(system, 1.0)
    exact = (np.sqrt(np.pi) / 2.0) ** -1 * (1.0 - grid.nodes**2) ** 0.25
    # interior agreement is much tighter than near the boundary
    inner = np.abs(grid.nodes) <= 0.5
    assert np.abs(u[inner] - exact[inner]).max() <= 2e-2 * exact.max()


def test_principal_eigenpair_frozen(system128):
    spec = principal_eigenpair(system128)
    assert spec.value == pytest.approx(EIG_128_S04, rel=1e-10)
    assert spec.mode.max() == pytest.approx(1.0, abs=1e-14)
    assert spec.mode.min() > 0.0
    # computed once per system and kept read-only
    assert principal_eigenpair(system128) is spec
    with pytest.raises(ValueError):
        spec.mode[0] = 2.0


def test_principal_eigenpair_residual(system128):
    spec = principal_eigenpair(system128)
    lhs = system128.stiffness @ spec.mode
    rhs = spec.value * system128.massw * spec.mode
    assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(lhs).max()


def test_principal_eigenvalue_mesh_stability(system128, system256):
    l1 = principal_eigenpair(system128).value
    l2 = principal_eigenpair(system256).value
    assert abs(l1 - l2) / l2 < 1e-2


def test_principal_mode_symmetric(system128):
    phi = principal_eigenpair(system128).mode
    np.testing.assert_allclose(phi, phi[::-1], atol=1e-9)


def parity_lift(n, sign):
    """Dense lift: columns e_i + sign e_{n-1-i}, i < n/2, and the middle e_i for even parity."""
    k = (n + 1) // 2 if sign > 0 else n // 2
    Q = np.zeros((n, k))
    for i in range(k):
        Q[i, i] += 1.0
        Q[n - 1 - i, i] += sign
    if sign > 0 and n % 2:
        Q[k - 1, k - 1] = 1.0
    return Q


@pytest.mark.parametrize("n", [2, 3, 8, 15])
def test_parity_blocks_are_projections(n):
    """the sliced blocks equal Q^T A Q and Q^T M Q; the lift mirrors a half field"""
    system = assemble(build_grid(-1.0, 3.0, n), 0.3)
    A, M = system.stiffness, np.diag(system.massw)
    for sign in (1.0, -1.0):
        Q = parity_lift(n, sign)
        a, m = _parity_block(system, sign)
        np.testing.assert_allclose(a, Q.T @ A @ Q, rtol=1e-14, atol=1e-14 * np.abs(A).max())
        assert np.array_equal(np.diag(m), Q.T @ M @ Q)
    even = system.even
    assert even is system.even
    assert even.massw.shape == ((n + 1) // 2,) and not even.stiffness.flags.writeable
    v = np.arange(1.0, even.massw.shape[0] + 1.0)
    assert np.array_equal(system.lift(v), parity_lift(n, 1.0) @ v)
    assert even.is_block and not system.is_block
    # a 1 x 1 block equals its reflection, yet it has no split either
    with pytest.raises(ParameterError, match="no parity split"):
        even.even
    # the torsion field is the lifted block torsion, which the block solves directly
    full = solve_dirichlet(system, 1.0)
    assert np.array_equal(even.torsion, solve_dirichlet(even, 1.0))
    assert np.array_equal(system.torsion, system.lift(even.torsion))
    assert np.abs(system.torsion - full).max() <= 1e-13 * np.abs(full).max()


@settings(max_examples=30, deadline=None)
@given(s=st.floats(0.05, 0.49), n=st.sampled_from([16, 31, 64]))
def test_principal_eigenpair_matches_full_pencil(s, n):
    """the two blocks raise exactly when the full pencil's lowest mode changes sign"""
    system = assemble(build_grid(-1.0, 1.0, n), s)
    vals, vecs = eigh(system.stiffness, np.diag(system.massw), subset_by_index=[0, 0])
    phi = vecs[:, 0] * np.sign(vecs[np.argmax(np.abs(vecs[:, 0])), 0])
    if phi.min() <= 0.0:
        with pytest.raises(ConvergenceError, match="principal mode is not strictly positive"):
            principal_eigenpair(system)
        return
    spec = principal_eigenpair(system)
    assert abs(spec.value - vals[0]) <= 1e-12 * vals[0]


def test_odd_lowest_mode_is_diagnosed():
    """small s on a coarse grid: the lowest mode is an odd sawtooth, and the error says so"""
    system = assemble(build_grid(-1.0, 1.0, 64), 0.1)
    even = system.even
    even_val = eigh(even.stiffness, np.diag(even.massw), eigvals_only=True,
                    subset_by_index=[0, 0])[0]
    with pytest.raises(ConvergenceError) as info:
        principal_eigenpair(system)
    msg = str(info.value)
    assert msg.startswith("principal mode is not strictly positive: lowest mode is odd")
    assert f"even block {float(even_val)!r}" in msg


@pytest.mark.parametrize("s", [0.3, 0.4, 0.45])
def test_odd_block_cholesky_matches_eigenvalues(s):
    """the odd test's Cholesky of A_o - lam1 M_o agrees with the odd block's lowest eigenvalue"""
    system = assemble(build_grid(-1.0, 1.0, 64), s)
    lam1 = principal_eigenpair(system).value
    odd_a, odd_m = _parity_block(system, -1.0)
    lam_odd = eigh(odd_a, np.diag(odd_m), eigvals_only=True, subset_by_index=[0, 0])[0]
    assert lam_odd > lam1
    assert is_positive_definite(odd_a - np.diag(lam1 * odd_m))
    assert not is_positive_definite(odd_a - np.diag(lam_odd * 1.001 * odd_m))


def test_is_positive_definite_reads_the_inertia(system64):
    lam1 = principal_eigenpair(system64).value
    A, m = system64.stiffness, system64.massw
    assert is_positive_definite(A)
    assert is_positive_definite(A - np.diag(0.999 * lam1 * m))
    assert not is_positive_definite(A - np.diag(1.001 * lam1 * m))
    assert not is_positive_definite(np.diag([1.0, -1.0]))


def test_row_products_match_matmul_bit_for_bit(system64, system128, w128, rng):
    # scipy's dgemv and numpy's matmul are two OpenBLAS builds; they agree bit
    # for bit with numpy 2.4.6 (OpenBLAS 0.3.31) and scipy 1.17.1 (0.3.30) on
    # x86-64, not by any guarantee, so a failure here flags a changed
    # environment.  The F-ordered and strided cases stay with numpy.
    A = system64.stiffness
    inverse = system64.solve(np.eye(64))
    u = rng.standard_normal(64)
    B = rng.standard_normal((40, 64))
    assert A.flags.c_contiguous and inverse.flags.f_contiguous
    assert not w128.flags.writeable
    for matrix, v in [
        (A, u),
        (inverse, u),
        (B, u),
        (B.T, u[:40]),
        (A[::2, ::2], u[:32]),
        (system128.stiffness, w128),
    ]:
        assert np.array_equal(row_products(matrix, v), matrix @ v)
    V = rng.standard_normal((5, 64))
    assert np.array_equal(row_products(A, V), np.stack([A @ v for v in V]))


def test_single_field_products_run_in_scipys_blas(system64, rng, monkeypatch):
    calls = []
    dgemv = fraclab.operator.dgemv

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return dgemv(*args, **kwargs)

    monkeypatch.setattr(fraclab.operator, "dgemv", counting)
    p = ProblemParams(s=0.4, q=2.0)
    U = 0.1 + rng.random((3, 64))
    defect(system64, p, U[0])
    assert calls == [(64, 64)]
    defect(system64, p, U)
    assert len(calls) == 1


def test_no_matrix_product_outside_row_products():
    """Every ``@`` in the package is in ``row_products``, so no matrix-vector
    product by a single field runs in numpy's OpenBLAS beside scipy's.

    The one exception is ``holder_fit``'s n x 2 least-squares prediction,
    far too small to wake a thread pool; scipy's kernel would change its bits.
    """
    allowed = {"operator.py": "row_products", "bifurcation.py": "holder_fit"}
    inside, stray = [], []
    for path in sorted(pathlib.Path(fraclab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        spans = [(f.lineno, f.end_lineno) for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef) and f.name == allowed.get(path.name)]
        for node in ast.walk(tree):
            if isinstance(getattr(node, "op", None), ast.MatMult):
                hit = (path.name, node.lineno)
                (inside if any(a <= node.lineno <= b for a, b in spans) else stray).append(hit)
    assert stray == []
    assert len(inside) == 2


def test_nonlinearity_is_spelled_in_operator_only():
    """Every ``**`` whose exponent is the singular or the critical power lives
    in ``operator.py``, so the source u^{-q} + g + lam u^{crit-1} and its
    lam-derivative have one spelling (``source``, ``critical_power``).

    The one exception is ``sobolev_constant``'s gradient of the critical
    embedding quotient, a different functional.
    """
    powers = {"-params.q", "-q", "params.crit - 1.0", "ts - 1.0"}
    sites = []
    for path in sorted(pathlib.Path(fraclab.__file__).parent.glob("*.py")):
        if path.name == "operator.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and ast.unparse(node.right) in powers):
                sites.append((path.name, ast.unparse(node)))
    assert sites == [("variational.py", "np.abs(un) ** (ts - 1.0)")]


def test_no_unused_module_imports():
    """Every name a module of the package imports at module level is read in
    that module.  ``__init__.py`` imports to re-export, and ``from __future__``
    binds nothing."""
    unused = []
    for path in sorted(pathlib.Path(fraclab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append((path.name, bound))
    assert unused == []


@pytest.mark.parametrize("q, lam", [(0.5, 0.0), (1.0, 0.02), (2.0, 0.05)])
def test_stacked_energy_and_defect_match_rows(system64, rng, q, lam):
    p = ProblemParams(s=0.4, q=q, lam=lam)
    U = 0.1 + rng.random((5, 64))
    E = energy(system64, p, U)
    D = defect(system64, p, U)
    assert E.shape == (5,) and D.shape == (5, 64)
    for i, u in enumerate(U):
        assert abs(E[i] - energy(system64, p, u)) <= 1e-13 * abs(energy(system64, p, u))
        d = defect(system64, p, u)
        assert np.abs(D[i] - d).max() <= 1e-13 * np.abs(d).max()


@pytest.mark.parametrize("q, lam, g", [(0.5, 0.0, 0.0), (2.0, 0.05, 0.3), (1.0, 0.02, "field")])
def test_source_takes_scalar_field_and_stack(rng, q, lam, g):
    p = ProblemParams(s=0.4, q=q, lam=lam)
    U = 0.1 + rng.random((3, 16))
    g = rng.random(16) if g == "field" else g
    S, C = source(p, U, g), critical_power(p, U)
    for i, u in enumerate(U):
        assert np.array_equal(S[i], source(p, u, g))
        assert np.array_equal(C[i], critical_power(p, u))
        gj = g[5] if np.ndim(g) else g
        assert source(p, float(u[5]), gj) == S[i, 5]
        assert critical_power(p, float(u[5])) == C[i, 5]


@pytest.mark.parametrize("q, lam", [(0.5, 0.0), (2.0, 0.05)])
def test_defect_is_products_less_weighted_source(system64, rng, q, lam):
    p = ProblemParams(s=0.4, q=q, lam=lam)
    g = rng.random(64)
    for u in (0.1 + rng.random(64), 0.1 + rng.random((3, 64))):
        expected = row_products(system64.stiffness, u) - system64.massw * source(p, u, g)
        assert np.array_equal(defect(system64, p, u, g), expected)


def test_frozen_source_never_forms_the_critical_power():
    # crit - 1 = 199 at s = 0.495: u = 1e3 would overflow u^{crit-1}
    p = ProblemParams(s=0.495, q=2.0)
    u = np.full(8, 1e3)
    with np.errstate(over="raise"):
        assert np.isfinite(source(p, u, 1.0)).all()
    with pytest.raises(FloatingPointError), np.errstate(over="raise"):
        source(p.with_lam(0.01), u)


@pytest.mark.parametrize("eps", [0.1, 1e-4])
def test_regularized_level_is_a_shifted_frozen_source(system64, rng, eps):
    """A (u + eps) = A u + eps A 1: the defect at u + eps with the source
    eps (A 1) / massw is the regularized defect A u - massw (u + eps)^{-q}"""
    p = ProblemParams(s=0.4, q=2.0)
    a1 = row_products(system64.stiffness, np.ones(64)) / system64.massw
    assert a1.min() > 0.0
    u = 0.1 + rng.random(64)
    au = row_products(system64.stiffness, u)
    shifted = defect(system64, p, u + eps, eps * a1)
    regularized = au - system64.massw * (u + eps) ** (-p.q)
    assert np.abs(shifted - regularized).max() <= 1e-12 * np.abs(au).max()


def test_stacked_energy_keeps_the_zero_node_rule_per_row(system64, rng):
    U = 0.1 + rng.random((3, 64))
    U[1, 0] = 0.0
    E = energy(system64, ProblemParams(s=0.4, q=2.0), U)
    assert np.isinf(E[1]) and np.isfinite(E[[0, 2]]).all()
    with pytest.raises(ParameterError):
        energy(system64, ProblemParams(s=0.4, q=0.5), -U)


def test_boundary_distance_used_by_profiles(grid128):
    d = boundary_distance(grid128)
    half_width = 0.5 * (grid128.b - grid128.a)
    assert d.max() == pytest.approx(half_width - 0.5 * grid128.h, rel=1e-12)
