"""Outcomes that survive the last bits: the ulp-perturbation harness.

The BLAS thread count, a BLAS kernel or a reordered sum changes the last
bits of every result, and the mountain-pass band's sweep count follows its
bits.  What must not follow them is the outcome.  Each named op below runs
``mountain_pass_search`` at N = 256 on (-1, 1), at lambda = f * lambda*_ref
(``perfbench/table.json``'s value at N = 256), four times:

- at the base, the minimal solution ``first``;
- at two seeded, reflection-even 1-ulp perturbations of it,
  first * (1 + 2.2e-16 xi), xi even and standard normal;
- with the Sobolev constant (a closed form) moved up by one ulp, which
  moves the band's bubble direction.

Every run must end with the same exit, the same second solution to 1e-10
relative in the max norm, and the same Morse index: the count of negative
eigenvalues of the full Jacobian, none of which may lie within 1e-6 of
zero.  Each op's exit, energy (to 1e-10 relative) and index are frozen
below, so a change that moves bits passes only if it moves no outcome.

The window s = 0.35, q = 0.5, lambda ~ 0.0118-0.0128 is not among them.
There the band creeps along the shallow second even direction of the
Jacobian, and its sweep count depends on the BLAS thread count and on
1-ulp perturbations of the base: the same op may end in 320 sweeps at one
thread and in 450 at two, and some ops take more than 600.  The point it
reaches does not depend on them, so the window's outcome is frozen too, by
two ops that run once each.
"""

import numpy as np
import pytest

import fraclab.variational
from fraclab import (
    ProblemParams,
    assemble,
    build_grid,
    monotone_iteration,
    mountain_pass_search,
    scan_supersolution,
)
from fraclab.operator import jacobian

N = 256
LAMBDA_STAR_REF = {  # (s, q): lambda*_ref at N = 256
    (0.3, 1.0): 0.1275710707454507,
    (0.35, 0.5): 0.06096723263148833,
    (0.4, 2.0): 0.060901989223406006,
    (0.45, 3.0): 0.023118433407129647,
}
# (s, q, f): (energy, Morse index); the frozen exit of every op is success,
# so a ConvergenceError fails the test
FROZEN = {
    (0.3, 1.0, 0.3): (1.9567362719059334, 4),
    (0.3, 1.0, 0.7): (1.2254058223997513, 1),
    (0.35, 0.5, 0.3): (-2.5085842707059425, 1),
    (0.35, 0.5, 0.7): (-2.800411146403852, 1),
    (0.4, 2.0, 0.3): (3.337955874142397, 2),
    (0.4, 2.0, 0.7): (3.249535331159024, 1),
    (0.45, 3.0, 0.3): (2.402022400319668, 2),
    (0.45, 3.0, 0.7): (2.3840954951107016, 1),
}


@pytest.fixture(scope="module")
def systems():
    return {s: assemble(build_grid(-1.0, 1.0, N), s) for s, _ in LAMBDA_STAR_REF}


def _outcome(system, params, first):
    """(second solution, energy, Morse index) of one search."""
    second, rep = mountain_pass_search(system, params, first)
    mu = np.linalg.eigvalsh(jacobian(system, params, second))
    assert np.abs(mu).min() > 1e-6, "an eigenvalue of J too close to zero to read the index"
    return second, rep.energy, int(np.count_nonzero(mu < 0.0))


@pytest.mark.parametrize("s, q, f", list(FROZEN))
def test_outcome_survives_ulp_perturbations(systems, monkeypatch, s, q, f):
    system = systems[s]
    params = ProblemParams(s=s, q=q, lam=f * LAMBDA_STAR_REF[(s, q)])
    sup = scan_supersolution(system, params)
    first, rep = monotone_iteration(system, params, bound=sup.values)
    assert rep.converged

    rng = np.random.default_rng(20240817)
    k = system.even.massw.shape[0]
    firsts = [first] + [first * (1.0 + 2.2e-16 * system.lift(rng.standard_normal(k)))
                        for _ in range(2)]
    runs = [_outcome(system, params, u) for u in firsts]
    sobolev = fraclab.variational.sobolev_constant(system)
    monkeypatch.setattr(fraclab.variational, "sobolev_constant",
                        lambda sy: np.nextafter(sobolev, np.inf))
    runs.append(_outcome(system, params, first))

    energy, index = FROZEN[(s, q, f)]
    base = runs[0][0]
    for second, level, morse in runs:
        assert np.abs(second - base).max() <= 1e-10 * np.abs(base).max()
        assert level == pytest.approx(energy, rel=1e-10)
        assert morse == index


def test_window_op_reaches_the_even_saddle():
    # two of the benchmark's second-branch ops in the window.  Op 148 at
    # seed 7: under the closed-form Sobolev constant the band ends in 320
    # sweeps at one BLAS thread and in 450 at two.  The seed-140 op: the band
    # takes more than 600 sweeps at one thread; its smallest |eigenvalue| of
    # J is 3.4e-3
    for a, lam, energy in [(0.25, 0.012339939822836982, -2.323222557624653),
                           (0.0, 0.012332051153931774, -2.322923760293315)]:
        system = assemble(build_grid(a, a + 2.0, N), 0.35)
        params = ProblemParams(s=0.35, q=0.5, lam=lam)
        sup = scan_supersolution(system, params)
        first, rep = monotone_iteration(system, params, bound=sup.values)
        assert rep.converged
        second, level, morse = _outcome(system, params, first)
        assert (second - first).min() >= -1e-8
        assert level == pytest.approx(energy, rel=1e-10)
        assert morse == 2
