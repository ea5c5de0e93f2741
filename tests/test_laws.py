"""Exact identities of the law tables, and the coefficient mutants they catch.

Each table is rebuilt here as a sympy polynomial, read row by row without
the package's evaluator, so every identity holds exactly, not to a
tolerance on a grid.  The identities read the tables from their modules at
call time, so a monkeypatched table is what they check.
"""

from functools import cache

import pytest
import sympy as sp
from sympy.polys.rings import ring

import test_hbt
from opahbt import hbt, opa, photon_stats

# Exact integer polynomials in the source means and nu^2.
RING, N, n, m, v = ring("N n m v", sp.ZZ)


def polynomial(table, *variables):
    """``table`` at ``variables``: its rows, each group times its own table."""
    total = RING(0)
    for coefficient, powers in table:
        monomial = 1
        for x, k in zip(variables, powers):
            if k:
                monomial *= x**k
        if isinstance(coefficient, tuple):
            total += monomial * polynomial(coefficient, *variables[len(powers):])
        else:
            total += coefficient * monomial
    return total


def thermal(x, tables=None):
    """The four moment polynomials of ``tables`` (default CORRECTED) at mean ``x``."""
    return [polynomial(table, x) for table in tables or photon_stats.CORRECTED]


def plain(x, y):
    return polynomial(hbt.PLAIN_NOISE, x, y)


def amplified(x, y, gains=(1 + v, v)):
    """The published amplified law, by default at mu^2 = 1 + nu^2."""
    return polynomial(hbt.AMPLIFIED_NOISE, *gains, x, y)


@cache
def generated_moments():
    """<n^j>, j = 1..4, as derivatives at t = 0 of the thermal generating function."""
    t, mean = sp.symbols("t N")
    generating = 1 / (1 - mean * (sp.exp(t) - 1))
    return [RING(sp.expand(sp.diff(generating, t, j).subs(t, 0))) for j in range(1, 5)]


def plain_is_the_phase_averaged_noise_at_thermal_moments() -> bool:
    # cos(delta) and cos(2 delta) average to zero over the phase.
    return polynomial(hbt.NOISE_FULL, *thermal(n), *thermal(m), 0, 0) == plain(n, m)


def propagation_keeps_thermal_light_thermal() -> bool:
    out = [polynomial(table, 1 + v, v, *thermal(N)) for table in opa.PROPAGATION]
    return out == thermal((1 + v) * N + v)


def printed_third_moment_is_low_by_five_cubes() -> bool:
    gaps = [a - b for a, b in zip(thermal(N), thermal(N, photon_stats.PAPER_PRINTED))]
    return gaps == [0, 0, 5 * N**3, 0]


def corrected_moments_are_the_generating_function_derivatives() -> bool:
    return thermal(N) == generated_moments()


def zero_gain_gap() -> bool:
    gap = amplified(n, m, gains=(1, 0)) - plain(n, m)
    return gap == -4 * n * m * (7 * n * m + 2 * n + 2 * m + 1)


def swap_gap() -> bool:
    return amplified(n, m) - amplified(m, n) == 4 * (n - m) * (1 + v) * v**2


def substitution_gap() -> bool:
    def gap(x, y):
        return amplified(x, y) - plain((1 + v) * x + v, (1 + v) * y + v)

    return len(gap(n, m)) == 39 and gap(0, 0) == -(v**2) * (35 * v**2 + 25 * v + 6)


IDENTITIES = (
    plain_is_the_phase_averaged_noise_at_thermal_moments,
    propagation_keeps_thermal_light_thermal,
    printed_third_moment_is_low_by_five_cubes,
    corrected_moments_are_the_generating_function_derivatives,
    zero_gain_gap,
    swap_gap,
    substitution_gap,
)


@pytest.mark.parametrize("identity", IDENTITIES, ids=lambda f: f.__name__)
def test_identity_holds_exactly(identity):
    assert identity()


def test_noise_avg_is_the_cosine_free_rows_of_noise_full():
    rows = [(c, p[:8]) for c, p in hbt.NOISE_FULL if not any(p[8:])]
    assert list(hbt.NOISE_AVG) == rows and len(rows) == 10


# Every table a law reads, as (module, name, holds one table per moment).
TABLES = (
    (hbt, "PLAIN_NOISE", False),
    (hbt, "AMPLIFIED_NOISE", False),
    (hbt, "NOISE_FULL", False),
    (opa, "PROPAGATION", True),
    (photon_stats, "CORRECTED", True),
    (photon_stats, "PAPER_PRINTED", True),
)


def _shifted(table, step):
    """Every copy of ``table`` with one coefficient moved by ``step``, row path first."""
    for i, (coefficient, powers) in enumerate(table):
        if isinstance(coefficient, tuple):
            variants = [
                (path, (group, powers)) for path, group in _shifted(coefficient, step)
            ]
        else:
            variants = [((), (coefficient + step, powers))]
        for path, row in variants:
            yield (i, *path), table[:i] + (row,) + table[i + 1:]


def mutants():
    """(module, name, path, mutated value) for every +-1 coefficient mutant."""
    for module, name, per_moment in TABLES:
        value = getattr(module, name)
        for step in (1, -1):
            if per_moment:
                for j, table in enumerate(value):
                    for path, mutant in _shifted(table, step):
                        yield module, name, (j, *path, step), value[:j] + (mutant,) + value[j + 1:]
            else:
                for path, mutant in _shifted(value, step):
                    yield module, name, (*path, step), mutant


def _caught() -> bool:
    if not all(identity() for identity in IDENTITIES):
        return True
    try:
        test_hbt.test_amplified_noise_frozen_values()
    except AssertionError:
        return True
    return False


def test_every_coefficient_mutant_is_caught_but_the_cosine_rows(monkeypatch):
    # The cosine rows of NOISE_FULL have no independent reference yet: the
    # phase average drops them, and only the Fock variance could check them.
    cosine_rows = {i for i, (_, powers) in enumerate(hbt.NOISE_FULL) if any(powers[8:])}
    survivors, count = [], 0
    for module, name, path, mutant in mutants():
        count += 1
        with monkeypatch.context() as patch:
            patch.setattr(module, name, mutant)
            if not _caught():
                survivors.append((name, path))
    assert count == 220
    assert survivors == [
        ("NOISE_FULL", (row, step)) for step in (1, -1) for row in sorted(cosine_rows)
    ]
