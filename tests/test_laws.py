"""Exact identities of the law tables, the coefficient mutants they catch,
and the compiled kernels against a row-by-row float reference.

Each table is rebuilt here as a sympy polynomial, read row by row without
the package's compiled kernels, so every identity holds exactly, not to a
tolerance on a grid.  The identities read the tables from their modules at
call time, so a monkeypatched table is what they check.
"""

import math
from functools import cache

import numpy as np
import pytest
import sympy as sp
from sympy.polys.rings import ring

import test_hbt
from opahbt import OpaParams, hbt, opa, photon_stats
from opahbt._domain import kernel

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


def walked(table, *variables):
    """``table`` at ``variables`` row by row, in floats: the kernels' reference.

    A row is its coefficient times the powers left to right, a group row its
    monomial times its group, the rows add in table order, and each power
    above 1 is computed once by ``np.float_power``.
    """
    power = cache(lambda i, k: variables[i] if k == 1 else np.float_power(variables[i], k))

    def rows(table, first):
        total = None
        for coefficient, exponents in table:
            factors = [power(first + i, k) for i, k in enumerate(exponents) if k]
            if isinstance(coefficient, tuple):
                term = math.prod(factors) * rows(coefficient, first + len(exponents))
            else:
                term = math.prod(factors, start=coefficient)
            total = term if total is None else total + term
        return total

    return rows(table, 0)


def width(table):
    """The number of variables ``table`` reads, its groups' included."""
    coefficient, powers = table[0]
    return len(powers) + (width(coefficient) if isinstance(coefficient, tuple) else 0)


def compiled_tables():
    """(name, table) for every table a law evaluates, one per moment where there are four."""
    for module, name, per_moment in TABLES + ((hbt, "NOISE_AVG", False),):
        value = getattr(module, name)
        for j, table in enumerate(value if per_moment else (value,)):
            yield (f"{name}[{j}]" if per_moment else name), table


SPECIAL = np.array([0.0, 5e-324, 1e150, 1e300])


def same_bits(a, b) -> bool:
    return type(a) is type(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("table", [pytest.param(t, id=name) for name, t in compiled_tables()])
def test_compiled_kernel_matches_the_row_walker_bit_for_bit(table):
    rng = np.random.default_rng(31)
    pool = np.concatenate([SPECIAL, -SPECIAL, rng.uniform(-3, 3, 8), rng.lognormal(0, 4, 8)])
    # Every variable takes each special value at once first, then mixed draws.
    columns = [np.concatenate([SPECIAL, rng.choice(pool, 60)]) for _ in range(width(table))]
    with np.errstate(all="ignore"):
        assert same_bits(kernel(table)(*columns), walked(table, *columns))
        for j in range(24):
            for scalar in (np.float64, float):
                point = [scalar(column[j]) for column in columns]
                assert same_bits(kernel(table)(*point), walked(table, *point)), (j, scalar)


def test_a_rebound_table_is_what_its_law_evaluates(monkeypatch):
    # At unit means the plain law is the sum of its coefficients.
    assert hbt.noise_avg_printed(1.0, 1.0) == 466.0
    ratio = hbt.snr_ratio(1.0, 1.0, OpaParams(2.0))
    mutant = ((2, (1, 0)),) + hbt.PLAIN_NOISE[1:]
    with monkeypatch.context() as patch:
        patch.setattr(hbt, "PLAIN_NOISE", mutant)
        assert hbt.noise_avg_printed(1.0, 1.0) == 467.0
        snr = hbt.snr_ratio(1.0, 1.0, OpaParams(2.0))
        assert snr == pytest.approx(ratio * math.sqrt(467.0 / 466.0), rel=1e-14)
    assert hbt.noise_avg_printed(1.0, 1.0) == 466.0
    assert kernel(mutant) is kernel(mutant) is not kernel(hbt.PLAIN_NOISE)
