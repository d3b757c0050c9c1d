"""Reference computations the benchmark checks the program against.

Everything here is written from the method's definitions, not from the
program's code: the closed-form outcome law of m-step amplitude estimation,
the exact distance of each instance pair as it is built, the practical-mode
parameter formulas, and the statistical cuts used on rates.  Nothing here
imports the program.
"""

from __future__ import annotations

import math
import numpy as np

# Chance that one statistical check fails on correct code (each check).
FALSE_FAILURE_RATE = 1e-6


def exact_cube_root(n: int) -> float:
    """Cube root of ``n``, exact when ``n`` is a perfect cube."""
    r = round(n ** (1 / 3))
    return float(r) if r**3 == n else n ** (1 / 3)


def outcome_law(a: float, m: int) -> np.ndarray:
    """Law of the outcome ``y`` in ``{0..m-1}`` of m-step amplitude estimation.

    The start state splits evenly over the two eigenvectors of the rotation,
    with eigenphases ``+phi`` and ``-phi`` (``sin^2(pi phi) = a``).  A phase
    ``x`` read on an m-point register gives outcome ``y`` with probability
    ``sin^2(pi (y - m x)) / (m^2 sin^2(pi (y - m x) / m))``, which is 1 where
    ``y - m x`` is a multiple of ``m`` (the phase sits on the grid).
    """
    if not 0.0 <= a <= 1.0 or m < 1:
        raise ValueError("need 0 <= a <= 1 and m >= 1")
    phi = math.asin(math.sqrt(a)) / math.pi
    y = np.arange(m, dtype=float)
    law = np.zeros(m)
    for centre in (m * phi, -m * phi):
        offset = y - centre
        # Reduce the offset to (-m/2, m/2]: the kernel has period m in it.
        offset -= m * np.round(offset / m)
        on_grid = np.abs(offset) < 1e-9
        safe = np.where(on_grid, 1.0, offset)
        kernel = np.sin(np.pi * safe) ** 2 / (m * np.sin(np.pi * safe / m)) ** 2
        law += 0.5 * np.where(on_grid, 1.0, kernel)
    return law


def chi_square_pvalue(outcomes: dict[int, int], law: np.ndarray) -> float:
    """Chi-square p-value of observed outcome counts against ``law``.

    Outcomes whose expected count reaches 5 get a cell each; all other
    outcomes share one cell.
    """
    min_expected = 5.0
    total = sum(outcomes.values())
    expected = total * law
    cells = np.flatnonzero(expected >= min_expected)
    observed = np.zeros(cells.size + 1)
    exp = np.zeros(cells.size + 1)
    index = {int(y): i for i, y in enumerate(cells)}
    for y, count in outcomes.items():
        observed[index.get(int(y), cells.size)] += count
    exp[: cells.size] = expected[cells]
    exp[cells.size] = total - expected[cells].sum()
    if exp[cells.size] < min_expected:
        # Too little mass outside the cells to form a cell of its own.
        observed[cells.size - 1] += observed[cells.size]
        exp[cells.size - 1] += exp[cells.size]
        observed, exp = observed[:-1], exp[:-1]
    from scipy import stats

    statistic = float(((observed - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(statistic, observed.size - 1))


def rate_at_least(successes: int, trials: int, rate: float) -> bool:
    """One-sided binomial cut: is ``successes`` of ``trials`` consistent with
    a success rate of at least ``rate``?

    Fails with probability at most ``FALSE_FAILURE_RATE`` when the true rate
    is ``rate`` or more.
    """
    from scipy import stats

    if trials < 1:
        return False
    return float(stats.binom.cdf(successes, trials, rate)) >= FALSE_FAILURE_RATE


# ---------------------------------------------------------------------------
# Instances and parameters as the benchmark builds them


def pair_distance(pair: str, eps: float = 1.0) -> float:
    """L1 distance of an instance pair, from how it is built: 0 for two
    copies of one distribution, ``2 - eps`` for the overlapping pair, 2 for
    disjoint supports."""
    return {"identical": 0.0, "overlapping": 2.0 - eps, "disjoint": 2.0}[pair]


def estdist_ledger(n: int) -> tuple[int, int]:
    """(classical, quantum) queries of one practical-mode distance estimate:
    100 samples, each one classical draw and two singleton estimates of
    ``ceil(200 sqrt(n))`` steps."""
    return 100, 2 * 100 * math.ceil(200 * math.sqrt(n))


def uniformity_m_k(n: int, eps: float) -> tuple[int, int]:
    """Practical uniformity round: ``M = max(4, ceil(0.25 B))`` samples and
    ``K = ceil(300 B)`` estimation steps, ``B = n^(1/3) / eps^(4/3)``."""
    base = exact_cube_root(n) / eps ** (4 / 3)
    return max(4, math.ceil(0.25 * base)), math.ceil(300 * base)


def orthogonality_m_k(n: int, eps: float) -> tuple[int, int]:
    """Orthogonality round: ``M = K = ceil(n^(1/3) / eps)``."""
    mk = math.ceil(exact_cube_root(n) / eps)
    return mk, mk
