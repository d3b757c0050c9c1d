"""Distributions on a finite domain and the lookup-table oracles that generate them.

A distribution on ``{0, ..., n-1}`` is stored as a vector of non-negative
integer counts over a common denominator ``s``, so every weight is the exact
rational ``counts[i] / s``.  An oracle is a plain lookup table ``[s] -> [n]``;
drawing one classical sample means reading the table at a uniformly random
input; :func:`make_oracle` lays tables out in element order, drawing nothing.
Distances and inner products are evaluated in exact integer arithmetic and
only converted to float at the very end, which makes round-trips through
:func:`make_oracle` / :func:`distribution_of` exact.

All stochastic helpers take an explicit :class:`numpy.random.Generator` and
an optional :class:`QueryLedger`, so experiments are replayable and every
oracle access is auditable.  Oracle guarantees do not depend on the table
size: inflating ``s`` by any integer factor leaves the generated
distribution, and therefore all tester behaviour, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "Distribution",
    "OracleTable",
    "QueryLedger",
    "make_oracle",
    "distribution_of",
    "classical_sample",
    "classical_samples",
    "l1_distance",
    "inner_product",
    "moment",
    "uniform",
    "half_support",
    "biased_pair",
    "disjoint_pair",
    "overlapping_pair",
    "save_oracle",
    "load_oracle",
]

# Threshold below which cross-multiplied integer sums provably fit in int64.
_INT64_SAFE = 2**62


@dataclass
class QueryLedger:
    """Audit counters for oracle access.

    ``classical_samples`` counts table reads at random inputs;
    ``quantum_applications`` counts applications of the reversible oracle
    (one per rotation step of the amplitude-estimation routine, which is the
    convention used throughout this package).  Counters only ever grow.
    """

    classical_samples: int = 0
    quantum_applications: int = 0

    def add_classical(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("ledger increments must be non-negative")
        self.classical_samples += int(k)

    def add_quantum(self, k: int = 1) -> None:
        if k < 0:
            raise ValueError("ledger increments must be non-negative")
        self.quantum_applications += int(k)

    @property
    def total(self) -> int:
        return self.classical_samples + self.quantum_applications


class Distribution:
    """Exact rational distribution on ``{0, ..., n-1}``.

    Parameters
    ----------
    counts : array_like of int
        Non-negative integers; ``counts[i] / denominator`` is the weight of
        element ``i``.
    denominator : int
        Common denominator; must equal ``sum(counts)``.
    """

    __slots__ = ("counts", "denominator", "_weights")

    def __init__(self, counts, denominator: int):
        arr = np.asarray(counts, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("counts must be a non-empty 1-d integer vector")
        if arr.min() < 0:
            raise ValueError("weights must be non-negative")
        denominator = int(denominator)
        if denominator < 1:
            raise ValueError("denominator must be a positive integer")
        if int(arr.sum()) != denominator:
            raise ValueError("weights must sum to exactly 1 (counts to denominator)")
        arr.flags.writeable = False
        self.counts = arr
        self.denominator = denominator
        self._weights = None

    @property
    def n(self) -> int:
        """Support-size parameter (length of the weight vector)."""
        return int(self.counts.size)

    @property
    def weights(self) -> np.ndarray:
        """Float view ``counts / denominator`` (computed once)."""
        if self._weights is None:
            w = self.counts / self.denominator
            w.flags.writeable = False
            self._weights = w
        return self._weights

    @property
    def max_weight(self) -> float:
        return int(self.counts.max()) / self.denominator

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        if self.n != other.n:
            return False
        # Cross-multiplied comparison keeps equality exact across denominators.
        return bool(
            np.array_equal(
                self.counts * other.denominator, other.counts * self.denominator
            )
        )

    def __hash__(self):
        g = math.gcd(int(np.gcd.reduce(self.counts)), self.denominator)
        return hash((self.n, self.denominator // g, tuple(self.counts // g)))

    def __repr__(self) -> str:
        return f"Distribution(n={self.n}, denominator={self.denominator})"


class OracleTable:
    """Lookup table ``[s] -> [n]`` presenting a distribution as an oracle.

    The table is the only interface through which testers may touch a
    distribution.  Relabeling inputs (composing with any permutation of the
    domain) leaves the generated distribution unchanged.
    """

    __slots__ = ("table", "n", "_dist")

    def __init__(self, table, n: int):
        arr = np.asarray(table, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("oracle table must be a non-empty 1-d integer vector")
        n = int(n)
        if n < 1:
            raise ValueError("range size must be a positive integer")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("table values must lie in [0, n)")
        arr.flags.writeable = False
        self.table = arr
        self.n = n
        self._dist = None

    @property
    def s(self) -> int:
        """Domain size of the table."""
        return int(self.table.size)

    def distribution(self) -> Distribution:
        """Exact preimage-fraction distribution (cached)."""
        if self._dist is None:
            counts = np.bincount(self.table, minlength=self.n)
            self._dist = Distribution(counts, self.s)
        return self._dist

    def compose(self, sigma) -> "OracleTable":
        """Return the oracle ``s -> table[sigma[s]]`` for a domain permutation."""
        sigma = np.asarray(sigma, dtype=np.int64)
        if sigma.size != self.s or not np.array_equal(np.sort(sigma), np.arange(self.s)):
            raise ValueError("sigma must be a permutation of the oracle domain")
        return OracleTable(self.table[sigma], self.n)

    def __repr__(self) -> str:
        return f"OracleTable(s={self.s}, n={self.n})"


def make_oracle(p: Distribution, s: int, seed=None) -> OracleTable:
    """Build a table of size ``s`` generating ``p``: ``p_i * s`` copies of each
    ``i``, in element order.  Testers read tables only at uniformly random
    inputs, so the layout is invisible to them; the oracle gets ``p`` (over
    denominator ``s``) instead of counting its table.  ``seed`` is unused,
    since nothing is drawn; it is kept for callers written for the shuffled
    tables of 0.2.0 and earlier.

    Raises
    ------
    ValueError
        If some ``p_i * s`` is not an integer.
    """
    s = int(s)
    if s < 1:
        raise ValueError("oracle size must be a positive integer")
    dist = p
    if s != p.denominator:
        # p_i * s = counts_i / (den/g) * (s/g) with g = gcd(den, s): integral
        # iff den/g divides counts_i, and no intermediate value exceeds s.
        g = math.gcd(p.denominator, s)
        step = p.denominator // g
        if np.any(p.counts % step):
            raise ValueError(
                f"every weight times s must be an integer (s={s}, denominator={p.denominator})"
            )
        dist = Distribution(p.counts // step * (s // g), s)
    o = object.__new__(OracleTable)  # in range by construction: skip __init__'s scan
    o.table = np.repeat(np.arange(p.n, dtype=np.int64), dist.counts)
    o.table.flags.writeable = False
    o.n, o._dist = p.n, dist
    return o


def distribution_of(o: OracleTable) -> Distribution:
    """Exact distribution generated by the table: preimage fractions."""
    return o.distribution()


def classical_sample(o: OracleTable, rng: np.random.Generator, ledger: QueryLedger | None = None) -> int:
    """Query the table at a uniformly random input; one classical query."""
    value = int(o.table[rng.integers(0, o.s)])
    if ledger is not None:
        ledger.add_classical(1)
    return value


def classical_samples(
    o: OracleTable, size: int, rng: np.random.Generator, ledger: QueryLedger | None = None
) -> np.ndarray:
    """Vectorized batch of independent classical samples (``size`` queries)."""
    idx = rng.integers(0, o.s, size=size)
    if ledger is not None:
        ledger.add_classical(size)
    return o.table[idx]


def _check_same_support(p: Distribution, q: Distribution) -> None:
    if p.n != q.n:
        raise ValueError(f"support sizes differ: {p.n} != {q.n}")


def l1_distance(p: Distribution, q: Distribution) -> float:
    """L1 distance ``sum |p_i - q_i|``, exact up to one final float rounding."""
    _check_same_support(p, q)
    s1, s2 = p.denominator, q.denominator
    if 2 * p.n * s1 * s2 < _INT64_SAFE:
        num = int(np.abs(p.counts * s2 - q.counts * s1).sum())
    else:
        num = sum(
            abs(int(a) * s2 - int(b) * s1)
            for a, b in zip(p.counts.tolist(), q.counts.tolist())
        )
    return num / (s1 * s2)


def inner_product(p: Distribution, q: Distribution) -> float:
    """Inner product ``sum p_i q_i``, exact up to one final float rounding."""
    _check_same_support(p, q)
    s1, s2 = p.denominator, q.denominator
    if p.n * s1 * s2 < _INT64_SAFE:
        num = int((p.counts * q.counts).sum())
    else:
        num = sum(int(a) * int(b) for a, b in zip(p.counts.tolist(), q.counts.tolist()))
    return num / (s1 * s2)


def moment(p: Distribution, k: int) -> float:
    """k-th power sum ``sum p_i^k``.  Minimized by the uniform distribution.

    ``moment(p, 1)`` is exactly 1 because weights sum to one by construction.
    """
    k = int(k)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if k == 1:
        return 1.0
    return float(np.sum(p.weights**k))


def _as_fraction(x, name: str = "epsilon") -> Fraction:
    """Coerce a parameter to an exact small-denominator rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    f = Fraction(float(x)).limit_denominator(10**6)
    if abs(float(f) - float(x)) > 1e-12 * max(1.0, abs(float(x))):
        raise ValueError(f"{name}={x!r} does not admit a small-denominator rational")
    return f


def _reduced(counts: np.ndarray, den: int) -> Distribution:
    g = math.gcd(int(np.gcd.reduce(counts)), den)
    if g > 1:
        counts = counts // g
        den //= g
    return Distribution(counts, den)


def uniform(n: int) -> Distribution:
    """Uniform distribution on ``n`` elements (recommended oracle size: ``n``)."""
    if n < 1:
        raise ValueError("n must be positive")
    return Distribution(np.ones(n, dtype=np.int64), n)


def half_support(n: int) -> Distribution:
    """Mass ``2/n`` on the first half, zero on the second.

    The canonical distribution at L1 distance exactly 1 from uniform.
    Recommended oracle size: ``n // 2``.
    """
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    counts = np.zeros(n, dtype=np.int64)
    counts[: n // 2] = 1
    return Distribution(counts, n // 2)


def biased_pair(n: int, eps) -> tuple[Distribution, Distribution]:
    """Return ``(p, u)`` with weights ``(1 +- eps)/n`` on the two halves.

    ``l1_distance(p, u) == eps`` exactly; this is the canonical
    eps-nonuniform instance.
    """
    f = _as_fraction(eps)
    if not 0 < f <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    a, b = f.numerator, f.denominator
    counts = np.empty(n, dtype=np.int64)
    counts[: n // 2] = b + a
    counts[n // 2 :] = b - a
    p = _reduced(counts, b * n)
    u = uniform(n)
    assert l1_distance(p, u) == float(f)
    return p, u


def disjoint_pair(n: int) -> tuple[Distribution, Distribution]:
    """Two uniform distributions on disjoint halves: L1 distance exactly 2."""
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    h = n // 2
    cp = np.zeros(n, dtype=np.int64)
    cq = np.zeros(n, dtype=np.int64)
    cp[:h] = 1
    cq[h:] = 1
    p, q = Distribution(cp, h), Distribution(cq, h)
    assert l1_distance(p, q) == 2.0
    return p, q


def overlapping_pair(n: int, eps) -> tuple[Distribution, Distribution]:
    """Pair at L1 distance exactly ``2 - eps``.

    ``p`` is uniform on the first half; ``q`` keeps mass ``eps/2`` there
    (spread uniformly) and puts the rest on the second half.
    """
    f = _as_fraction(eps)
    if not 0 < f <= 2:
        raise ValueError("eps must lie in (0, 2]")
    if n < 2 or n % 2:
        raise ValueError("n must be an even integer >= 2")
    a, b = f.numerator, f.denominator
    h = n // 2
    cp = np.zeros(n, dtype=np.int64)
    cp[:h] = 2 * b
    cq = np.empty(n, dtype=np.int64)
    cq[:h] = a
    cq[h:] = 2 * b - a
    p = _reduced(cp, b * n)
    q = _reduced(cq, b * n)
    assert l1_distance(p, q) == float(2 - f)
    return p, q


def save_oracle(o: OracleTable, path, kind: str | None = None) -> None:
    """Write the plain-text instance format: optional ``kind`` line, then
    ``n s`` header, then the ``s`` zero-based table entries, one per line."""
    lines = []
    if kind is not None:
        if any(ch.isspace() for ch in kind):
            raise ValueError("kind must be a single token")
        lines.append(f"kind {kind}")
    lines.append(f"{o.n} {o.s}")
    lines.extend(str(int(v)) for v in o.table)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_oracle(path) -> tuple[OracleTable, str | None]:
    """Read the plain-text instance format; returns ``(oracle, kind)``."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    tokens = [t for t in tokens if t.strip()]
    kind = None
    if tokens and tokens[0].startswith("kind "):
        kind = tokens[0].split(maxsplit=1)[1]
        tokens = tokens[1:]
    if not tokens:
        raise ValueError("empty instance file")
    head = tokens[0].split()
    if len(head) != 2:
        raise ValueError("header must be two integers: n s")
    n, s = int(head[0]), int(head[1])
    entries = [int(t) for t in tokens[1:]]
    if len(entries) != s:
        raise ValueError(f"expected {s} table entries, found {len(entries)}")
    return OracleTable(np.asarray(entries, dtype=np.int64), n), kind
