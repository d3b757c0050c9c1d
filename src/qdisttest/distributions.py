"""Distributions on a finite domain and the lookup-table oracles that generate them.

A distribution on ``{0, ..., n-1}`` has non-negative integer counts over a
common denominator ``s``, so every weight is the exact rational
``counts[i] / s``.  It is stored as blocks, the maximal runs of equal
counts, so the instance generators, which make one or two blocks, cost
O(1) whatever ``n``.  An oracle is a lookup table ``[s] -> [n]``; drawing
one classical sample means reading the table at a uniformly random input.
:func:`make_oracle` builds no table: its oracle reads the element-order
table (``counts[i]`` copies of each ``i`` in turn) of its distribution
from the blocks, drawing nothing.  Explicit tables keep their arrays.
Distances are evaluated in exact integer arithmetic over the merged blocks
and only converted to float at the very end, which makes round-trips
through :func:`make_oracle` / :func:`distribution_of` exact.

All stochastic helpers take an explicit :class:`numpy.random.Generator` and
an optional :class:`QueryLedger`, so experiments are replayable and every
oracle access is auditable.  :func:`make_oracle` builds the oracle of size
``s = denominator``.  An explicit table may have any size: repeating each of
its entries an integer number of times leaves the generated distribution,
and therefore all tester behaviour, unchanged.
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


def _int_vector(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array (the caller's array stays writable);
    ``ValueError`` unless it is a non-empty 1-d vector of a numpy integer type."""
    arr = np.array(values)
    if arr.ndim != 1 or arr.size == 0 or arr.dtype.kind not in "iu":
        raise ValueError(f"{what} must be a non-empty 1-d integer vector")
    return arr.astype(np.int64, copy=False)


def _count(x, what: str, low: int = 1) -> int:
    """``x`` as a Python int; ``ValueError`` naming ``what`` unless it is a
    count of at least ``low``: a Python or numpy integer that is not a bool.
    A float is rejected, never truncated."""
    if type(x) is int and x >= low:  # the common case, without isinstance
        return x
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < low:
        raise ValueError(f"{what} must be an integer >= {low}, got {x!r}")
    return int(x)


def _even(n, what: str) -> int:
    """``n`` as a Python int; ``ValueError`` unless it is an even integer >= 2."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2 or n % 2:
        raise ValueError(f"{what} must be an even integer >= 2")
    return int(n)


def _positive(x, what: str) -> None:
    """``ValueError`` naming ``what`` unless ``x`` is positive and finite (NaN fails)."""
    if not 0 < x < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {x!r}")


def _same_support(*oracles) -> int:
    """The support size the oracles share; ``ValueError`` if they differ."""
    if any(o.n != oracles[0].n for o in oracles):
        raise ValueError("oracles must share a support size")
    return oracles[0].n


def _elements(idx, n: int, ordered: bool = False) -> None:
    """``ValueError`` unless ``idx``, one element or a 1-d array of them, holds
    integers (not bools) that lie in [0, n); a sorted (``ordered``) array is
    read at its two ends only."""
    if isinstance(idx, np.ndarray):
        ok = idx.ndim == 1 and (not idx.size or idx.dtype.kind in "iu" and (
            (idx[0] if ordered else idx.min()) >= 0 and (idx[-1] if ordered else idx.max()) < n))
    else:
        ok = (type(idx) is int or isinstance(idx, np.integer)) and 0 <= idx < n
    if not ok:
        raise ValueError("target elements must be integers that lie in [0, n)")


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
        self.classical_samples += _count(k, "ledger increment", 0)

    def add_quantum(self, k: int = 1) -> None:
        self.quantum_applications += _count(k, "ledger increment", 0)

    @property
    def total(self) -> int:
        return self.classical_samples + self.quantum_applications


class Distribution:
    """Exact rational distribution on ``{0, ..., n-1}``, stored as blocks.

    Block ``j`` holds the elements from ``starts[j]`` up to the next start (or
    ``n``), each with count ``levels[j]``; an element's weight is its count
    over ``denominator``.  The blocks are canonical (maximal runs of equal
    counts), so equality reads only the blocks.  ``counts`` is
    built on first read.

    Parameters
    ----------
    counts : array_like of int
        Non-negative integers; ``counts[i] / denominator`` is the weight of
        element ``i``.
    denominator : int
        Common denominator; must equal ``sum(counts)``.
    """

    __slots__ = ("starts", "levels", "n", "denominator", "_counts", "_index")

    def __init__(self, counts, denominator: int):
        arr = _int_vector(counts, "counts")
        starts = np.concatenate(([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1))
        levels = arr[starts]  # every count is a level: below the bound the int64 sum is exact
        total = int(arr.sum()) if int(levels.max()) * arr.size < _INT64_SAFE else sum(arr.tolist())
        self._set_blocks(starts, levels, arr.size, denominator, total)

    @classmethod
    def from_blocks(cls, starts, levels, n: int, denominator: int) -> "Distribution":
        """Elements ``starts[j]`` up to ``starts[j+1]`` (or ``n``) have count
        ``levels[j]``.  Adjacent blocks of equal count are merged; the cost is
        O(blocks), whatever ``n``."""
        starts, levels = _int_vector(starts, "block starts"), _int_vector(levels, "block levels")
        n = _count(n, "n")
        if starts.shape != levels.shape:
            raise ValueError("blocks need one level per start, and at least one block")
        if starts[0] != 0 or starts[-1] >= n or np.any(starts[1:] <= starts[:-1]):
            raise ValueError("block starts must rise from 0 and lie in [0, n)")
        total = sum(c * k for c, k in zip(levels.tolist(), np.diff(starts, append=n).tolist()))
        keep = np.concatenate(([True], levels[1:] != levels[:-1]))
        d = object.__new__(cls)
        d._set_blocks(starts[keep], levels[keep], n, denominator, total)
        return d

    def _set_blocks(self, starts, levels, n, denominator, total) -> None:
        """Check the blocks against the exact count ``total`` and store them."""
        if levels.min() < 0:
            raise ValueError("weights must be non-negative")
        denominator = _count(denominator, "denominator")
        if total != denominator:
            raise ValueError("weights must sum to exactly 1 (counts to denominator)")
        starts.flags.writeable = False
        levels.flags.writeable = False
        self.starts, self.levels = starts, levels
        self.n, self.denominator = n, denominator
        self._counts = self._index = None

    def sizes(self) -> np.ndarray:
        """Number of elements in each block."""
        return np.diff(self.starts, append=self.n)

    @property
    def counts(self) -> np.ndarray:
        """Count of every element (read-only; built on first read)."""
        if self._counts is None:
            c = np.repeat(self.levels, self.sizes())
            c.flags.writeable = False
            self._counts = c
        return self._counts

    @property
    def max_weight(self) -> float:
        return int(self.levels.max()) / self.denominator

    def counts_at(self, idx):
        """Counts of the elements ``idx`` (one element or an array, in [0, n))."""
        return self.levels[self.starts[1:].searchsorted(idx, "right")]

    def element_at(self, pos):
        """Entry ``pos`` of the element-order table, which holds ``counts[i]``
        copies of each ``i`` in turn: ``np.repeat(arange(n), counts)[pos]``
        for positions in ``[0, denominator)``, without building the table.

        No workload has more than two positive-count blocks.  With two, one
        comparison with the first block's end gives each position's block
        index as a bool, and the result is computed in place in the int64
        array returned: fewer batch-sized temporaries mean fewer freed pages
        for the allocator to hand back to the system and fault in again on
        the next batch.  More blocks are found by ``searchsorted``."""
        if self._index is None:
            self._index = self._table_index()
        bounds, shifts, levels = self._index
        if bounds is None:  # one block of positive count
            if levels == 1:
                return pos + shifts if shifts else pos
            return (pos + shifts) // levels
        pos = np.asarray(pos)
        if bounds.size == 1:  # two blocks: as an index, False is 0 and True 1
            j = np.greater_equal(pos, bounds[0])
        else:
            j = bounds.searchsorted(pos, "right")
        out = shifts.take(j)
        out += pos
        out //= levels.take(j)
        return out

    def _table_index(self):
        """``(bounds, shifts, levels)`` of the positive-count blocks: position
        ``pos`` lies in the block ``j`` with ``bounds[j - 1] <= pos < bounds[j]``
        and holds element ``(pos + shifts[j]) // levels[j]``.  ``bounds`` is
        the table position after each block but the last, or None for one
        block, whose shift and level are then Python ints."""
        live = self.levels > 0
        levels, first, sizes = self.levels[live], self.starts[live], self.sizes()[live]
        if np.any(first + sizes > (2**63 - 1) // levels):
            raise ValueError("element-order table positions of this distribution overflow int64")
        ends = np.cumsum(levels * sizes)  # table position after each block
        shifts = first * levels - (ends - levels * sizes)
        if levels.size == 1:
            return None, int(shifts[0]), int(levels[0])
        return ends[:-1], shifts, levels

    def _lowest_terms(self) -> tuple[int, np.ndarray]:
        g = math.gcd(int(np.gcd.reduce(self.levels)), self.denominator)
        return self.denominator // g, self.levels // g

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        if self.n != other.n or not np.array_equal(self.starts, other.starts):
            return False
        # Proportional count vectors have the same runs and reduce alike.
        (d1, l1), (d2, l2) = self._lowest_terms(), other._lowest_terms()
        return d1 == d2 and np.array_equal(l1, l2)

    def __repr__(self) -> str:
        return f"Distribution(n={self.n}, denominator={self.denominator})"


class OracleTable:
    """Lookup table ``[s] -> [n]`` presenting a distribution as an oracle.

    The table is the only interface through which testers may touch a
    distribution.  Relabeling inputs (composing with any permutation of the
    domain) leaves the generated distribution unchanged.  An explicit table
    keeps its array; an oracle from :func:`make_oracle` keeps only its
    distribution, reads its element-order table through
    :meth:`Distribution.element_at`, and builds ``table`` on first read.
    """

    __slots__ = ("_table", "n", "s", "_dist")

    def __init__(self, table, n: int):
        arr = _int_vector(table, "oracle table")
        n = _count(n, "range size")
        if arr.min() < 0 or arr.max() >= n:
            raise ValueError("table values must lie in [0, n)")
        arr.flags.writeable = False
        self._table = arr
        self.n = n
        self.s = int(arr.size)
        self._dist = None

    @property
    def table(self) -> np.ndarray:
        """The ``s`` table entries (read-only)."""
        if self._table is None:
            t = self._dist.element_at(np.arange(self.s, dtype=np.int64))
            t.flags.writeable = False
            self._table = t
        return self._table

    def element_at(self, pos):
        """Table entries at the inputs ``pos``."""
        if self._table is None:
            return self._dist.element_at(pos)
        return self._table[pos]

    def distribution(self) -> Distribution:
        """Exact preimage-fraction distribution (cached)."""
        if self._dist is None:
            self._dist = Distribution(np.bincount(self._table, minlength=self.n), self.s)
        return self._dist

    def __repr__(self) -> str:
        return f"OracleTable(s={self.s}, n={self.n})"


def make_oracle(p: Distribution, s: int, seed=None) -> OracleTable:
    """Oracle of size ``s = p.denominator`` generating ``p``, whose table holds
    ``counts[i]`` copies of each ``i`` in element order.  It stores ``p``, not
    the table, so building it costs O(1); testers read tables only at
    uniformly random inputs, so the layout is invisible to them.  ``seed`` is
    unused, since nothing is drawn; it is kept for callers written for the
    shuffled tables of 0.2.0 and earlier.

    Raises
    ------
    ValueError
        If ``s`` is not the denominator of ``p``.
    """
    if _count(s, "s") != p.denominator:
        raise ValueError(f"oracle size must be the denominator {p.denominator}, got s={s}")
    o = object.__new__(OracleTable)
    o._table, o.n, o.s, o._dist = None, p.n, p.denominator, p
    return o


def distribution_of(o: OracleTable) -> Distribution:
    """Exact distribution generated by the table: preimage fractions."""
    return o.distribution()


def classical_sample(o: OracleTable, rng: np.random.Generator, ledger: QueryLedger | None = None) -> int:
    """Query the table at a uniformly random input; one classical query."""
    return int(classical_samples(o, 1, rng, ledger)[0])


def classical_samples(
    o: OracleTable, size: int, rng: np.random.Generator, ledger: QueryLedger | None = None
) -> np.ndarray:
    """Vectorized batch of independent classical samples (``size`` queries)."""
    size = _count(size, "size", 0)
    idx = rng.integers(0, o.s, size=size)
    if ledger is not None:
        ledger.add_classical(size)
    return o.element_at(idx)


def l1_distance(p: Distribution, q: Distribution) -> float:
    """L1 distance ``sum |p_i - q_i|``, exact up to one final float rounding."""
    if p.n != q.n:
        raise ValueError(f"support sizes differ: {p.n} != {q.n}")
    s1, s2 = p.denominator, q.denominator
    # Sizes and the two counts of the pieces on which neither distribution
    # changes count (a piece is empty where both change at once).
    cuts = np.concatenate((p.starts, q.starts))
    cuts.sort()
    sizes, a, b = np.diff(cuts, append=p.n), p.counts_at(cuts), q.counts_at(cuts)
    # Each piece adds at most s1 * s2, and the total is at most 2 * s1 * s2.
    if 2 * s1 * s2 < _INT64_SAFE:
        num = int((np.abs(a * s2 - b * s1) * sizes).sum())
    else:
        num = sum(
            abs(x * s2 - y * s1) * k for k, x, y in zip(sizes.tolist(), a.tolist(), b.tolist())
        )
    return num / (s1 * s2)


def _as_fraction(x, name: str = "epsilon") -> Fraction:
    """Coerce a parameter to an exact small-denominator rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if not math.isfinite(float(x)):
        raise ValueError(f"{name}={x!r} is not finite")
    f = Fraction(float(x)).limit_denominator(10**6)
    if abs(float(f) - float(x)) > 1e-12 * max(1.0, abs(float(x))):
        raise ValueError(f"{name}={x!r} does not admit a small-denominator rational")
    return f


def _reduced(starts, levels, n: int, den: int) -> Distribution:
    g = math.gcd(*levels, den)
    return Distribution.from_blocks(starts, [c // g for c in levels], n, den // g)


def uniform(n: int) -> Distribution:
    """Uniform distribution on ``n`` elements (oracle size, the denominator: ``n``)."""
    return Distribution.from_blocks([0], [1], n, n)


def half_support(n: int) -> Distribution:
    """Mass ``2/n`` on the first half, zero on the second.

    The canonical distribution at L1 distance exactly 1 from uniform.
    Oracle size, the denominator: ``n // 2``.
    """
    n = _even(n, "n")
    return Distribution.from_blocks([0, n // 2], [1, 0], n, n // 2)


def biased_pair(n: int, eps) -> tuple[Distribution, Distribution]:
    """Return ``(p, u)`` with weights ``(1 +- eps)/n`` on the two halves.

    ``l1_distance(p, u) == eps`` exactly; this is the canonical
    eps-nonuniform instance.
    """
    f = _as_fraction(eps)
    if not 0 < f <= 1:
        raise ValueError("eps must lie in (0, 1]")
    n = _even(n, "n")
    a, b = f.numerator, f.denominator
    p = _reduced([0, n // 2], [b + a, b - a], n, b * n)
    u = uniform(n)
    assert l1_distance(p, u) == float(f)
    return p, u


def disjoint_pair(n: int) -> tuple[Distribution, Distribution]:
    """Two uniform distributions on disjoint halves: L1 distance exactly 2."""
    h = _even(n, "n") // 2
    p = Distribution.from_blocks([0, h], [1, 0], n, h)
    q = Distribution.from_blocks([0, h], [0, 1], n, h)
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
    n = _even(n, "n")
    a, b = f.numerator, f.denominator
    blocks = [0, n // 2]
    p = _reduced(blocks, [2 * b, 0], n, b * n)
    q = _reduced(blocks, [a, 2 * b - a], n, b * n)
    assert l1_distance(p, q) == float(2 - f)
    return p, q


def _kind(kind: str) -> str:
    """``kind`` itself; ``ValueError`` unless it is one token (non-empty, no whitespace)."""
    if not kind or any(ch.isspace() for ch in kind):
        raise ValueError(f"kind must be a single token, got {kind!r}")
    return kind


def save_oracle(o: OracleTable, path, kind: str | None = None) -> None:
    """Write the plain-text instance format: optional ``kind`` line, then
    ``n s`` header, then the ``s`` zero-based table entries, one per line."""
    lines = []
    if kind is not None:
        lines.append(f"kind {_kind(kind)}")
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
        kind = _kind(tokens.pop(0)[len("kind "):].strip())
    if not tokens:
        raise ValueError("empty instance file")
    head = tokens[0].split()
    if len(head) != 2:
        raise ValueError("header must be two integers: n s")
    n, s = int(head[0]), _count(int(head[1]), "s")
    entries = [int(t) for t in tokens[1:]]
    if len(entries) != s:
        raise ValueError(f"expected {s} table entries, found {len(entries)}")
    return OracleTable(np.asarray(entries, dtype=np.int64), n), kind
