"""Cache simulators.

Four simulator classes are provided, all operating on byte addresses:

* :class:`SetAssociativeLRUCache` — the reference simulator: any associativity,
  true LRU replacement, one Python-level update per access.  Kept as the
  oracle the vectorised simulators are validated against (and selectable via
  ``vectorized=False`` for cross-checks and ablations).
* :class:`DirectMappedCache` — associativity 1, with a fully vectorised
  ``simulate`` path: an access misses exactly when the previous access to the
  same set carried a different tag, which reduces to a grouped comparison.
* :class:`TwoWayLRUCache` — associativity 2 (the Opteron's L1 geometry), also
  fully vectorised: within one set, after collapsing consecutive duplicate
  lines, an LRU pair contains exactly the two most recently used distinct
  lines, so an access hits iff it equals the previous or the
  previous-previous distinct line of its set.
* :class:`NWayLRUCache` — arbitrary associativity ``A`` (the 16-way L2 and
  the associativity ablation), with two exact vectorised kernels chosen per
  chunk from the geometry and the chunk's shape.  The *depth-pass* kernel
  works on set-grouped stack distances: within one set, an access hits iff
  fewer than ``A`` distinct lines occurred since its previous occurrence,
  resolved with ``A - 1`` vectorised passes that track the contents of each
  LRU stack position over time, so cost is ``O(A · n)`` NumPy work with no
  per-access Python loop.  The *lockstep* kernel advances every touched
  set's LRU stack by one access per step, a few ufunc calls on an
  ``A × sets`` array, so its Python loop runs once per access of the
  busiest set; it wins once a chunk spreads over enough sets (see
  DESIGN.md §5).

All simulators implement the same small interface (``access``, ``simulate``,
``reset``, ``stats``) so the memory hierarchy can mix them freely, and all
``simulate`` paths support warm continuation: state carries exactly across
successive calls, which is what lets the hierarchy stream a trace in bounded
chunks while producing bit-identical miss counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.util.validation import check_power_of_two

__all__ = [
    "CacheConfig",
    "CacheStatistics",
    "CacheSimulator",
    "SetAssociativeLRUCache",
    "DirectMappedCache",
    "TwoWayLRUCache",
    "NWayLRUCache",
    "make_cache",
    "simulate_trace",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level.

    ``size_bytes`` and ``line_size`` must be powers of two and the
    associativity must divide the number of lines (also a power of two), so
    that set indexing is a simple bit-field extraction, as on real hardware.
    """

    size_bytes: int
    line_size: int = 64
    associativity: int = 1
    name: str = "cache"

    def __post_init__(self) -> None:
        check_power_of_two(self.size_bytes, "size_bytes")
        check_power_of_two(self.line_size, "line_size")
        check_power_of_two(self.associativity, "associativity")
        if self.line_size > self.size_bytes:
            raise ValueError("line_size cannot exceed size_bytes")
        if self.associativity > self.num_lines:
            raise ValueError(
                f"associativity {self.associativity} exceeds the number of lines "
                f"{self.num_lines}"
            )

    @property
    def num_lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        """Number of sets (lines / associativity)."""
        return self.num_lines // self.associativity

    @property
    def offset_bits(self) -> int:
        """Number of byte-offset bits within a line."""
        return int(self.line_size).bit_length() - 1

    @property
    def index_bits(self) -> int:
        """Number of set-index bits."""
        return int(self.num_sets).bit_length() - 1

    def line_of(self, address: int | np.ndarray) -> int | np.ndarray:
        """Line number(s) of byte address(es)."""
        return address >> self.offset_bits

    def set_of(self, address: int | np.ndarray) -> int | np.ndarray:
        """Set index(es) of byte address(es)."""
        return (address >> self.offset_bits) & (self.num_sets - 1)

    def tag_of(self, address: int | np.ndarray) -> int | np.ndarray:
        """Tag(s) of byte address(es)."""
        return (address >> self.offset_bits) >> self.index_bits

    def describe(self) -> str:
        """Human readable geometry summary."""
        return (
            f"{self.name}: {self.size_bytes} B, {self.line_size} B lines, "
            f"{self.associativity}-way, {self.num_sets} sets"
        )


@dataclass
class CacheStatistics:
    """Hit/miss accounting for one cache level."""

    accesses: int = 0
    misses: int = 0

    @property
    def hits(self) -> int:
        """Number of accesses that hit."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses divided by accesses (0.0 for an untouched cache)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def record(self, accesses: int, misses: int) -> None:
        """Accumulate a batch of accesses."""
        if misses > accesses:
            raise ValueError(f"misses ({misses}) cannot exceed accesses ({accesses})")
        self.accesses += int(accesses)
        self.misses += int(misses)

    def merged(self, other: "CacheStatistics") -> "CacheStatistics":
        """A new statistics object combining self and ``other``."""
        return CacheStatistics(
            accesses=self.accesses + other.accesses,
            misses=self.misses + other.misses,
        )


class CacheSimulator(Protocol):
    """Common interface of all cache simulators."""

    config: CacheConfig
    stats: CacheStatistics

    def access(self, address: int) -> bool:
        """Process one byte address; return True on a miss."""

    def simulate(self, addresses: np.ndarray, check: bool = True) -> np.ndarray:
        """Process a trace of byte addresses; return a boolean miss mask.

        ``check=False`` skips the non-negativity scan for callers that have
        already validated the trace at the pipeline boundary.
        """

    def reset(self) -> None:
        """Invalidate all contents and zero the statistics."""


def _as_address_array(addresses: np.ndarray, check: bool = True) -> np.ndarray:
    arr = np.asarray(addresses)
    if arr.ndim != 1:
        raise ValueError(f"trace must be a 1-D array of addresses, got shape {arr.shape}")
    if check and arr.size and arr.min() < 0:
        raise ValueError("addresses must be nonnegative")
    return arr.astype(np.int64, copy=False)


def _set_sort_key(sets: np.ndarray, num_sets: int) -> np.ndarray:
    """Narrowest integer view of a set-index array for the grouping argsort.

    NumPy's stable sort is a radix sort for 8/16-bit integers but a
    comparison sort for wider types; set indices are bounded by the geometry,
    so narrowing the *sort key* (the data arrays stay int64) turns the
    dominant grouping pass into O(n) for every realistic configuration.
    """
    if num_sets <= (1 << 15):
        return sets.astype(np.int16)
    if num_sets <= (1 << 31):
        return sets.astype(np.int32)
    return sets


#: The lockstep N-way kernel runs only on chunks that touch at least this
#: many sets.  Each step pays a fixed cost of a few ufunc dispatches,
#: amortised over one access per touched set; below 128 sets the depth-pass
#: kernel is faster for 4- and 8-way caches (measured crossover table in
#: DESIGN.md §5).
_LOCKSTEP_MIN_SETS = 128

#: ... and whose padded ``steps × touched sets`` matrix holds at most this
#: many cells per access, so a chunk skewed onto a few sets keeps O(chunk)
#: memory and never pays mostly for padding.
_LOCKSTEP_MAX_CELLS = 2


class SetAssociativeLRUCache:
    """Reference simulator: arbitrary associativity, true LRU replacement."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStatistics()
        # Per-set list of tags, most recently used first.
        self._sets: list[list[int]] = [[] for _ in range(config.num_sets)]

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._sets = [[] for _ in range(self.config.num_sets)]

    def access(self, address: int) -> bool:
        config = self.config
        line = int(address) >> config.offset_bits
        index = line & (config.num_sets - 1)
        tag = line >> config.index_bits
        ways = self._sets[index]
        miss = tag not in ways
        if miss:
            ways.insert(0, tag)
            if len(ways) > config.associativity:
                ways.pop()
        else:
            ways.remove(tag)
            ways.insert(0, tag)
        self.stats.record(1, int(miss))
        return miss

    def simulate(self, addresses: np.ndarray, check: bool = True) -> np.ndarray:
        arr = _as_address_array(addresses, check=check)
        config = self.config
        offset_bits = config.offset_bits
        index_mask = config.num_sets - 1
        index_bits = config.index_bits
        associativity = config.associativity
        sets = self._sets
        out = np.empty(arr.shape[0], dtype=bool)
        for i, address in enumerate(arr.tolist()):
            line = address >> offset_bits
            index = line & index_mask
            tag = line >> index_bits
            ways = sets[index]
            miss = tag not in ways
            if miss:
                ways.insert(0, tag)
                if len(ways) > associativity:
                    ways.pop()
            else:
                ways.remove(tag)
                ways.insert(0, tag)
            out[i] = miss
        self.stats.record(arr.shape[0], int(out.sum()))
        return out


class DirectMappedCache:
    """Direct-mapped cache with a vectorised trace simulation.

    For a direct-mapped cache an access misses exactly when the most recent
    access to the same set carried a different tag (or the set was never
    accessed).  Grouping the trace by set with a stable sort turns the whole
    simulation into a handful of NumPy comparisons.  All vectorised
    simulators work on whole *line numbers* instead of split (set, tag)
    pairs: within one set group, line equality is tag equality, so the tag
    extraction pass and one large gather disappear; the narrow
    :func:`_set_sort_key` is the only per-set quantity ever materialised.
    """

    def __init__(self, config: CacheConfig):
        if config.associativity != 1:
            raise ValueError(
                f"DirectMappedCache requires associativity 1, got {config.associativity}"
            )
        self.config = config
        self.stats = CacheStatistics()
        # Resident line per set, -1 meaning invalid.
        self._lines = np.full(config.num_sets, -1, dtype=np.int64)

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._lines.fill(-1)

    def access(self, address: int) -> bool:
        config = self.config
        line = int(address) >> config.offset_bits
        index = line & (config.num_sets - 1)
        miss = self._lines[index] != line
        self._lines[index] = line
        self.stats.record(1, int(miss))
        return bool(miss)

    def simulate(self, addresses: np.ndarray, check: bool = True) -> np.ndarray:
        arr = _as_address_array(addresses, check=check)
        if arr.size == 0:
            return np.zeros(0, dtype=bool)
        config = self.config
        lines = arr >> config.offset_bits
        key = _set_sort_key(lines & (config.num_sets - 1), config.num_sets)

        order = np.argsort(key, kind="stable")
        sorted_keys = key[order]
        sorted_lines = lines[order]

        first_in_group = np.empty(arr.shape[0], dtype=bool)
        first_in_group[0] = True
        first_in_group[1:] = sorted_keys[1:] != sorted_keys[:-1]

        prev_lines = np.empty_like(sorted_lines)
        prev_lines[1:] = sorted_lines[:-1]
        # For the first access of each group the "previous" line is whatever
        # is currently resident in that set (possibly -1 = invalid).
        prev_lines[first_in_group] = self._lines[sorted_keys[first_in_group]]

        miss_sorted = sorted_lines != prev_lines
        misses = np.empty(arr.shape[0], dtype=bool)
        misses[order] = miss_sorted

        # Update resident lines: the last access of each group wins.
        last_in_group = np.empty(arr.shape[0], dtype=bool)
        last_in_group[-1] = True
        last_in_group[:-1] = sorted_keys[1:] != sorted_keys[:-1]
        self._lines[sorted_keys[last_in_group]] = sorted_lines[last_in_group]

        self.stats.record(arr.shape[0], int(misses.sum()))
        return misses


class TwoWayLRUCache:
    """2-way set-associative LRU cache with a vectorised trace simulation.

    Within one set, an LRU pair always holds the two most recently used
    *distinct* lines.  After collapsing runs of consecutive identical lines
    (all but the first of a run are trivially hits), an access therefore hits
    iff its line equals either of the two previous distinct lines of the same
    set.  Both conditions are expressible with shifted comparisons on the
    set-grouped trace.
    """

    def __init__(self, config: CacheConfig):
        if config.associativity != 2:
            raise ValueError(
                f"TwoWayLRUCache requires associativity 2, got {config.associativity}"
            )
        self.config = config
        self.stats = CacheStatistics()
        # Most recently used and second most recently used line per set
        # (-1/-2 invalid; whole lines, not tags — see DirectMappedCache).
        self._mru = np.full(config.num_sets, -1, dtype=np.int64)
        self._lru = np.full(config.num_sets, -2, dtype=np.int64)

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._mru.fill(-1)
        self._lru.fill(-2)

    def access(self, address: int) -> bool:
        config = self.config
        line = int(address) >> config.offset_bits
        index = line & (config.num_sets - 1)
        mru = self._mru[index]
        lru = self._lru[index]
        if line == mru:
            miss = False
        elif line == lru:
            miss = False
            self._lru[index] = mru
            self._mru[index] = line
        else:
            miss = True
            self._lru[index] = mru
            self._mru[index] = line
        self.stats.record(1, int(miss))
        return bool(miss)

    def simulate(self, addresses: np.ndarray, check: bool = True) -> np.ndarray:
        arr = _as_address_array(addresses, check=check)
        if arr.size == 0:
            return np.zeros(0, dtype=bool)
        config = self.config
        num_sets = config.num_sets
        lines = arr >> config.offset_bits

        # Prepend two virtual accesses per set currently holding valid state so
        # that warm-start behaviour matches the per-access simulator: first the
        # LRU way, then the MRU way (so the MRU ends up most recent).  A cold
        # simulator skips the concatenation entirely and sorts views.
        valid = self._mru >= 0
        if np.any(valid):
            valid_sets = np.nonzero(valid)[0].astype(np.int64)
            lru_lines = self._lru[valid_sets]
            mru_lines = self._mru[valid_sets]
            has_lru = lru_lines >= 0
            virtual_lines = np.concatenate([lru_lines[has_lru], mru_lines])
            n_virtual = virtual_lines.shape[0]
            all_lines = np.concatenate([virtual_lines, lines])
        else:
            n_virtual = 0
            all_lines = lines
        key = _set_sort_key(all_lines & (num_sets - 1), num_sets)

        order = np.argsort(key, kind="stable")
        g_keys = key[order]
        g_lines = all_lines[order]
        total = g_lines.shape[0]

        new_group = np.empty(total, dtype=bool)
        new_group[0] = True
        new_group[1:] = g_keys[1:] != g_keys[:-1]

        # Collapse consecutive duplicates within a group: they are hits and do
        # not change LRU state.
        duplicate = np.zeros(total, dtype=bool)
        duplicate[1:] = (~new_group[1:]) & (g_lines[1:] == g_lines[:-1])

        # Positions of the collapsed (distinct) subsequence.
        distinct_idx = np.nonzero(~duplicate)[0]
        d_keys = g_keys[distinct_idx]
        d_lines = g_lines[distinct_idx]
        m = distinct_idx.shape[0]

        d_new_group = np.empty(m, dtype=bool)
        d_new_group[0] = True
        d_new_group[1:] = d_keys[1:] != d_keys[:-1]
        # Second element of each group.
        d_second = np.zeros(m, dtype=bool)
        d_second[1:] = d_new_group[:-1] & ~d_new_group[1:]

        prev2 = np.empty_like(d_lines)
        prev2[2:] = d_lines[:-2]
        prev2[:2] = -10  # no valid "two back" for the first two entries overall
        # An entry hits iff it matches the distinct line two back *within the
        # same group*; entries that are first or second in their group have no
        # such predecessor (their state is covered by the virtual accesses).
        has_prev2 = ~(d_new_group | d_second)
        d_hits = has_prev2 & (d_lines == prev2)
        d_miss = ~d_hits

        # Scatter distinct-position misses back; duplicates are hits.
        miss_grouped = np.zeros(total, dtype=bool)
        miss_grouped[distinct_idx] = d_miss

        misses_all = np.empty(total, dtype=bool)
        misses_all[order] = miss_grouped
        misses = misses_all[n_virtual:]

        # Update per-set state: the last two distinct lines of each group.
        if m:
            group_last = np.empty(m, dtype=bool)
            group_last[-1] = True
            group_last[:-1] = d_keys[1:] != d_keys[:-1]
            last_idx = np.nonzero(group_last)[0]
            last_sets = d_keys[last_idx]
            self._mru[last_sets] = d_lines[last_idx]
            usable = last_idx[~d_new_group[last_idx]]
            self._lru[d_keys[usable]] = d_lines[usable - 1]

        self.stats.record(arr.shape[0], int(misses.sum()))
        return misses


class NWayLRUCache:
    """Arbitrary-associativity LRU cache with two exact vectorised kernels.

    Both kernels share one warm state, the per-set LRU stack ``_stack``, so
    ``simulate`` may pick either for each chunk and warm continuation stays
    exact across a switch.  The choice depends only on the geometry and the
    chunk's shape (:meth:`_lockstep_counts`); there is no option for it.

    The *depth-pass* kernel (:meth:`_simulate_passes`) works on the
    set-grouped trace with runs of consecutive identical lines removed
    (those are depth-1 hits).  In the remaining *distinct* per-set sequence
    the LRU stack evolves mechanically: the incoming line always lands at
    stack position 1 and the old position-1 line always drops to position 2,
    while position ``d`` receives the old position ``d-1`` line exactly at
    steps whose hit depth is ``>= d``.  Tracking "content of stack position
    ``d`` before each step" therefore reduces to a masked forward-fill of the
    position ``d-1`` contents, and ``A - 1`` such passes classify every
    access: an access hits iff its tag equals the content of some position
    ``<= A``.  This is the stack-distance criterion — an access hits iff
    fewer than ``A`` distinct lines were referenced in its set since its
    previous occurrence — computed without a per-access Python loop.  Warm
    state is replayed as virtual leading accesses (LRU way first) and
    re-extracted from the tail of the simulated chunk.

    The *lockstep* kernel (:meth:`_simulate_lockstep`) uses the independence
    of LRU sets across NumPy lanes instead: it lays the chunk out as a
    ``steps × touched sets`` matrix and advances every touched set's stack
    by one access per step.  Its cost is one handful of ufunc calls per
    access of the busiest set, so it wins when a chunk spreads over many
    sets (the Opteron's 1024-set L2) and loses on narrow geometries, where
    the depth-pass kernel stays in use.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStatistics()
        # Per-set LRU stack of lines, most recently used first, -1 invalid
        # (whole lines, not tags — see DirectMappedCache).
        self._stack = np.full(
            (config.num_sets, config.associativity), -1, dtype=np.int64
        )

    def reset(self) -> None:
        self.stats = CacheStatistics()
        self._stack.fill(-1)

    def access(self, address: int) -> bool:
        config = self.config
        line = int(address) >> config.offset_bits
        index = line & (config.num_sets - 1)
        row = self._stack[index]
        hits = np.nonzero(row == line)[0]
        miss = hits.size == 0
        depth = row.shape[0] - 1 if miss else int(hits[0])
        row[1 : depth + 1] = row[:depth].copy()
        row[0] = line
        self.stats.record(1, int(miss))
        return miss

    def simulate(self, addresses: np.ndarray, check: bool = True) -> np.ndarray:
        arr = _as_address_array(addresses, check=check)
        if arr.size == 0:
            return np.zeros(0, dtype=bool)
        lines = arr >> self.config.offset_bits
        counts = self._lockstep_counts(lines)
        if counts is None:
            misses = self._simulate_passes(lines)
        else:
            misses = self._simulate_lockstep(lines, counts)
        self.stats.record(arr.shape[0], int(misses.sum()))
        return misses

    def _lockstep_counts(self, lines: np.ndarray) -> np.ndarray | None:
        """Per-set access counts of ``lines`` if the lockstep kernel should run.

        ``None`` selects the depth-pass kernel: for a geometry or chunk with
        fewer than :data:`_LOCKSTEP_MIN_SETS` touched sets, or for a chunk so
        skewed onto a few sets that its padded ``steps × touched sets``
        matrix would exceed :data:`_LOCKSTEP_MAX_CELLS` cells per access.
        Only the ``num_sets`` counts are allocated to decide, so memory stays
        O(chunk) whichever kernel runs.
        """
        num_sets = self.config.num_sets
        if num_sets < _LOCKSTEP_MIN_SETS:
            return None
        counts = np.bincount(lines & (num_sets - 1), minlength=num_sets)
        touched = int(np.count_nonzero(counts))
        if touched < _LOCKSTEP_MIN_SETS:
            return None
        if int(counts.max()) * touched > _LOCKSTEP_MAX_CELLS * lines.shape[0]:
            return None
        return counts

    def _simulate_lockstep(
        self, lines: np.ndarray, counts: np.ndarray | None = None
    ) -> np.ndarray:
        """Lockstep kernel: miss mask of nonnegative ``lines``, state updated.

        Column ``j`` of the ``steps × touched sets`` matrix holds the
        accesses of the ``j``-th touched set in trace order, padded after its
        last access with that same final line.  Re-touching the MRU line is
        a depth-0 hit that changes nothing, so padding steps are no-ops, and
        sets the chunk does not touch are not columns at all.  One step
        compares the access row with the ``A × touched`` stack, takes each
        column's hit depth, shifts the rows above it down by one and writes
        the access into the MRU row.  ``counts`` are the per-set access
        counts of ``lines`` when the caller has them.
        """
        config = self.config
        num_sets = config.num_sets
        associativity = config.associativity
        n = lines.shape[0]
        key = _set_sort_key(lines & (num_sets - 1), num_sets)
        if counts is None:
            counts = np.bincount(key, minlength=num_sets)
        order = np.argsort(key, kind="stable")
        touched = np.nonzero(counts)[0]
        width = touched.shape[0]
        per_set = counts[touched]
        steps = int(per_set.max())
        starts = np.cumsum(per_set) - per_set

        # matrix[r, j]: the r-th access of touched set j (set-grouped
        # position starts[j] + r), clamped to the set's last access.
        grouped = lines[order]
        source = np.minimum(np.arange(steps)[:, None], per_set[None, :] - 1)
        source += starts
        matrix = grouped[source]
        del source

        stack = np.ascontiguousarray(self._stack[touched].T)
        miss_matrix = np.empty((steps, width), dtype=bool)
        equal = np.empty((associativity, width), dtype=bool)
        depth_type = np.min_scalar_type(associativity)
        # Row d of the stack weighs A - d: the weighted max over the (at
        # most one) matching row is A - hit depth, and 0 on a miss.
        weights = np.arange(associativity, 0, -1, dtype=depth_type)[:, None]
        weighted = np.empty((associativity, width), dtype=depth_type)
        depth_code = np.empty(width, dtype=depth_type)
        shift = np.empty((associativity - 1, width), dtype=bool)
        above = np.empty((associativity - 1, width), dtype=np.int64)
        for step in range(steps):
            incoming = matrix[step]
            # Lines are nonnegative, so the -1 "invalid" sentinel never
            # matches, and a valid line sits at most once in a set's stack.
            np.equal(stack, incoming, out=equal)
            np.multiply(equal.view(np.uint8), weights, out=weighted)
            np.maximum.reduce(weighted, axis=0, out=depth_code)
            np.equal(depth_code, 0, out=miss_matrix[step])
            # Row d >= 1 takes row d-1's line iff d <= hit depth, i.e.
            # A - d >= depth code (every row shifts on a miss).
            np.greater_equal(weights[1:], depth_code, out=shift)
            above[...] = stack[:-1]
            np.copyto(stack[1:], above, where=shift)
            stack[0] = incoming
        self._stack[touched] = stack.T

        # Set-grouped position starts[j] + r sits at miss_matrix[r, j].
        flat = np.arange(n) * width - np.repeat(
            starts * width - np.arange(width), per_set
        )
        misses = np.empty(n, dtype=bool)
        misses[order] = miss_matrix.reshape(-1)[flat]
        return misses

    def _simulate_passes(self, lines: np.ndarray) -> np.ndarray:
        """Depth-pass kernel: miss mask of nonnegative ``lines``, state updated."""
        config = self.config
        num_sets = config.num_sets
        associativity = config.associativity

        # Replay warm state as virtual leading accesses for the sets touched
        # by this chunk: LRU way first, so the MRU way ends up most recent.
        # A cold simulator (nothing resident anywhere) skips the whole replay.
        if np.any(self._stack[:, 0] >= 0):
            present = np.unique(
                _set_sort_key(lines & (num_sets - 1), num_sets)
            ).astype(np.int64)
            reversed_stacks = self._stack[present, ::-1]
            valid = reversed_stacks >= 0
            virtual_lines = reversed_stacks[valid]
            n_virtual = virtual_lines.shape[0]
            all_lines = np.concatenate([virtual_lines, lines])
        else:
            present = None
            n_virtual = 0
            all_lines = lines
        total = all_lines.shape[0]
        key = _set_sort_key(all_lines & (num_sets - 1), num_sets)

        order = np.argsort(key, kind="stable")
        g_keys = key[order]
        g_lines = all_lines[order]

        new_group = np.empty(total, dtype=bool)
        new_group[0] = True
        new_group[1:] = g_keys[1:] != g_keys[:-1]

        # Depth-1 hits: consecutive duplicates within a set group.  They do
        # not change the LRU stack and are removed before depth resolution.
        duplicate = np.zeros(total, dtype=bool)
        duplicate[1:] = (~new_group[1:]) & (g_lines[1:] == g_lines[:-1])
        distinct_idx = np.nonzero(~duplicate)[0]
        d_keys = g_keys[distinct_idx]
        d_lines = g_lines[distinct_idx]
        m = distinct_idx.shape[0]

        d_new_group = np.empty(m, dtype=bool)
        d_new_group[0] = True
        d_new_group[1:] = d_keys[1:] != d_keys[:-1]
        positions = np.arange(m, dtype=np.int64)
        group_start = np.maximum.accumulate(np.where(d_new_group, positions, 0))

        # Content of stack position 2 before each step: the distinct line two
        # back in the same group (position 1 is always the previous line, and
        # a depth-2-or-deeper access never equals it by construction).
        current = np.full(m, -1, dtype=np.int64)
        if m > 2:
            current[2:] = np.where(
                positions[2:] >= group_start[2:] + 2, d_lines[:-2], -1
            )
        hit = np.zeros(m, dtype=bool)
        for depth in range(2, associativity + 1):
            # Lines are nonnegative, so the -1 "invalid" sentinel can never
            # equal a line and no separate validity mask is needed.
            hit |= d_lines == current
            if depth == associativity:
                break
            if not np.any(current >= 0):
                # No set has a line at this stack depth (fewer distinct lines
                # than the associativity everywhere): every deeper position
                # is empty too, so the remaining unhit accesses are misses.
                break
            # Stack position depth+1 receives the old position-depth content
            # exactly at steps that did not hit at depth <= depth; its content
            # before step t is therefore the last such arrival before t.
            mask = ~hit
            last_arrival = np.maximum.accumulate(np.where(mask, positions, -1))
            previous = np.empty(m, dtype=np.int64)
            previous[0] = -1
            previous[1:] = last_arrival[:-1]
            current = np.where(
                previous >= group_start, current[np.maximum(previous, 0)], -1
            )

        miss_grouped = np.zeros(total, dtype=bool)
        miss_grouped[distinct_idx] = ~hit
        misses_all = np.empty(total, dtype=bool)
        misses_all[order] = miss_grouped
        misses = misses_all[n_virtual:]

        # Re-extract per-set warm state: the last occurrence of every
        # distinct line (a line names its set), ranked by recency, gives the
        # final LRU stacks.
        last_order = np.lexsort((positions, d_lines))
        l_sorted = d_lines[last_order]
        last_of_line = np.empty(m, dtype=bool)
        last_of_line[-1] = True
        last_of_line[:-1] = l_sorted[1:] != l_sorted[:-1]
        pair_lines = l_sorted[last_of_line]
        pair_keys = d_keys[last_order][last_of_line]
        pair_pos = last_order[last_of_line]
        recency = np.lexsort((-pair_pos, pair_keys))
        r_keys = pair_keys[recency]
        r_lines = pair_lines[recency]
        r_positions = np.arange(r_keys.shape[0], dtype=np.int64)
        r_new = np.empty(r_keys.shape[0], dtype=bool)
        r_new[0] = True
        r_new[1:] = r_keys[1:] != r_keys[:-1]
        rank = r_positions - np.maximum.accumulate(np.where(r_new, r_positions, 0))
        keep = rank < associativity
        if present is not None:
            self._stack[present] = -1
        self._stack[r_keys[keep], rank[keep]] = r_lines[keep]
        return misses


def make_cache(config: CacheConfig, vectorized: bool = True) -> CacheSimulator:
    """Build the fastest exact simulator available for ``config``.

    With ``vectorized=False`` the reference LRU simulator is always returned
    (useful for cross-checking and the associativity ablation).
    """
    if not vectorized:
        return SetAssociativeLRUCache(config)
    if config.associativity == 1:
        return DirectMappedCache(config)
    if config.associativity == 2:
        return TwoWayLRUCache(config)
    return NWayLRUCache(config)


def simulate_trace(config: CacheConfig, addresses: np.ndarray, vectorized: bool = True) -> CacheStatistics:
    """One-shot convenience: simulate a cold cache over a trace, return stats."""
    cache = make_cache(config, vectorized=vectorized)
    cache.simulate(_as_address_array(addresses))
    return cache.stats
