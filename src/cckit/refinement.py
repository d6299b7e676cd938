"""Color-refinement distinguishability engines.

Message-passing updates with injective aggregation are abstracted to
Weisfeiler-Leman style refinement, and every update is one operation: a row
per cell holding its old color and one sorted neighbor-color multiset per
configured neighborhood function, numbered jointly across the complexes being
compared (:func:`number_keys`).  Equal ids mean equal rows, so the color
histograms of different complexes are directly comparable.  Ids follow the
sorted order of the distinct rows, so they are canonical: a complex refined
alone numbers the same rows the same way, which lets :func:`distinguish`
refine each complex once and compare per-tick tables across its partners.
Cell rounds and pair rounds build their rows in one place: an index matrix
gathers neighbor colors through padded neighbor rows (:func:`padded_gather`).
A pair round is a cell round whose cells are the pairs (x, y) of
X_{r1} x X_{r2}: it gathers the pairs with x or y swapped for a neighbor, by
flat pair id.  Pair seeding and pooling intern their rows the same way.

Rows move only narrow bytes (:mod:`cckit._rowkeys` holds the gathers, row
builders and numbering).  Gathers are int32 index matrices while the array
they read has fewer than 2**31 entries, int64 from there on.  Each update
computes its key dtype from bounds it already knows (color count, base and
segment count) and writes its rows once, values plus one, into one unsigned
key buffer of that dtype (8, 16, 32 or 64 bits), which is byte-swapped and
sorted in place.  Trace tables hold the distinct rows as int64 bytes whatever
the key dtype, so they compare across updates and complexes.

Three engines are exposed: plain cell refinement over the natural
neighborhoods ("homp"), pair-space refinement over X_{r1} x X_{r2} with
incidence- or distance-based markings ("scl"), and staged diagrams mixing the
two with pooling ("smcn").  One state, :class:`CellColors`, holds the cell
colors and the live pair colorings, and one loop, :func:`_updates`, runs a
stage on it update by update, with the stability rule and round bound of
open-ended blocks.  :func:`run_diagram` numbers those updates as ticks, and
the exact-isomorphism oracle in :mod:`cckit.iso` refines each search node
with the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .complex import (
    CombinatorialComplex,
    NeighborhoodSpec,
    adjacency,
    co_adjacency,
    incidence_down,
    incidence_up,
    natural_specs,
    row_ids,
)
from .errors import MarkingUnsupported, PoolWithoutScl, RankOutOfRange
from .invariants import distance_blocks, nearest_face_distances
from .invariants import shortest_paths  # noqa: F401  (perfbench/tracing.py wraps it here)
from ._rowkeys import (
    build_rows,
    index_dtype,
    key_dtype,
    number_keys,
    padded_gather,
    row_span,
    shifted_colors,
    store_keys,
)

Hist = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Coloring:
    """Refinement colors per rank, indexed by skeleton position."""

    by_rank: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PairColoring:
    """Colors over the pair space X_{r1} x X_{r2}."""

    r1: int
    r2: int
    colors: tuple[tuple[int, ...], ...]

    def histogram(self) -> Hist:
        return _hist(c for row in self.colors for c in row)


@dataclass(frozen=True)
class Fingerprint:
    """Per-rank color histograms plus any pair-space histograms, with sizes."""

    skeleton_sizes: tuple[int, ...]
    rank_histograms: tuple[Hist, ...]
    pair_histograms: tuple[Hist, ...] = ()


@dataclass(frozen=True)
class HompBlock:
    """Cell-refinement stage; specs None means every natural neighborhood."""

    specs: tuple[NeighborhoodSpec, ...] | None = None
    rounds: int | None = 1  # None = refine to stability


@dataclass(frozen=True)
class SclBlock:
    """Pair-refinement stage over X_{r1} x X_{r2}, seeded from cell colors."""

    r1: int
    r2: int
    marking: str = "distance"  # "binary" | "distance"
    rounds: int | None = 1


@dataclass(frozen=True)
class PoolStage:
    """Fold the most recent pair coloring back into cell colors."""


Stage = HompBlock | SclBlock | PoolStage


def default_smcn_diagram() -> tuple[Stage, ...]:
    """Benchmark diagram: full block, four distance-marked (0,1) pair rounds,
    pooling, full block."""
    return (
        HompBlock(None, 1),
        SclBlock(0, 1, "distance", 4),
        PoolStage(),
        HompBlock(None, 1),
    )


def _hist(colors: np.ndarray) -> Hist:
    values, counts = np.unique(colors, return_counts=True)
    return tuple(zip(values.tolist(), counts.tolist()))


@dataclass(slots=True)
class _PairState:
    """Live pair coloring of one SclBlock across all complexes."""

    r1: int
    r2: int
    mats: list[np.ndarray]
    num_colors: int
    gathers: tuple | None = None


class CellColors:
    """Joint cell colors of several complexes, plus the live pair colorings of
    the pair blocks run on them, refined by one kernel round.

    All cells sit in one array, rank by rank and within a rank complex by
    complex.  Initial colors are the ranks; every row starts with the old
    color, so each color stays inside one rank.  With ``tabulate`` set, every
    update keeps the table of the rows it interned in ``table``.
    """

    def __init__(self, ccs: Sequence[CombinatorialComplex], ell: int):
        self.ccs = list(ccs)
        self.ell = ell
        m = len(self.ccs)
        sizes = [cc.skeleton_size(r) for r in range(ell + 1) for cc in self.ccs]
        self.starts = list(accumulate(sizes, initial=0))
        self.owner = np.tile(np.arange(m), ell + 1).repeat(sizes)
        self.colors = np.arange(ell + 1).repeat(m).repeat(sizes)
        # one class per rank with a cell in any complex
        self.classes = sum(self.starts[(r + 1) * m] > self.starts[r * m] for r in range(ell + 1))
        self._gathers: dict[int, tuple[tuple[NeighborhoodSpec, ...], list]] = {}
        self.pair_states: list[_PairState] = []
        self.tabulate = False
        self.table: tuple | None = None

    def span(self, ci: int, r: int) -> slice:
        """Positions of the rank-r cells of complex ci."""
        k = r * len(self.ccs) + ci
        return slice(self.starts[k], self.starts[k + 1])

    def rank_span(self, r: int) -> slice:
        """Positions of the rank-r cells of all complexes."""
        m = len(self.ccs)
        return slice(self.starts[r * m], self.starts[(r + 1) * m])

    def class_counts(self) -> np.ndarray:
        """(complexes, colors) matrix of class sizes."""
        m, k = len(self.ccs), int(self.colors.max()) + 1
        return np.bincount(self.owner * k + self.colors, minlength=m * k).reshape(m, k)

    def recolor(self, keys: np.ndarray) -> bool:
        """New colors from a key buffer of one row per cell, in cell order;
        True when the partition got finer."""
        ids, k = self.number(keys)
        changed = k > self.classes
        self.colors, self.classes = ids, k
        return changed

    def number(self, keys: np.ndarray) -> tuple[np.ndarray, int]:
        """Ids and class count of a key buffer of rows shifted by one (the -1
        pad is key 0), keeping the rows' table when tabulating."""
        ids, k, self.table = number_keys(keys, self.tabulate)
        return ids, k

    def cell_round(self, specs: tuple[NeighborhoodSpec, ...]) -> bool:
        """One simultaneous update; returns False once the partition is stable."""
        # gathers are keyed by the tuple's identity (the entry keeps the tuple
        # alive): hashing it would hash every spec on every round
        entry = self._gathers.get(id(specs))
        if entry is None:
            entry = self._gathers[id(specs)] = (specs, self._build(specs))
        gathers = entry[1]
        base = int(self.colors.max()) + 2
        dtype = key_dtype(row_span(base, [segment for _, segment in gathers]))
        width = 1 + max(index.shape[1] for index, _ in gathers)
        keys = np.zeros((len(self.colors), width), dtype=dtype)
        # colors shifted to 1.., 0 is the pad the gathers' -1 entries read
        ext = shifted_colors(self.colors, dtype)
        for r, (index, segment) in enumerate(gathers):
            span = self.rank_span(r)
            build_rows(keys[span], self.colors[span], ext, index, segment, base)
        return self.recolor(keys)

    def _build(self, specs: tuple[NeighborhoodSpec, ...]) -> list:
        """Per rank: the gather matrix over all complexes and each column's
        spec, as the spec's position among that rank's specs.  A spec without
        a neighbor in any complex adds no column.  Positions are kept, not
        renumbered, so two complexes refined apart whose empty specs differ
        never build equal rows from different neighborhoods."""
        m = len(self.ccs)
        dtype = index_dtype(len(self.colors) + 1)  # the gathers read colors and a pad
        out = []
        for r in range(self.ell + 1):
            n = len(self.colors[self.rank_span(r)])
            mats, segment = [np.empty((n, 0), dtype=dtype)], []
            for pos, s in enumerate(s for s in specs if s.r1 == r):
                csrs = [cc.neighbor_csr(s) for cc in self.ccs]
                if not any(indptr[-1] for indptr, _ in csrs):
                    continue
                shifts = [self.starts[s.target_rank * m + ci] for ci in range(m)]
                mats.append(np.vstack(padded_gather(csrs, shifts)).astype(dtype))
                segment += [pos] * mats[-1].shape[1]
            out.append((np.hstack(mats), np.array(segment, dtype=np.int64)))
        return out

    def view(self, ci: int, top: int) -> tuple:
        """Rank histograms 0..top plus live pair histograms of one complex."""
        ranks = tuple(_hist(self.colors[self.span(ci, r)]) for r in range(top + 1))
        return ranks, tuple(_hist(ps.mats[ci]) for ps in self.pair_states)

    def snapshot(self) -> list[tuple]:
        """Comparable view per complex."""
        return [self.view(ci, self.ell) for ci in range(len(self.ccs))]

    def agree(self) -> bool:
        """Whether two complexes' snapshots are equal, from class sizes alone:
        every color stays inside one rank, so equal counts per color are equal
        rank histograms, and likewise for every live pair coloring."""
        counts = self.class_counts()
        if not np.array_equal(counts[0], counts[1]):
            return False
        return all(
            np.array_equal(*(np.bincount(m.ravel(), minlength=ps.num_colors) for m in ps.mats))
            for ps in self.pair_states
        )

    def compact(self) -> None:
        """Shrink a paused run: forget the gather matrices (the next round
        rebuilds what it needs) and hold pair colors in the smallest integer
        type that fits them (rounds widen them again)."""
        self._gathers.clear()
        for ps in self.pair_states:
            ps.gathers = None
            dtype = np.min_scalar_type(max(ps.num_colors - 1, 0))
            ps.mats = [m.astype(dtype, copy=False) for m in ps.mats]

    # -- pair refinement --------------------------------------------------------

    def seed_pairs(self, block: SclBlock) -> _PairState:
        """Seed a pair coloring: the row of (x, y) is x's color, y's color and
        the marking of (x, y) (at least -1)."""
        r1, r2 = block.r1, block.r2
        marks = [_marking_matrix(cc, r1, r2, block.marking) for cc in self.ccs]
        span = max([int(self.colors.max()) + 1] + [int(m.max(initial=0)) + 1 for m in marks])
        sizes = [m.size for m in marks]
        keys = np.zeros((sum(sizes), 3), dtype=key_dtype(span))
        for ci, (mark, start) in enumerate(zip(marks, accumulate(sizes, initial=0))):
            rows = keys[start : start + mark.size].reshape(*mark.shape, 3)
            columns = (self.colors[self.span(ci, r1), None], self.colors[self.span(ci, r2)], mark)
            for col, values in enumerate(columns):
                store_keys(rows[..., col], values)
        ids, num_colors = self.number(keys)
        mats = _matrices(ids, marks)
        state = _PairState(r1, r2, mats, num_colors)
        self.pair_states.append(state)
        return state

    def scl_round(self, state: _PairState) -> bool:
        """One pair-space update: a cell round whose cells are the pairs."""
        if state.gathers is None:  # built on the first round: many runs end at the seed
            state.gathers = _build_gathers(self.ccs, state.r1, state.r2, self.ell)
        indices, segment = state.gathers
        base = state.num_colors + 1  # every complex lifts by the same base
        dtype = key_dtype(row_span(base, [segment]))
        sizes = [C.size for C in state.mats]
        keys = np.zeros((sum(sizes), 1 + len(segment)), dtype=dtype)
        for C, index, start in zip(state.mats, indices, accumulate(sizes, initial=0)):
            # colors shifted to 1.. with a pad row and column of 0s, which the
            # gathers' wrapped -1 pads read
            ext = shifted_colors(C, dtype)
            build_rows(keys[start : start + C.size], C.ravel(), ext, index, segment, base)
        ids, num_colors = self.number(keys)
        state.mats = _matrices(ids, state.mats)
        changed = num_colors > state.num_colors
        state.num_colors = num_colors
        return changed

    def pool(self) -> None:
        """Fold the latest pair coloring into the cell colors of its two ranks."""
        if not self.pair_states:
            raise PoolWithoutScl("pool stage with no preceding pair block")
        state = self.pair_states[-1]
        r1, r2 = state.r1, state.r2
        # a rank-r1 row holds its cell's color and the multiset of its row of
        # pair colors, a rank-r2 row the multiset of its column, after the row
        # multiset when r1 = r2; other rows hold the color alone
        width = 1 + max(sum(C.shape) if r1 == r2 else max(C.shape) for C in state.mats)
        span = max(int(self.colors.max()), state.num_colors - 1) + 1
        keys = np.zeros((len(self.colors), width), dtype=key_dtype(span))
        store_keys(keys[:, 0], self.colors)
        for ci, C in enumerate(state.mats):
            n1, n2 = C.shape
            col = 1 + n2 if r1 == r2 else 1
            rows, columns = keys[self.span(ci, r1), 1 : 1 + n2], keys[self.span(ci, r2), col : col + n1]
            for multisets, part in ((rows, C), (columns, C.T)):
                store_keys(multisets, part)
                multisets.sort(axis=1)
        self.recolor(keys)


def _matrices(ids: np.ndarray, like: Sequence[np.ndarray]) -> list[np.ndarray]:
    """ids cut into consecutive matrices of the shapes of like."""
    ends = accumulate(m.size for m in like)
    return [ids[end - m.size : end].reshape(m.shape) for m, end in zip(like, ends)]


def _marking_matrix(cc: CombinatorialComplex, r1: int, r2: int, marking: str) -> np.ndarray:
    n1, n2 = cc.skeleton_size(r1), cc.skeleton_size(r2)
    if marking == "binary":
        indptr, sups = cc.neighbor_csr(incidence_up(r1, r2))
        mark = np.zeros((n1, n2), dtype=np.int64)
        mark[row_ids(indptr), sups] = 1
        return mark
    if marking == "distance":
        if r1 != 0:
            raise MarkingUnsupported(
                f"distance marking needs r1 = 0 (a node metric), got r1 = {r1}"
            )
        if n2 == 0:
            return np.zeros((n1, 0), dtype=np.int64)
        # distance from each node to the nearest vertex of each r2-cell
        blocks = distance_blocks(cc.neighbor_csr(adjacency(0, 1)))
        return np.concatenate([nearest_face_distances(d, cc.skeleton_arrays(r2)) for d in blocks])
    raise MarkingUnsupported(f"unknown marking {marking!r}")


def _build_gathers(ccs, r1: int, r2: int, ell: int):
    """Per complex, the flat ids of the pairs each pair (x, y) reads, as one
    (n1 * n2, W) matrix into its colors padded to (n1 + 1) x (n2 + 1), and
    each column's position in ``sides``; widths are joint across complexes.
    A -1 pad wraps onto a pad entry: x' = -1 onto the pad row, y' = -1 onto
    the pad column of the row before (of the last row when x = 0)."""
    # (spec, keyed by x, swaps x): (x', y) for x' adjacent or co-adjacent to x,
    # (x, y') likewise for y, (x, y') for y' containing x, (x', y) for x' inside y
    sides = [(f(r1, r), True, True) for r in range(ell + 1) for f in (adjacency, co_adjacency)]
    sides += [(f(r2, r), False, False) for r in range(ell + 1) for f in (adjacency, co_adjacency)]
    sides += [(incidence_up(r1, r2), True, False), (incidence_down(r2, r1), False, True)]
    per_side = [padded_gather([cc.neighbor_csr(spec) for cc in ccs]) for spec, _, _ in sides]
    segment = np.repeat(np.arange(len(sides)), [mats[0].shape[1] for mats in per_side])
    indices = []
    for ci, cc in enumerate(ccs):
        n1, n2 = cc.skeleton_size(r1), cc.skeleton_size(r2)
        dtype = index_dtype((n1 + 1) * (n2 + 1))
        x, y = np.arange(n1, dtype=dtype)[:, None, None], np.arange(n2, dtype=dtype)[None, :, None]
        parts = []
        for (_, by_x, swap_x), mats in zip(sides, per_side):
            nb = mats[ci].astype(dtype)
            nb = nb[:, None, :] if by_x else nb[None, :, :]
            ids = nb * (n2 + 1) + y if swap_x else x * (n2 + 1) + nb
            parts.append(np.broadcast_to(ids, (n1, n2, nb.shape[2])))
        indices.append(np.concatenate(parts, axis=2).reshape(n1 * n2, len(segment)))
    return indices, segment


def _validate_stages(ccs, stages: Sequence[Stage], ell: int) -> None:
    for st in stages:
        if isinstance(st, HompBlock):
            if st.specs is not None:
                for s in st.specs:
                    if not (0 <= s.r1 <= ell and 0 <= s.r2 <= ell):
                        raise RankOutOfRange(f"spec {s} beyond dimension {ell}")
        elif isinstance(st, SclBlock):
            if not 0 <= st.r1 <= st.r2:
                raise RankOutOfRange(
                    f"pair block needs 0 <= r1 <= r2, got ({st.r1},{st.r2})"
                )
            for cc in ccs:
                if st.r2 > cc.dimension:
                    raise RankOutOfRange(
                        f"pair block ({st.r1},{st.r2}) beyond dimension {cc.dimension}"
                    )
        else:
            continue
        if st.rounds is not None and st.rounds < 1:
            raise RankOutOfRange("block rounds must be >= 1 or None")


@lru_cache(maxsize=None)
def _natural_specs(ell: int) -> tuple[NeighborhoodSpec, ...]:
    """One shared tuple per dimension: every paused run keeps its specs."""
    return tuple(natural_specs(ell))


def _updates(state: CellColors, stage: Stage) -> Iterator[None]:
    """Run one stage on state, pausing after every update (cell round, pair
    seeding, pair round, pooling).

    A block with ``rounds=None`` stops after the first round that leaves its
    partition unchanged.  Each other round splits a class, so a block needs
    at most one round more than it has cells, or pairs for a pair block; one
    that outruns that bound is a kernel fault.
    """
    if isinstance(stage, PoolStage):
        state.pool()
        yield
        return
    if isinstance(stage, SclBlock):
        pair = state.seed_pairs(stage)
        yield
        step = partial(state.scl_round, pair)
        bound = sum(m.size for m in pair.mats)
        fault = "pair refinement exceeded the pair-space bound"
    else:
        specs = tuple(stage.specs) if stage.specs is not None else _natural_specs(state.ell)
        step = partial(state.cell_round, specs)
        bound = len(state.colors)
        fault = "refinement exceeded the cell-count bound"
    for _ in range(stage.rounds or bound + 1):
        changed = step()
        yield
        if stage.rounds is None and not changed:
            return
    if stage.rounds is None:
        raise AssertionError(fault)


def run_diagram(
    ccs: Sequence[CombinatorialComplex],
    stages: Sequence[Stage],
) -> Iterator[tuple[int, Callable[[], list[tuple]], CellColors]]:
    """Execute stages jointly, yielding (round, snapshot, state).

    Round 0 is the initial uniform coloring; every update advances the
    counter by one.  The middle element is the bound method
    ``state.snapshot``, not its value: building the comparable views costs
    one histogram per rank and pair block, and most consumers never read
    them (:meth:`CellColors.agree` compares the same thing from class sizes).
    """
    state = CellColors(ccs, max(cc.dimension for cc in ccs))
    _validate_stages(ccs, stages, state.ell)
    yield 0, state.snapshot, state
    updates = chain.from_iterable(_updates(state, st) for st in stages)
    for tick, _ in enumerate(updates, 1):
        yield tick, state.snapshot, state


def _final_state(ccs, stages) -> CellColors:
    state = None
    for _, _, state in run_diagram(ccs, stages):
        pass
    assert state is not None
    return state


def _fingerprints_of(state: CellColors) -> list[Fingerprint]:
    out = []
    for ci, cc in enumerate(state.ccs):
        ranks, pairs = state.view(ci, cc.dimension)
        out.append(
            Fingerprint(
                skeleton_sizes=cc.skeleton_sizes(),
                rank_histograms=ranks,
                pair_histograms=pairs,
            )
        )
    return out


def homp_refine(
    ccs: Sequence[CombinatorialComplex],
    config: Sequence[Stage] | HompBlock | None = None,
) -> list[tuple[Coloring, Fingerprint]]:
    """Jointly refine cell colors; default config is all natural neighborhoods
    iterated to stability."""
    if config is None:
        stages: Sequence[Stage] = (HompBlock(None, None),)
    elif isinstance(config, HompBlock):
        stages = (config,)
    else:
        stages = tuple(config)
        if not all(isinstance(s, HompBlock) for s in stages):
            raise RankOutOfRange("homp_refine accepts cell-refinement blocks only")
    state = _final_state(ccs, stages)
    prints = _fingerprints_of(state)
    results = []
    for ci, cc in enumerate(state.ccs):
        coloring = Coloring(
            tuple(
                tuple(state.colors[state.span(ci, r)].tolist())
                for r in range(cc.dimension + 1)
            )
        )
        results.append((coloring, prints[ci]))
    return results


def scl_refine(
    cc: CombinatorialComplex,
    r1: int,
    r2: int,
    marking: str = "distance",
    rounds: int | None = None,
) -> PairColoring:
    """Pair-space refinement of a single complex, seeded from rank colors."""
    state = _final_state([cc], (SclBlock(r1, r2, marking, rounds),))
    mat = state.pair_states[-1].mats[0]
    return PairColoring(r1, r2, tuple(tuple(row) for row in mat.tolist()))


def smcn_refine(
    ccs: Sequence[CombinatorialComplex],
    diagram: Sequence[Stage] | None = None,
) -> list[Fingerprint]:
    """Run a staged diagram jointly and return the final fingerprints."""
    stages = tuple(diagram) if diagram is not None else default_smcn_diagram()
    return _fingerprints_of(_final_state(ccs, stages))


@dataclass(frozen=True)
class Verdict:
    distinguished: bool
    round: int | None = None
    engine: str = ""

    def __str__(self) -> str:
        if self.distinguished:
            return f"distinguished (engine {self.engine}, round {self.round})"
        return f"indistinguishable (engine {self.engine})"


@dataclass(frozen=True)
class Engine:
    """Distinguishability engine name plus its stages (None for the oracle)."""

    name: str
    stages: tuple[Stage, ...] | None

    @staticmethod
    def homp_full() -> "Engine":
        return Engine("homp", (HompBlock(None, None),))

    @staticmethod
    def scl(r1: int, r2: int, marking: str = "distance") -> "Engine":
        return Engine(
            f"scl:{r1},{r2},{'dist' if marking == 'distance' else 'bin'}",
            (SclBlock(r1, r2, marking, None), PoolStage()),
        )

    @staticmethod
    def smcn(stages: Sequence[Stage] | None = None) -> "Engine":
        return Engine(
            "smcn:default" if stages is None else "smcn:custom",
            tuple(stages) if stages is not None else default_smcn_diagram(),
        )

    @staticmethod
    def oracle() -> "Engine":
        return Engine("oracle", None)


def distinguish(
    a: CombinatorialComplex,
    b: CombinatorialComplex,
    engine: Engine,
) -> Verdict:
    """Compare two complexes; report the earliest separating round.

    For refinement engines, "indistinguishable" certifies only the engine's
    power; the oracle decides exact isomorphism.  A complex compared under the
    same stages for the second time gets a trace (:class:`_Trace`), so each
    complex is refined once however many partners it meets; first comparisons
    and pairs of unequal dimension run the two complexes jointly.
    """
    if engine.stages is None:
        from .iso import cc_isomorphic

        res = cc_isomorphic(a, b)
        if res.isomorphic is None:
            return Verdict(distinguished=False, round=None, engine="oracle:unknown")
        return Verdict(distinguished=not res.isomorphic, round=None, engine="oracle")
    stages = engine.stages
    _validate_stages([a, b], stages, max(a.dimension, b.dimension))
    traces = _admitted_traces(a, b, stages)
    if traces is not None:
        return _compare_traces(a, b, stages, traces, engine.name)
    for tick, _, state in run_diagram([a, b], stages):
        if not state.agree():
            return Verdict(distinguished=True, round=tick, engine=engine.name)
    return Verdict(distinguished=False, round=None, engine=engine.name)


class _Trace:
    """One complex's run of one diagram, advanced tick by tick on demand.

    ``tables[t]`` describes tick t: the skeleton sizes at tick 0, then the
    table of the rows the tick's update interned (the cells, or the live pair
    block): the distinct rows in id order and their counts.  Run alone,
    a complex's ids are canonical (:func:`number_keys`), so while two
    complexes' tables agree their ids name the same rows and their next rows
    are the same function of them.  Their tables at a tick then agree exactly
    when the updated rows agree as multisets, which is when the snapshots of
    their joint run agree; a larger neighborhood in one complex already
    widens its rows.  Stopping rules (``rounds=None``) count classes, which
    the tables fix, so both runs end at the same tick as long as they agree.
    """

    __slots__ = ("tables", "_run", "_state")

    def __init__(self, cc: CombinatorialComplex, stages: tuple[Stage, ...]):
        # through the module attribute, so a wrapped run_diagram sees the run
        self._run = run_diagram([cc], stages)
        self._state = next(self._run)[2]
        self._state.tabulate = True
        self.tables: list[tuple] = [cc.skeleton_sizes()]

    def table(self, tick: int) -> tuple | None:
        """The table of a tick; None once the diagram has ended before it."""
        while len(self.tables) <= tick and self._run is not None:
            step = next(self._run, None)
            if step is None:
                self._run = self._state = None  # the diagram ended: release its state
            else:
                self.tables.append(step[2].table)
        return self.tables[tick] if tick < len(self.tables) else None

    def suspend(self) -> None:
        """Between comparisons, keep the colors in compact form: most traces
        are never advanced again."""
        if self._state is not None:
            self._state.compact()


def _admitted_traces(a, b, stages) -> tuple[_Trace, _Trace] | None:
    """Both complexes' traces of the stages, once either complex has been
    compared under them before and the dimensions agree; otherwise None, and
    both complexes are marked as compared.  A complex compared once (every
    pair of a one-to-one workload) thus never pays for a trace."""
    try:
        seen = stages in a._traces or stages in b._traces
    except TypeError:  # unhashable stages (a spec list in a block) are not cached
        return None
    if not seen or a.dimension != b.dimension:
        a._traces.setdefault(stages, None)
        b._traces.setdefault(stages, None)
        return None
    for cc in (a, b):
        if cc._traces.get(stages) is None:
            cc._traces[stages] = _Trace(cc, stages)
    return a._traces[stages], b._traces[stages]


def _compare_traces(a, b, stages, traces: tuple[_Trace, _Trace], name: str) -> Verdict:
    """The verdict of the joint run, from the first tick whose tables differ."""
    ta, tb = traces
    try:
        tick = 0
        while (x := ta.table(tick)) == (y := tb.table(tick)) and x is not None:
            tick += 1
    except BaseException:
        # a run that raised is finished: drop both, so the next call raises again
        a._traces.pop(stages, None)
        b._traces.pop(stages, None)
        raise
    ta.suspend()
    tb.suspend()
    if x == y:  # both diagrams ended
        return Verdict(distinguished=False, round=None, engine=name)
    return Verdict(distinguished=True, round=tick, engine=name)
