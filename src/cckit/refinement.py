"""Color-refinement distinguishability engines.

Message-passing updates with injective aggregation are abstracted to
Weisfeiler-Leman style refinement, and every update is one operation: a row
per cell holding its old color and one sorted neighbor-color multiset per
configured neighborhood function, numbered jointly across the complexes being
compared (:func:`intern_rows`).  Equal ids mean equal rows, so the color
histograms of different complexes are directly comparable.  Ids follow the
sorted order of the distinct rows, so they are canonical: a complex refined
alone numbers the same rows the same way, which lets :func:`distinguish`
refine each complex once and compare per-tick tables across its partners.
Cell rounds gather neighbor colors through padded index matrices
(:func:`padded_gather`); pair rounds and pooling build their rows over the
pair space and intern them the same way.

Three engines are exposed: plain cell refinement over the natural
neighborhoods ("homp"), pair-space refinement over X_{r1} x X_{r2} with
incidence- or distance-based markings ("scl"), and staged diagrams mixing the
two with pooling ("smcn").  The exact-isomorphism oracle in :mod:`cckit.iso`
refines with the same kernel, :class:`CellColors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .complex import (
    CombinatorialComplex,
    Csr,
    NeighborhoodKind,
    NeighborhoodSpec,
    adjacency,
    co_adjacency,
    incidence_up,
    natural_specs,
    padded_rows,
    row_ids,
    row_lengths,
)
from .errors import MarkingUnsupported, PoolWithoutScl, RankOutOfRange
from .invariants import nearest_face_distances, shortest_paths

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


# -- the refinement kernel ------------------------------------------------------


def intern_rows(blocks: Sequence[np.ndarray]) -> tuple[list[np.ndarray], int]:
    """Number the rows of 2-D int blocks jointly: ids per block, class count.

    Narrower blocks are padded with -1 on the right.  Ids are canonical: the
    distinct rows are numbered in lexicographic order, so a row's id depends
    only on the set of distinct rows, not on where the rows occur.  Exact and
    hash-free: a lexsort over the columns, then adjacent rows compared.
    """
    ids, k, _ = _intern(blocks, tabulate=False)
    return ids, k


def _intern(
    blocks: Sequence[np.ndarray], tabulate: bool
) -> tuple[list[np.ndarray], int, tuple[bytes, bytes] | None]:
    """intern_rows, plus the table of the rows when asked: the distinct rows
    in id order and their counts, as bytes (compact copies that compare
    exactly; the two lengths fix the row width)."""
    sizes = [len(b) for b in blocks]
    rows = np.full((sum(sizes), max(b.shape[1] for b in blocks)), -1, dtype=np.int64)
    pos = 0
    for b in blocks:
        rows[pos : pos + len(b), : b.shape[1]] = b
        pos += len(b)
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    leader = np.ones(len(rows), dtype=bool)
    leader[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(leader) - 1
    starts = np.flatnonzero(leader)
    table = None
    if tabulate:
        counts = row_lengths(np.append(starts, len(rows)))
        table = (ordered[starts].tobytes(), counts.tobytes())
    return np.split(ids, np.cumsum(sizes)[:-1]), len(starts), table


def padded_gather(csrs: Sequence[Csr], shifts: Sequence[int] | None = None) -> list[np.ndarray]:
    """Neighbor CSRs as (n, w) index matrices, one per complex, with one
    joint width w.  Short rows are padded with -1, which reads a sentinel the
    caller appends last; shifts offset each complex's indices."""
    width = max((int(row_lengths(indptr).max(initial=0)) for indptr, _ in csrs), default=0)
    out = []
    for ci, csr in enumerate(csrs):
        mat = padded_rows(csr, width)
        if shifts:
            mat[mat >= 0] += shifts[ci]
        out.append(mat)
    return out


class CellColors:
    """Joint cell colors of several complexes, refined by one kernel round.

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
        self.classes = len(np.unique(self.colors))
        self._gathers: dict[tuple[NeighborhoodSpec, ...], list] = {}
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

    def recolor(self, blocks: Sequence[np.ndarray]) -> bool:
        """New colors from the rows of blocks given in cell order; True when
        the partition got finer."""
        ids, k = self.intern(blocks)
        changed = k > self.classes
        self.colors, self.classes = np.concatenate(ids), k
        return changed

    def intern(self, blocks: Sequence[np.ndarray]) -> tuple[list[np.ndarray], int]:
        """intern_rows, keeping the rows' table when tabulating."""
        ids, k, table = _intern(blocks, self.tabulate)
        self.table = table
        return ids, k

    def cell_round(self, specs: tuple[NeighborhoodSpec, ...]) -> bool:
        """One simultaneous update; returns False once the partition is stable."""
        if specs not in self._gathers:
            self._gathers[specs] = self._build(specs)
        # shift colors to 1.. (0 is the pad) and lift each spec's columns
        # into their own value range: one sort per row keeps the multisets apart
        ext = np.append(self.colors + 1, 0)
        base = int(ext.max()) + 1
        blocks = []
        for r, (index, segment) in enumerate(self._gathers[specs]):
            old = self.colors[self.rank_span(r)]
            blocks.append(np.column_stack((old, np.sort(ext[index] + segment * base, axis=1))))
        return self.recolor(blocks)

    def _build(self, specs: tuple[NeighborhoodSpec, ...]) -> list:
        """Per rank: the gather matrix over all complexes and each column's spec."""
        m = len(self.ccs)
        out = []
        for r in range(self.ell + 1):
            mats = [
                np.vstack(
                    padded_gather(
                        [cc.neighbor_csr(s) for cc in self.ccs],
                        [self.starts[s.target_rank * m + ci] for ci in range(m)],
                    )
                )
                for s in specs
                if s.r1 == r
            ]
            n = len(self.colors[self.rank_span(r)])
            index = np.hstack([np.empty((n, 0), dtype=np.int64), *mats])
            segment = np.repeat(np.arange(len(mats)), [mat.shape[1] for mat in mats])
            out.append((index, segment))
        return out


class _PairState:
    """Live pair coloring of one SclBlock across all complexes."""

    __slots__ = ("r1", "r2", "mats", "num_colors", "gathers")

    def __init__(self, r1: int, r2: int, mats: list[np.ndarray], num_colors: int, gathers):
        self.r1 = r1
        self.r2 = r2
        self.mats = mats
        self.num_colors = num_colors
        self.gathers = gathers


class _JointState(CellColors):
    """Cell colors plus the live pair colorings of one diagram run."""

    def __init__(self, ccs: Sequence[CombinatorialComplex]):
        super().__init__(ccs, max(cc.dimension for cc in ccs))
        self.pair_states: list[_PairState] = []

    def view(self, ci: int, top: int) -> tuple:
        """Rank histograms 0..top plus live pair histograms of one complex."""
        ranks = tuple(_hist(self.colors[self.span(ci, r)]) for r in range(top + 1))
        return ranks, tuple(_hist(ps.mats[ci]) for ps in self.pair_states)

    def snapshot(self) -> list[tuple]:
        """Comparable view per complex."""
        return [self.view(ci, self.ell) for ci in range(len(self.ccs))]

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
        r1, r2 = block.r1, block.r2
        marks, rows = [], []
        for ci, cc in enumerate(self.ccs):
            c1, c2 = self.colors[self.span(ci, r1)], self.colors[self.span(ci, r2)]
            mark = _marking_matrix(cc, r1, r2, block.marking)
            marks.append(mark)
            rows.append(np.column_stack((c1.repeat(len(c2)), np.tile(c2, len(c1)), mark.ravel())))
        ids, num_colors = self.intern(rows)
        mats = [i.reshape(mark.shape) for i, mark in zip(ids, marks)]
        state = _PairState(r1, r2, mats, num_colors, None)
        self.pair_states.append(state)
        return state

    def scl_round(self, state: _PairState) -> bool:
        """One pair-space update; exact multiset encoding via padded sorting."""
        if state.gathers is None:  # built on the first round: many runs end at the seed
            state.gathers = _build_gathers(self.ccs, state.r1, state.r2, self.ell)
        blocks_per_cc = []
        for ci, cc in enumerate(self.ccs):
            C = state.mats[ci]
            n1, n2 = C.shape
            parts = [C[:, :, None]]
            row_ext = np.concatenate([C, np.full((1, n2), -1, dtype=np.int64)], axis=0)
            col_ext = np.concatenate([C, np.full((n1, 1), -1, dtype=np.int64)], axis=1)
            ct_ext = np.concatenate([C.T, np.full((n2, 1), -1, dtype=np.int64)], axis=1)
            for slot, pad in state.gathers[ci]:
                if slot == "x":  # multiset of C[x', y] over neighbors x' of x
                    g = row_ext[pad]            # (n1, w, n2)
                    g = np.sort(g, axis=1)
                    parts.append(np.moveaxis(g, 1, 2))
                elif slot == "y":  # multiset of C[x, y'] over neighbors y' of y
                    g = col_ext[:, pad]         # (n1, n2, w)
                    parts.append(np.sort(g, axis=2))
                elif slot == "bx":  # per-x multiset of C[x, y'] over up-incidences
                    g = np.take_along_axis(col_ext, pad, axis=1)  # (n1, w)
                    g = np.sort(g, axis=1)
                    parts.append(np.broadcast_to(g[:, None, :], (n1, n2, g.shape[1])))
                else:  # "by": per-y multiset of C[x', y] over down-incidences
                    g = np.take_along_axis(ct_ext, pad, axis=1)  # (n2, w)
                    g = np.sort(g, axis=1)
                    parts.append(np.broadcast_to(g[None, :, :], (n1, n2, g.shape[1])))
            sig = np.concatenate(parts, axis=2)
            blocks_per_cc.append(sig.reshape(n1 * n2, sig.shape[2]))
        ids, num_colors = self.intern(blocks_per_cc)
        state.mats = [i.reshape(C.shape) for i, C in zip(ids, state.mats)]
        changed = num_colors > state.num_colors
        state.num_colors = num_colors
        return changed

    def pool(self) -> None:
        """Fold the latest pair coloring into the cell colors of its two ranks."""
        if not self.pair_states:
            raise PoolWithoutScl("pool stage with no preceding pair block")
        state = self.pair_states[-1]
        blocks = []
        for r in range(self.ell + 1):
            for ci, C in enumerate(state.mats):
                parts = [self.colors[self.span(ci, r), None]]
                if r == state.r1:  # multiset of each row
                    parts.append(np.sort(C, axis=1))
                if r == state.r2:  # multiset of each column
                    parts.append(np.sort(C, axis=0).T)
                blocks.append(np.hstack(parts))
        self.recolor(blocks)


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
        dist = np.array(shortest_paths(cc, adjacency(0, 1)), dtype=np.float64)
        dist[np.isinf(dist)] = -1
        return nearest_face_distances(dist.astype(np.int64), cc.skeleton_arrays(r2))
    raise MarkingUnsupported(f"unknown marking {marking!r}")


def _build_gathers(ccs, r1: int, r2: int, ell: int):
    """Padded neighbor-index matrices per complex, with joint widths per slot;
    a -1 pad reads the sentinel row or column the pair round appends."""
    specs: list[tuple[str, NeighborhoodSpec]] = []
    for r in range(ell + 1):
        specs.append(("x", adjacency(r1, r)))
        specs.append(("x", co_adjacency(r1, r)))
    for r in range(ell + 1):
        specs.append(("y", adjacency(r2, r)))
        specs.append(("y", co_adjacency(r2, r)))
    specs.append(("bx", NeighborhoodSpec(NeighborhoodKind.INCIDENCE_UP, r1, r2)))
    specs.append(("by", NeighborhoodSpec(NeighborhoodKind.INCIDENCE_DOWN, r2, r1)))
    per_spec = [padded_gather([cc.neighbor_csr(spec) for cc in ccs]) for _, spec in specs]
    return [
        [(slot, mats[ci]) for (slot, _), mats in zip(specs, per_spec) if mats[ci].shape[1]]
        for ci in range(len(ccs))
    ]


def _validate_stages(ccs, stages: Sequence[Stage], ell: int) -> None:
    for st in stages:
        if isinstance(st, HompBlock):
            if st.specs is not None:
                for s in st.specs:
                    if not (0 <= s.r1 <= ell and 0 <= s.r2 <= ell):
                        raise RankOutOfRange(f"spec {s} beyond dimension {ell}")
            if st.rounds is not None and st.rounds < 1:
                raise RankOutOfRange("block rounds must be >= 1 or None")
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
            if st.rounds is not None and st.rounds < 1:
                raise RankOutOfRange("block rounds must be >= 1 or None")


@lru_cache(maxsize=None)
def _natural_specs(ell: int) -> tuple[NeighborhoodSpec, ...]:
    """One shared tuple per dimension: every paused run keeps its specs."""
    return tuple(natural_specs(ell))


def run_diagram(
    ccs: Sequence[CombinatorialComplex],
    stages: Sequence[Stage],
) -> Iterator[tuple[int, list[tuple], _JointState]]:
    """Execute stages jointly, yielding (round, comparable snapshots, state).

    Round 0 is the initial uniform coloring; every update (cell round, pair
    seeding, pair round, pooling) advances the counter by one.
    """
    state = _JointState(ccs)
    _validate_stages(ccs, stages, state.ell)
    total_cells = sum(cc.num_cells() for cc in ccs)
    tick = 0
    yield tick, state.snapshot(), state
    for st in stages:
        if isinstance(st, HompBlock):
            specs = tuple(st.specs) if st.specs is not None else _natural_specs(state.ell)
            rounds = st.rounds if st.rounds is not None else total_cells + 1
            for k in range(rounds):
                changed = state.cell_round(specs)
                tick += 1
                yield tick, state.snapshot(), state
                if st.rounds is None and not changed:
                    break
            else:
                if st.rounds is None:
                    raise AssertionError("refinement exceeded the cell-count bound")
        elif isinstance(st, SclBlock):
            pair = state.seed_pairs(st)
            tick += 1
            yield tick, state.snapshot(), state
            pair_space = sum(m.size for m in pair.mats)
            rounds = st.rounds if st.rounds is not None else pair_space + 1
            for k in range(rounds):
                changed = state.scl_round(pair)
                tick += 1
                yield tick, state.snapshot(), state
                if st.rounds is None and not changed:
                    break
            else:
                if st.rounds is None:
                    raise AssertionError("pair refinement exceeded the pair-space bound")
        else:
            state.pool()
            tick += 1
            yield tick, state.snapshot(), state


def _final_state(ccs, stages) -> _JointState:
    state = None
    for _, _, state in run_diagram(ccs, stages):
        pass
    assert state is not None
    return state


def _fingerprints_of(state: _JointState) -> list[Fingerprint]:
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
    for tick, snaps, _state in run_diagram([a, b], stages):
        if snaps[0] != snaps[1]:
            return Verdict(distinguished=True, round=tick, engine=engine.name)
    return Verdict(distinguished=False, round=None, engine=engine.name)


class _Trace:
    """One complex's run of one diagram, advanced tick by tick on demand.

    ``tables[t]`` describes tick t: the skeleton sizes at tick 0, then the
    table of the rows the tick's update interned (the cells, or the live pair
    block): the distinct rows in id order and their counts.  Run alone,
    a complex's ids are canonical (:func:`intern_rows`), so while two
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
