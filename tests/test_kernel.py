"""The numpy refinement kernel against the per-cell tuple reference.

At every tick of a diagram, the joint cell partition (and the joint pair
partition, where a pair block is live) must equal the one computed by
helpers.ReferenceRefinement, up to renaming of the colors.
"""

import hashlib
import random
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cckit import refinement
from cckit.complex import (
    SimpleGraph,
    adjacency,
    build_cc,
    disjoint_union,
    disjoint_union_all,
    graph_as_cc,
    natural_specs,
    row_lengths,
)
from cckit.generators import cylinder, moebius, mog_example_pair, star_graph, torus
from cckit.lifting import cyclic_lift, mog_pool, triangular_lift
from cckit.refinement import (
    CellColors,
    Engine,
    HompBlock,
    PoolStage,
    SclBlock,
    _build_gathers,
    _marking_matrix,
    distinguish,
    run_diagram,
)
from cckit._rowkeys import (
    build_rows,
    index_dtype,
    key_dtype,
    number_keys,
    padded_gather,
    row_span,
    store_keys,
)

from helpers import (
    arbitrary_complexes,
    lifted_iso_graphs,
    random_graph,
    reference_diagram,
    reference_intern,
    reference_marking,
)


def graphs(max_nodes=8, edge_prob=0.45):
    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_nodes))
        seed = draw(st.integers(0, 10**6))
        return random_graph(random.Random(seed), n, edge_prob)

    return build()


# values at the edges of the key dtypes (a value is stored plus one) and the int64 maximum
EDGE_VALUES = [-1, 0, 1, 254, 255, 65534, 65535, 2**32 - 2, 2**32 - 1, 2**63 - 1]
KEY_DTYPES = [np.dtype(f"u{size}") for size in (1, 2, 4, 8)]


def int_blocks():
    """2-D int64 blocks of 0-6 rows and 1-5 columns, values at least -1:
    small, at key dtype boundaries or the int64 maximum; empty blocks
    included."""

    @st.composite
    def build(draw):
        rows, width = draw(st.integers(0, 6)), draw(st.integers(1, 5))
        values = st.one_of(st.integers(-1, 3), st.sampled_from(EDGE_VALUES))
        flat = draw(st.lists(values, min_size=rows * width, max_size=rows * width))
        return np.array(flat, dtype=np.int64).reshape(rows, width)

    return build()


def narrowest_key_dtype(blocks) -> np.dtype:
    return key_dtype(max([0] + [int(b.max()) + 1 for b in blocks if b.size]))


def key_blocks():
    """1-4 int blocks and a key dtype that holds their keys: the narrowest
    or any wider one."""

    @st.composite
    def build(draw):
        blocks = draw(st.lists(int_blocks(), min_size=1, max_size=4))
        least = narrowest_key_dtype(blocks).itemsize
        return blocks, draw(st.sampled_from([d for d in KEY_DTYPES if d.itemsize >= least]))

    return build()


def number_blocks(blocks, tabulate=False, dtype=None):
    """number_keys over the rows of 2-D blocks of values at least -1, stored
    with store_keys into one key buffer of dtype (the narrowest that holds
    them by default); narrower blocks keep the -1 pad's key 0 on the right.
    Ids per block, class count and table."""
    blocks = [np.asarray(b, dtype=np.int64) for b in blocks]
    if dtype is None:
        dtype = narrowest_key_dtype(blocks)
    sizes = [len(b) for b in blocks]
    keys = np.zeros((sum(sizes), max(b.shape[1] for b in blocks)), dtype=dtype)
    for b, pos in zip(blocks, np.cumsum([0] + sizes)):
        store_keys(keys[pos : pos + len(b), : b.shape[1]], b)
    ids, k, table = number_keys(keys, tabulate)
    return np.split(ids, np.cumsum(sizes)[:-1]), k, table


def same_partition(a, b) -> bool:
    """Equal partitions up to renaming: the pairing of labels is a bijection."""
    return len(a) == len(b) and len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def kernel_cells(state):
    return [
        c
        for ci in range(len(state.ccs))
        for r in range(state.ell + 1)
        for c in state.colors[state.span(ci, r)].tolist()
    ]


def reference_cells(ref):
    return [c for per_rank in ref.colors for row in per_rank for c in row]


def assert_kernel_matches_reference(ccs, engine):
    ticks = zip_longest(run_diagram(ccs, engine.stages), reference_diagram(ccs, engine.stages))
    for step, (ours, ref) in enumerate(ticks):
        assert ours is not None and ref is not None, f"tick counts differ at {step}"
        tick, _, state = ours
        assert same_partition(kernel_cells(state), reference_cells(ref)), f"cells at tick {tick}"
        if state.pair_states:
            pairs = state.pair_states[-1].colors.tolist()
            ref_pairs = [c for per_cc in ref.pairs for row in per_cc for c in row]
            assert same_partition(pairs, ref_pairs), f"pairs at tick {tick}"


def star_pair():
    whole = triangular_lift(star_graph(2, 6))
    halves = disjoint_union(
        triangular_lift(star_graph(2, 3)), triangular_lift(star_graph(2, 3))
    )
    return whole, halves


FIXTURES = {
    "torus_18": lambda: (torus((3, 6)), disjoint_union(torus((3, 3)), torus((3, 3)))),
    "torus_36": lambda: (torus((3, 12)), torus((6, 6))),
    "torus_27": lambda: (
        torus((3, 9)),
        disjoint_union_all([torus((3, 3)), torus((3, 3)), torus((3, 3))]),
    ),
    "strips": lambda: (cylinder((3, 4)), moebius((3, 4))),
    "star": star_pair,
    "mog": lambda: tuple(mog_pool(g) for g in mog_example_pair()),
}
ENGINES = {
    "homp": Engine.homp_full,
    "smcn": Engine.smcn,
    # pair blocks over every rank pair shape: r1 < r2 with either marking,
    # r1 = r2 (both sides read the same neighborhoods; pooling takes rows
    # and columns), and a block to stability followed by a second block
    "scl_01_bin": lambda: Engine.scl(0, 1, "binary"),
    "scl_02_dist": lambda: Engine.scl(0, 2, "distance"),
    "scl_11_bin": lambda: Engine.scl(1, 1, "binary"),
    "scl_22_bin": lambda: Engine.scl(2, 2, "binary"),
    "scl_12_bin": lambda: Engine.scl(1, 2, "binary"),
    "two_blocks": lambda: Engine.smcn(
        (
            HompBlock(None, 1),
            SclBlock(0, 1, "binary", None),
            SclBlock(1, 1, "binary", 2),
            PoolStage(),
            HompBlock(None, 1),
        )
    ),
}


def with_triangle(g):
    """g with the triangle 0-1-2 added (and nodes, if it has fewer than three)."""
    return SimpleGraph.from_edges(max(g.num_nodes, 3), [*g.edges, (0, 1), (1, 2), (0, 2)])


def top_pair_rank(engine) -> int:
    """The highest rank any pair block of the engine reads."""
    return max((s.r2 for s in engine.stages if isinstance(s, SclBlock)), default=0)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixture_partitions(fixture, engine):
    ccs, eng = list(FIXTURES[fixture]()), ENGINES[engine]()
    if top_pair_rank(eng) > min(cc.dimension for cc in ccs):
        pytest.skip("pair block beyond the fixture's dimension")
    assert_kernel_matches_reference(ccs, eng)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@settings(max_examples=25, deadline=None)
@given(graphs(), graphs())
def test_graph_partitions(engine, g, h):
    eng = ENGINES[engine]()
    if top_pair_rank(eng) < 2:
        ccs = [triangular_lift(g), graph_as_cc(h)]
    else:  # a block over 2-cells needs a triangle in both complexes
        ccs = [triangular_lift(with_triangle(g)), triangular_lift(with_triangle(h))]
    assume(top_pair_rank(eng) <= min(cc.dimension for cc in ccs))
    assert_kernel_matches_reference(ccs, eng)


def empty_pair_space_pair():
    """A 2-complex without rank-1 cells, so X_0 x X_1 and X_1 x X_2 are
    empty, and the same cells plus the edges (0, 1) and (1, 2)."""
    cells = [((0, 1, 2), 2), ((2, 3, 4), 2)]
    return build_cc(cells, 5), build_cc(cells + [((0, 1), 1), ((1, 2), 1)], 5)


EMPTY_PAIR_SPACE_STAGES = {
    "scl_01_bin_pool": (SclBlock(0, 1, "binary", None), PoolStage()),
    "scl_01_dist_pool_homp": (SclBlock(0, 1, "distance", 2), PoolStage(), HompBlock(None, 1)),
    "scl_12_bin": (SclBlock(1, 2, "binary", None),),
}


@pytest.mark.parametrize("empty_first", [True, False])
@pytest.mark.parametrize("name", sorted(EMPTY_PAIR_SPACE_STAGES))
def test_empty_pair_space_beside_a_full_one(name, empty_first):
    # one complex takes no positions in the flat pair colors, so the other's
    # pairs start at 0 or right after nothing, and the pad follows them
    empty, full = empty_pair_space_pair()
    a, b = (empty, full) if empty_first else (full, empty)
    engine = Engine.smcn(EMPTY_PAIR_SPACE_STAGES[name])
    assert_kernel_matches_reference([a, b], engine)
    joint = distinguish(a, b, engine)
    assert distinguish(a, b, engine) == joint  # the second call compares traces


@pytest.mark.parametrize("fixture", ["torus_18", "strips"])
def test_equal_rounds_share_one_gather_build(monkeypatch, fixture):
    # gathers are keyed by value: pair blocks on the same ranks share one
    # build, and so do a None spec block and its natural specs as a list
    counts = {"_build_gathers": 0, "_build": 0}
    build_gathers, build = refinement._build_gathers, CellColors._build

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(refinement, "_build_gathers", counted("_build_gathers", build_gathers))
    monkeypatch.setattr(CellColors, "_build", counted("_build", build))
    stages = (
        SclBlock(0, 1, "binary", 2),
        PoolStage(),
        HompBlock(None, 1),
        SclBlock(0, 1, "distance", None),
        PoolStage(),
        HompBlock(list(natural_specs(2)), 1),
    )
    ccs = list(FIXTURES[fixture]())
    assert {cc.dimension for cc in ccs} == {2}
    assert_kernel_matches_reference(ccs, Engine.smcn(stages))
    assert counts == {"_build_gathers": 1, "_build": 1}


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_distance_marking(g):
    # cyclic lifts and pools give rank-2 cells of several widths, so the
    # marking's gather over padded vertex rows meets its pads
    for cc in (cyclic_lift(g, 8), mog_pool(g)):
        for r2 in range(cc.dimension + 1):
            mark = _marking_matrix(cc, 0, r2, "distance")
            assert mark.tolist() == reference_marking(cc, 0, r2, "distance")


class TestInternRows:
    """Row numbering through number_keys, on key buffers filled by store_keys."""

    def test_joint_sorted_order_ids(self):
        # distinct rows numbered in lexicographic order; the pad -1 sorts first
        blocks = [np.array([[1, 2], [0, 5], [1, 2]]), np.array([[0], [1]])]
        for dtype in KEY_DTYPES:
            ids, k, _ = number_blocks(blocks, dtype=dtype)
            assert [i.tolist() for i in ids] == [[3, 1, 3], [0, 2]]
            assert k == 4

    def test_ids_ignore_row_order_and_blocks(self):
        rows = np.array([[4, 1], [0, 2], [4, 1], [3, 3]])
        (whole,), _, _ = number_blocks([rows])
        shuffled, _, _ = number_blocks([rows[[3, 1]], rows[[2, 0]]])
        assert np.concatenate(shuffled).tolist() == whole[[3, 1, 2, 0]].tolist()

    def test_padding_does_not_merge_widths(self):
        # [7] padded to [7, -1] must differ from [7, 0]
        for dtype in KEY_DTYPES:
            _, k, _ = number_blocks([np.array([[7]]), np.array([[7, 0]])], dtype=dtype)
            assert k == 2

    def test_empty_block(self):
        ids, k, table = number_blocks([np.zeros((0, 3), dtype=np.int64)], tabulate=True)
        assert k == 0 and ids[0].shape == (0,)
        assert table == (b"", b"")

    @settings(max_examples=300, deadline=None)
    @given(key_blocks(), st.booleans())
    def test_matches_lexsort_reference(self, blocks_and_dtype, tabulate):
        blocks, dtype = blocks_and_dtype
        ids, k, table = number_blocks(blocks, tabulate, dtype)
        ref_ids, ref_k, ref_table = reference_intern(blocks, tabulate)
        assert k == ref_k
        assert [i.tolist() for i in ids] == [i.tolist() for i in ref_ids]
        assert table == ref_table


# key spans on both sides of every key dtype boundary
SPANS = [2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32]


class TestKeyDtypes:
    @pytest.mark.parametrize("span", SPANS)
    def test_intern_rows_at_span(self, span):
        # values -1..span - 1: the largest key is the span itself, in
        # key_dtype(span)
        blocks = [
            np.array([[-1, span - 1], [span - 1, -1], [0, span - 2]]),
            np.array([[span - 1], [0], [span - 1]]),
        ]
        assert narrowest_key_dtype(blocks) == key_dtype(span)
        ids, k, table = number_blocks(blocks, True)
        ref_ids, ref_k, ref_table = reference_intern(blocks, True)
        assert (k, [i.tolist() for i in ids], table) == (ref_k, [i.tolist() for i in ref_ids], ref_table)

    @pytest.mark.parametrize("span", SPANS)
    def test_update_rows_at_span(self, span):
        # an update whose largest key is the span: colors up to base - 2,
        # read as base - 1 once shifted, in the last of span // base segments
        base, segments = (span // 2, 2) if span % 2 == 0 else (span, 1)
        rng = np.random.default_rng(span)
        colors = rng.choice([0, 1, base - 3, base - 2], size=8)
        colors[-1] = base - 2
        ext = np.append(colors + 1, 0)
        segment = np.repeat(np.arange(segments), 2)
        assert row_span(base, [segment]) == span
        index = rng.integers(-1, len(colors), size=(8, len(segment)))
        index[0] = len(colors) - 1  # row 0 reads the largest color everywhere
        dtype = key_dtype(span)
        keys = np.zeros((8, 1 + index.shape[1]), dtype=dtype)
        build_rows(keys, colors, ext.astype(dtype), index.astype(np.int32), segment, base)
        assert int(keys.max()) == span
        ids, k, table = number_keys(keys, True)
        rows = np.column_stack((colors, np.sort(ext[index] + segment * base, axis=1)))
        (ref_ids,), ref_k, ref_table = reference_intern([rows], True)
        assert (k, ids.tolist(), table) == (ref_k, ref_ids.tolist(), ref_table)

    def test_key_dtype_boundaries(self):
        sizes = [key_dtype(span).itemsize for span in SPANS]
        assert sizes == [1, 2, 2, 4, 4, 8]

    def test_gather_dtype_flips_at_two_to_the_31(self):
        assert index_dtype(1) == np.int32
        assert index_dtype(2**31 - 1) == np.int32
        assert index_dtype(2**31) == np.int64
        assert index_dtype(2**40) == np.int64

    def test_gathers_are_int32(self):
        ccs = [torus((3, 4)), cyclic_lift(random_graph(random.Random(3), 9, 0.5), 8)]
        state = CellColors(ccs)
        assert {index.dtype for index, _ in state._build(tuple(natural_specs(2)))} == {np.dtype(np.int32)}
        index, _ = _build_gathers(ccs, 0, 1)
        assert index.dtype == np.int32


class TestGathers:
    def test_specs_without_neighbors_add_no_columns(self):
        # in a cyclic lift no edge or 2-cell lies inside a lower-rank cell, so
        # those incidence specs are empty; the other columns keep the
        # positions of the specs they gather
        ccs = [cyclic_lift(random_graph(random.Random(s), 10, 0.5), 8) for s in (1, 2)]
        assert all(cc.dimension == 2 for cc in ccs)
        kernel = CellColors(ccs)
        specs = tuple(natural_specs(2))
        for r, (index, segment) in enumerate(kernel._build(specs)):
            mine = [s for s in specs if s.r1 == r]
            widths = [
                max(int(row_lengths(cc.neighbor_csr(s)[0]).max(initial=0)) for cc in ccs)
                for s in mine
            ]
            assert segment.tolist() == [p for p, w in enumerate(widths) for _ in range(w)]
            assert index.shape == (kernel.rank_span(r).stop - kernel.rank_span(r).start, sum(widths))


def captured_round(state, run):
    """Run one update of state and return (its key buffer before numbering,
    changed, ids, class count, table)."""
    captured = []
    recolor = state.recolor

    def capture(coloring, keys):
        captured.append(keys.copy())
        return recolor(coloring, keys)

    state.recolor = capture
    state.tabulate = True
    changed = run()
    (keys,) = captured
    return keys, changed, state.colors, state.classes, state.table


def assert_degree_round_matches_gathers(ccs, specs):
    degree, gathered = CellColors(ccs), CellColors(ccs)
    assert degree.classes == degree.held  # the initial colors are uniform per rank
    ours = captured_round(degree, lambda: degree.cell_round(specs))
    ref = captured_round(gathered, lambda: gathered.update(gathered, gathered.cell_gathers(specs)))
    assert degree._gathers == {}  # the degree round built no gather
    (keys, *rest), (ref_keys, *ref_rest) = ours, ref
    assert keys.dtype == ref_keys.dtype and keys.shape == ref_keys.shape
    assert keys.tobytes() == ref_keys.tobytes()
    changed, ids, k, table = rest
    ref_changed, ref_ids, ref_k, ref_table = ref_rest
    assert (changed, ids.tolist(), k, table) == (ref_changed, ref_ids.tolist(), ref_k, ref_table)


def empty_middle_rank():
    """Rank-1 cells and rank-3 cells, none at rank 2."""
    return build_cc([((0, 1), 1), ((1, 2), 1), ((0, 1, 2), 3), ((1, 2, 3), 3)], 5)


def twin_vertex_set():
    """The vertex set {0, 1} at ranks 1 and 2."""
    return build_cc([((0, 1), 1), ((1, 2), 1), ((0, 1), 2), ((0, 1, 2), 2)], 4)


class TestDegreeRound:
    """A cell round on colors uniform per rank reads degrees, not gathers,
    and writes the keys the gathered round writes."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(arbitrary_complexes(), min_size=1, max_size=3), st.data())
    def test_matches_gathered_round(self, ccs, data):
        ell = max(cc.dimension for cc in ccs)
        # any spec order, so positions differ from the natural ones
        specs = data.draw(st.lists(st.sampled_from(natural_specs(ell)), min_size=1, unique=True))
        assert_degree_round_matches_gathers(ccs, tuple(specs))

    @pytest.mark.parametrize(
        "ccs",
        [
            [empty_middle_rank()],
            [empty_middle_rank(), twin_vertex_set()],
            [build_cc([], 3)],  # dimension 0: no spec has a neighbor
            [build_cc([], 2), build_cc([], 4)],
            [twin_vertex_set()],
            # adjacency(0, 1) and the rank-1 specs have neighbors in one complex only
            [build_cc([], 3), graph_as_cc(SimpleGraph.from_edges(3, [(0, 1), (1, 2)]))],
            [torus((3, 4)), build_cc([((0, 1), 1)], 12), empty_middle_rank()],
        ],
        ids=["empty_middle", "empty_middle_twin", "dim0", "dim0_two", "twin", "one_sided", "three"],
    )
    def test_fixed_states(self, ccs):
        ell = max(cc.dimension for cc in ccs)
        assert_degree_round_matches_gathers(ccs, tuple(natural_specs(ell)))

    @pytest.mark.parametrize("copies", [85, 86])
    def test_key_dtype_at_its_boundary(self, copies):
        # two colors, so base 3; the last of the repeated specs sits at
        # position copies - 1, and the largest key 3 * copies crosses 255
        ccs = [graph_as_cc(SimpleGraph.from_edges(4, [(0, 1), (1, 2)]))]
        assert_degree_round_matches_gathers(ccs, (adjacency(0, 1),) * copies)

    def test_split_rank_reads_gathers(self):
        # once a rank holds two colors, the round gathers again
        state = CellColors([cylinder((3, 4))])
        specs = tuple(natural_specs(2))
        assert state.cell_round(specs)  # the boundary edges split off
        assert state.classes > state.held and state._gathers == {}
        state.cell_round(specs)
        assert specs in state._gathers

    @pytest.mark.parametrize("engine", [Engine.homp_full, Engine.smcn])
    def test_torus_unions_build_no_cell_gather(self, monkeypatch, engine):
        # homp never splits a rank on a torus pair, and smcn separates one at
        # the pair seed, so neither builds a cell round's gathers
        def build(self, specs):
            raise AssertionError("a cell round built gathers")

        monkeypatch.setattr(CellColors, "_build", build)
        a, b = FIXTURES["torus_18"]()
        joint = distinguish(a, b, engine())
        assert distinguish(a, b, engine()) == joint  # the second call compares traces
        assert joint.distinguished == (engine is Engine.smcn)


class TestPaddedGather:
    def test_joint_width_and_shift(self):
        csrs = [(np.array([0, 2, 2]), np.array([0, 2])), (np.array([0, 1]), np.array([1]))]
        a, b = padded_gather(csrs, [0, 10])
        assert a.tolist() == [[0, 2], [-1, -1]]
        assert b.tolist() == [[11, -1]]


def run_digest(cc, stages) -> str:
    """sha256 over a complex's run alone: every tick's table, then the ids it
    left (cell colors and live pair colors), as int64 bytes."""
    digest = hashlib.sha256()
    run = run_diagram([cc], stages)
    state = next(run)[2]
    state.tabulate = True
    for _, _, state in run:
        rows, counts = state.table
        digest.update(f"{len(rows)},{len(counts)};".encode())
        digest.update(rows + counts)
        for ids in [state.colors, *(ps.colors for ps in state.pair_states)]:
            digest.update(np.asarray(ids, dtype=np.int64).tobytes())
    return digest.hexdigest()


PINNED_COMPLEXES = {
    "torus_6_9": lambda: torus((6, 9)),
    **{f"lift_{i}": (lambda i=i: cyclic_lift(lifted_iso_graphs(3)[i], 18)) for i in range(3)},
}
PINNED_DIGESTS = {
    ("lift_0", "homp"): "980f3b036176144f414248ac718ab78cba87b125890596253aa58400aacd8754",
    ("lift_0", "smcn"): "c55dcd54f35e0b9d42b73e568fadc8126fd5579293505c95de37b21b6206e129",
    ("lift_1", "homp"): "9b14d4583c2f7c0cd385d78363dba14cdf4fbc6b460ca1427cab2415d38a8de6",
    ("lift_1", "smcn"): "55b1af192f9850c1c64202b3c0a810cae2486a296aaed24b55d6e9545c107f66",
    ("lift_2", "homp"): "b0618d3118d8df5467997f69d8999d8e1d08e2844f9ae3d94bb081091e852c21",
    ("lift_2", "smcn"): "0936b1031f7d776ea107a46fc776452f72e92e146feef04168f6aea9d5ee000d",
    ("torus_6_9", "homp"): "c8aca74801ced7b0ff3f71db36f39dd4c324f3485b1c93134ff123da965651f3",
    ("torus_6_9", "smcn"): "0968300311cf597eb42ad83f10e85aafaad477cd8f00fa40b2459c4ad6213c73",
}


@pytest.mark.parametrize("engine", ["homp", "smcn"])
@pytest.mark.parametrize("name", sorted(PINNED_COMPLEXES))
def test_pinned_tables_and_ids(name, engine):
    # canonical ids and trace tables are outputs: a change to how rows are
    # built or keyed must leave every byte of them as it is
    stages = ENGINES[engine]().stages
    assert run_digest(PINNED_COMPLEXES[name](), stages) == PINNED_DIGESTS[name, engine]
