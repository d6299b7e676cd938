import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cckit.complex import graph_as_cc
from cckit.covering import (
    CellMap,
    CoverCertificate,
    cell_map_from_node_map,
    check_isomorphism,
    fiber_sizes,
    strip_covers,
    torus_mod_cover,
    torus_union_certificate,
    verify_covering,
)
from cckit.errors import (
    DimensionMismatch,
    MapNotWellDefined,
    NotDivisible,
    PeriodTooSmall,
)
from cckit.generators import cycle_graph, cylinder, torus
from cckit.refinement import Engine, distinguish

from helpers import (
    arbitrary_complexes,
    brute_is_covering,
    reference_strip,
    reference_strip_cover_nodes,
    relabel_complex,
)


def identity_map(cc) -> CellMap:
    return CellMap(
        cc, cc, tuple(tuple(range(len(cc.skeletons[r]))) for r in range(cc.dimension + 1))
    )


class TestVerify:
    def test_identity_ok(self):
        for cc in [torus((3, 3)), cylinder((3, 4))]:
            assert verify_covering(identity_map(cc)) is None

    def test_torus_mod_ok(self):
        m = torus_mod_cover((9, 12), (3, 4))
        assert verify_covering(m) is None

    def test_collapse_everything_is_not_a_cell_map(self):
        c6 = graph_as_cc(cycle_graph(6))
        c3 = graph_as_cc(cycle_graph(3))
        with pytest.raises(MapNotWellDefined):
            cell_map_from_node_map(c6, c3, [0] * 6)

    def test_bad_fold_reports_violation(self):
        # valid cell map that is not a local bijection
        c6 = graph_as_cc(cycle_graph(6))
        c3 = graph_as_cc(cycle_graph(3))
        m = cell_map_from_node_map(c6, c3, [0, 1, 2, 0, 2, 1])
        violation = verify_covering(m)
        assert violation is not None
        assert violation.spec is not None
        assert violation.cell is not None
        # both neighbor sets are part of the report
        assert violation.source_neighbors and violation.target_neighbors

    def test_not_surjective_reported(self):
        c6 = graph_as_cc(cycle_graph(6))
        m = cell_map_from_node_map(c6, c6, [0, 1, 0, 1, 0, 1])
        violation = verify_covering(m)
        assert violation is not None
        assert "not surjective" in violation.reason

    def test_dimension_mismatch(self):
        c6 = graph_as_cc(cycle_graph(6))
        t = torus((3, 3))
        with pytest.raises(DimensionMismatch):
            verify_covering(CellMap(c6, t, ((0,) * 6, (0,) * 6)))

    def test_empty_intermediate_skeleton(self):
        from cckit.complex import build_cc

        cc = build_cc([((0, 1, 2), 2)], 3)  # no rank-1 cells
        assert verify_covering(identity_map(cc)) is None
        m = cell_map_from_node_map(cc, cc, [1, 2, 0])
        assert m.assignment == ((1, 2, 0), (), (0,))
        assert verify_covering(m) is None


class TestTorusModCover:
    def test_fibers_uniform(self):
        m = torus_mod_cover((9, 12), (3, 4))
        expected = (9 * 12) // (3 * 4)
        for rank in range(3):
            assert set(fiber_sizes(m, rank)) == {expected}

    def test_trivial_divisibility_identity(self):
        m = torus_mod_cover((3, 3), (3, 3))
        assert verify_covering(m) is None
        for rank in range(3):
            assert set(fiber_sizes(m, rank)) == {1}

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            torus_mod_cover((6, 6), (3, 4))

    def test_composition_of_covers(self):
        big_mid = torus_mod_cover((12, 12), (6, 6))
        mid_small = torus_mod_cover((6, 6), (3, 3))
        composed = CellMap(
            big_mid.source,
            mid_small.target,
            tuple(
                tuple(mid_small.assignment[r][j] for j in big_mid.assignment[r])
                for r in range(3)
            ),
        )
        assert verify_covering(composed) is None


class TestStripCovers:
    def test_both_maps_verify(self):
        cover, to_cyl, to_moeb = strip_covers(3, 4)
        assert verify_covering(to_cyl) is None
        assert verify_covering(to_moeb) is None

    def test_fiber_sizes_two(self):
        _, to_cyl, to_moeb = strip_covers(3, 4)
        for rank in range(3):
            assert set(fiber_sizes(to_cyl, rank)) == {2}
            assert set(fiber_sizes(to_moeb, rank)) == {2}

    def test_period_too_small(self):
        with pytest.raises(PeriodTooSmall):
            strip_covers(2, 4)

    def test_node_maps_match_reference(self):
        for h in range(3, 7):
            for p in range(3, 8):
                cover, to_cyl, to_moeb = strip_covers(h, p)
                assert cover == reference_strip(h, 2 * p, False)
                ref_cyl, ref_moeb = reference_strip_cover_nodes(h, p)
                assert to_cyl.images[0].tolist() == ref_cyl, (h, p)
                assert to_moeb.images[0].tolist() == ref_moeb, (h, p)


class TestTorusCovers:
    def test_grid_nodes_is_the_mod_map(self):
        from cckit.generators import grid_nodes

        coords = np.unravel_index(np.arange(torus((9, 12)).num_nodes), (9, 12))
        m = torus_mod_cover((9, 12), (3, 4))
        assert grid_nodes(coords, (3, 4)).tolist() == m.images[0].tolist()

    def test_cover_periods(self):
        from cckit.covering import cover_periods

        assert cover_periods([(3, 12), (6, 6)]) == (6, 12)
        assert cover_periods([(4, 6), (3, 4), (3, 12)]) == (12, 12)
        cert = torus_union_certificate([(4, 6), (3, 4)], [(3, 12)])
        assert cert.cover.num_nodes == 12 * 12


class TestCertificates:
    def test_lcm_cover(self):
        cert = torus_union_certificate([(3, 12)], [(6, 6)])
        assert cert is not None
        # coordinatewise lcm: (lcm(3,6), lcm(12,6))
        assert cert.cover.num_nodes == 6 * 12
        assert cert.verify() is None

    def test_smallest_indistinguishable_size(self):
        cert = torus_union_certificate([(3, 6)], [(3, 3), (3, 3)])
        assert cert is not None
        assert cert.node_counts == (18, 18)
        assert cert.verify() is None

    def test_not_applicable(self):
        assert torus_union_certificate([(3, 3)], [(3, 4)]) is None

    def test_certificate_implies_homp_equal(self):
        from cckit.complex import disjoint_union_all

        for a, b in [([(3, 12)], [(6, 6)]), ([(3, 6)], [(3, 3), (3, 3)])]:
            cert = torus_union_certificate(a, b)
            assert cert is not None and cert.verify() is None
            left = disjoint_union_all([torus(p) for p in a])
            right = disjoint_union_all([torus(p) for p in b])
            assert not distinguish(left, right, Engine.homp_full()).distinguished

    def test_verify_reports_a_bad_map(self):
        cert = torus_union_certificate([(3, 6)], [(3, 3), (3, 3)])
        fold = cell_map_from_node_map(
            graph_as_cc(cycle_graph(6)), graph_as_cc(cycle_graph(3)), [0, 1, 2, 0, 2, 1]
        )
        bad = CoverCertificate(cert.cover, cert.left_maps, (*cert.right_maps, fold), (18, 18))
        violation = bad.verify()
        assert violation is not None and violation == verify_covering(fold)

    def test_fiber_lemma_on_certificates(self):
        cert = torus_union_certificate([(3, 6)], [(3, 3), (3, 3)])
        for m in cert.left_maps + cert.right_maps:
            ratio = m.source.num_nodes // m.target.num_nodes
            for rank in range(3):
                assert set(fiber_sizes(m, rank)) == {ratio}


class TestAgainstBruteForce:
    """verify_covering vs an independent from-the-definition checker."""

    def cases(self):
        import random

        from cckit.generators import cycle_graph
        from helpers import brute_is_covering

        yield identity_map(torus((3, 3))), True
        yield torus_mod_cover((6, 9), (3, 3)), True
        yield torus_mod_cover((3,), (3,)), True
        c6 = graph_as_cc(cycle_graph(6))
        c3 = graph_as_cc(cycle_graph(3))
        yield cell_map_from_node_map(c6, c3, [0, 1, 2, 0, 1, 2]), True
        yield cell_map_from_node_map(c6, c3, [0, 1, 2, 0, 2, 1]), False
        yield cell_map_from_node_map(c6, c6, [0, 1, 0, 1, 0, 1]), False
        _, to_cyl, to_moeb = strip_covers(3, 3)
        yield to_cyl, True
        yield to_moeb, True
        # mutations of a valid cover must agree across both checkers
        rng = random.Random(9)
        base = torus_mod_cover((6, 6), (3, 3))
        for _ in range(6):
            rank = rng.randrange(3)
            row = list(base.assignment[rank])
            i = rng.randrange(len(row))
            row[i] = (row[i] + 1 + rng.randrange(len(base.target.cells(rank)) - 1)) % len(
                base.target.cells(rank)
            )
            mutated = CellMap(
                base.source,
                base.target,
                tuple(tuple(row) if r == rank else base.assignment[r] for r in range(3)),
            )
            yield mutated, None  # expectation unknown; both checkers must agree

    def test_agreement(self):
        from helpers import brute_is_covering

        for m, expected in self.cases():
            fast = verify_covering(m) is None
            brute = brute_is_covering(m)
            assert fast == brute
            if expected is not None:
                assert fast == expected

    def test_first_violation_matches_definition(self):
        """The reported cell and spec are the first failing ones in
        skeleton-then-spec order, also when a later cell fails on degree."""
        import random

        from cckit.lifting import triangular_lift
        from helpers import brute_first_failure, random_graph

        rng = random.Random(11)
        failing = 0
        for _ in range(60):
            cc = triangular_lift(random_graph(rng, rng.randint(3, 6), 0.6))
            rows = []
            for r in range(cc.dimension + 1):
                row = list(range(len(cc.cells(r))))
                rng.shuffle(row)
                rows.append(tuple(row))
            m = CellMap(cc, cc, tuple(rows))
            violation = verify_covering(m)
            first = brute_first_failure(m)
            assert (violation is None) == (first is None)
            if first is not None:
                rank, i, spec = first
                reported = (violation.cell_rank, violation.cell, violation.spec)
                assert reported == (rank, cc.skeletons[rank][i], spec)
                failing += 1
        assert failing >= 30

    @settings(max_examples=150, deadline=None)
    @given(arbitrary_complexes(), st.integers(0, 2**32 - 1))
    def test_isomorphism_is_bijective_covering(self, cc, seed):
        """check_isomorphism accepts a bijection exactly when it is a covering,
        on cell shuffles (mostly not isomorphisms) and node relabelings (always)."""
        rng = random.Random(seed)
        rows = []
        for r in range(cc.dimension + 1):
            row = list(range(cc.skeleton_size(r)))
            rng.shuffle(row)
            rows.append(tuple(row))
        perm = list(range(cc.num_nodes))
        rng.shuffle(perm)
        relabeling = cell_map_from_node_map(cc, relabel_complex(cc, perm), perm)
        assert check_isomorphism(relabeling) is None
        for m in (CellMap(cc, cc, tuple(rows)), relabeling):
            assert (check_isomorphism(m) is None) == brute_is_covering(m)
