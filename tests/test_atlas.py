"""Pattern exploration, expansions, restricted walks, exchange graphs."""

from __future__ import annotations

import json
from itertools import combinations

import pytest

import clusteralg.atlas
import clusteralg.seed
from clusteralg import (
    ExchangeGraph,
    ExchangeMatrix,
    ExploreCaps,
    LaurentPoly,
    PositivityError,
    Seed,
    explore,
    graphs_equal,
    mutate_path,
    root_seed,
)
from clusteralg.atlas import PatternAtlas, _canonical_seed_key, _json_text
from clusteralg.seed import mutate
from conftest import (
    A2_ROWS,
    A3_ROWS,
    A4_ROWS,
    B2_ROWS,
    B3_ROWS,
    D4_ROWS,
    G2_ROWS,
    count_mutations,
)

A2_VARIABLES = [
    "x1",
    "x2",
    "x1^-1*x2 + x1^-1",
    "x1*x2^-1 + x2^-1",
    "x2^-1 + x1^-1 + x1^-1*x2^-1",
]

A2_PENTAGON_DOT = """graph exchange {
  c0 [label="{0,1}"];
  c1 [label="{0,3}"];
  c2 [label="{1,2}"];
  c3 [label="{2,4}"];
  c4 [label="{3,4}"];
  c0 -- c1;
  c0 -- c2;
  c1 -- c4;
  c2 -- c3;
  c3 -- c4;
}
"""


C3_ROWS = [[0, 1, 0], [-1, 0, 2], [0, -1, 0]]
MARKOV_ROWS = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def infinite_rank2(max_seeds=12):
    root = root_seed(ExchangeMatrix([[0, 2], [-2, 0]]), "trivial")
    return explore(root, ExploreCaps(max_seeds=max_seeds))


class EveryDirectionAtlas(PatternAtlas):
    """Reference exploration: mutate every stored seed in every direction,
    computing each exchange edge from both of its ends."""

    def _explore(self) -> bool:
        n = self.n
        truncated = False
        level = [0]
        while level:
            candidates = []
            for sid in level:
                seed = self.seeds[sid]
                for k in range(1, n + 1):
                    child = mutate(seed, k)
                    key = _canonical_seed_key(child)
                    target = self._seed_keys.get(key)
                    if target is not None:
                        self.edges[(sid, k)] = target
                    else:
                        candidates.append((key, child, sid, k))
            if not candidates:
                break
            depth = len(self.seeds[level[0]].path) + 1
            next_level = []
            if depth <= self.caps.max_depth:
                for key, child, sid, k in sorted(candidates, key=lambda c: c[0]):
                    if key in self._seed_keys:
                        continue
                    if len(self.seeds) >= self.caps.max_seeds:
                        truncated = True
                        break
                    next_level.append(self._store_seed(child, key))
            else:
                truncated = True
            for key, child, sid, k in candidates:
                target = self._seed_keys.get(key)
                if target is not None:
                    self.edges[(sid, k)] = target
                else:
                    truncated = True
            if truncated and len(self.seeds) >= self.caps.max_seeds:
                break
            level = next_level
        return not truncated


def entrywise_canonical_seed_key(seed):
    """Reference for ``_canonical_seed_key``: the entrywise permutation."""
    n = seed.n
    order = sorted(range(n), key=lambda i: seed.x[i].sort_key())
    xs = tuple(seed.x[i].sort_key() for i in order)
    ys = tuple(seed.y[i] for i in order)
    bb = tuple(tuple(seed.b.rows[oi][oj] for oj in order) for oi in order)
    return (xs, ys, bb)


def all_subsets(n):
    return [I for size in range(n + 1) for I in combinations(range(1, n + 1), size)]


def laurent_i_reachable(atlas, subset):
    """Reference for ``i_reachable`` on a complete atlas: the same
    breadth-first walk, mutating full Laurent seeds and interning each
    one's variables."""
    root = atlas.seeds[0]
    seen = {root.sort_key()}
    out = {tuple(sorted(atlas.seed_variable_ids[0])): atlas.seed_variable_ids[0]}
    frontier = [root]
    while frontier:
        nxt = []
        for seed in frontier:
            for k in sorted(set(subset)):
                child = mutate(seed, k)
                if child.sort_key() in seen:
                    continue
                seen.add(child.sort_key())
                ids = tuple(atlas.variable_id(p) for p in child.x)
                out.setdefault(tuple(sorted(ids)), ids)
                nxt.append(child)
        frontier = nxt
    return out


# ----------------------------------------------------------------------
# closures


class TestClosures:
    def test_rank_two_pentagon(self, a2_trivial):
        a = a2_trivial
        assert a.complete
        assert (a.n, a.m, a.coefficients) == (2, 0, "trivial")
        assert [str(p) for p in a.variables] == A2_VARIABLES
        assert a.clusters == [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)]
        assert a.seed_variable_ids == [(0, 1), (2, 1), (0, 3), (2, 4), (4, 3)]
        assert [s.path for s in a.seeds] == [(), (1,), (2,), (1, 2), (2, 1)]

    def test_closure_sizes(self, b2_trivial, g2_trivial, a3_trivial):
        for atlas, seeds, variables, clusters in [
            (b2_trivial, 6, 6, 6),
            (g2_trivial, 8, 8, 8),
            (a3_trivial, 14, 9, 14),
        ]:
            assert atlas.complete
            assert len(atlas.seeds) == seeds
            assert len(atlas.variables) == variables
            assert len(atlas.clusters) == clusters

    def test_rank_one(self):
        a = explore(root_seed(ExchangeMatrix([[0]]), "trivial"))
        assert a.complete
        assert [str(p) for p in a.variables] == ["x1", "2*x1^-1"]
        assert a.clusters == [(0,), (1,)]
        assert a.exchange_graph().edges == (((0,), (1,)),)

    def test_principal_variables_carry_coefficients(self, a2_principal):
        a = a2_principal
        assert a.coefficients == "principal"
        assert [str(p) for p in a.variables] == [
            "x1",
            "x2",
            "x1^-1*x2 + y1*x1^-1",
            "y2*x1*x2^-1 + x2^-1",
            "y1*y2*x2^-1 + x1^-1 + y1*x1^-1*x2^-1",
        ]

    def test_stored_seeds_replay_from_root(self, a2_trivial, a3_trivial):
        for atlas in (a2_trivial, a3_trivial):
            for seed in atlas.seeds:
                assert mutate_path(atlas.root, seed.path) == seed

    def test_edges_are_total_and_consistent(self, a2_trivial, a3_trivial):
        for atlas in (a2_trivial, a3_trivial):
            n = atlas.n
            assert set(atlas.edges) == {
                (sid, k)
                for sid in range(len(atlas.seeds))
                for k in range(1, n + 1)
            }
            for (sid, k), tid in atlas.edges.items():
                child = mutate_path(atlas.seeds[sid], [k])
                assert _canonical_seed_key(child) == _canonical_seed_key(
                    atlas.seeds[tid]
                )

    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            (A2_ROWS, "trivial", ExploreCaps()),
            (B2_ROWS, "trivial", ExploreCaps()),
            (G2_ROWS, "trivial", ExploreCaps()),
            (A3_ROWS, "trivial", ExploreCaps()),
            (A3_ROWS, "principal", ExploreCaps()),
            (B3_ROWS, "principal", ExploreCaps()),
            (A4_ROWS, "principal", ExploreCaps(max_seeds=7)),
            (A4_ROWS, "principal", ExploreCaps(max_seeds=20)),
            ([[0, 2], [-2, 0]], "trivial", ExploreCaps(max_depth=6)),
            (MARKOV_ROWS, "trivial", ExploreCaps(max_depth=3)),
        ],
    )
    def test_one_sided_exploration_matches_every_direction(
        self, rows, coefficients, caps
    ):
        root = root_seed(ExchangeMatrix(rows), coefficients)
        atlas = explore(root, caps)
        reference = EveryDirectionAtlas(root, caps)
        assert atlas.to_json() == reference.to_json()
        assert list(atlas.edges.items()) == list(reference.edges.items())

    @pytest.mark.parametrize("rows", [A3_ROWS, B3_ROWS, C3_ROWS, D4_ROWS])
    def test_exploration_mutates_each_exchange_edge_once(self, rows, monkeypatch):
        root = root_seed(ExchangeMatrix(rows), "principal")
        calls = count_mutations(monkeypatch)
        atlas = explore(root)
        assert atlas.complete
        assert len(atlas.edges) == atlas.n * len(atlas.seeds)
        assert len(calls) == len(atlas.edges) // 2

    def test_a_broken_involution_is_an_engine_fault(self, monkeypatch):
        # Seed (2,) mutated in direction 1 lands one step too far, so an edge
        # computed from one end disagrees with the reverse derived from the
        # other.
        original = clusteralg.atlas.mutate

        def broken(seed, k):
            child = original(seed, k)
            return original(child, 3 - k) if seed.path == (2,) and k == 1 else child

        monkeypatch.setattr(clusteralg.atlas, "mutate", broken)
        with pytest.raises(RuntimeError, match="involution"):
            explore(root_seed(ExchangeMatrix(A2_ROWS), "trivial"))

    @pytest.mark.parametrize(
        "rows, caps",
        [
            ([[0]], ExploreCaps()),
            (A3_ROWS, ExploreCaps()),
            (B3_ROWS, ExploreCaps()),
            (D4_ROWS, ExploreCaps()),
            ([[0, 2], [-2, 0]], ExploreCaps(max_depth=6)),
        ],
    )
    def test_canonical_key_matches_entrywise_permutation(self, rows, caps):
        atlas = explore(root_seed(ExchangeMatrix(rows), "principal"), caps)
        for seed in atlas.seeds:
            key = _canonical_seed_key(seed)
            assert key == entrywise_canonical_seed_key(seed)
            assert atlas._seed_keys[key] == atlas.seeds.index(seed)

    def test_exploring_a_mutated_root_gives_the_same_pattern(self, a2_trivial):
        moved = mutate_path(a2_trivial.root, [1])
        a = explore(moved)
        assert a.complete
        assert {str(p) for p in a.variables} == set(A2_VARIABLES)
        assert len(a.clusters) == 5


# ----------------------------------------------------------------------
# caps


class TestCaps:
    def test_caps_validation(self):
        with pytest.raises(ValueError):
            ExploreCaps(max_seeds=0)
        with pytest.raises(ValueError):
            ExploreCaps(max_depth=-1)

    def test_seed_cap_truncates(self):
        a = infinite_rank2(max_seeds=12)
        assert not a.complete
        assert len(a.seeds) == 12

    def test_depth_cap_truncates(self):
        root = root_seed(ExchangeMatrix(A2_ROWS), "trivial")
        a = explore(root, ExploreCaps(max_depth=1))
        assert not a.complete
        assert len(a.seeds) == 3  # root plus its two neighbors

    def test_finite_pattern_is_complete_under_loose_caps(self):
        root = root_seed(ExchangeMatrix(A2_ROWS), "trivial")
        a = explore(root, ExploreCaps(max_seeds=6, max_depth=3))
        assert a.complete
        assert len(a.seeds) == 5

    def test_incomplete_exchange_graph_warns(self):
        a = infinite_rank2()
        with pytest.warns(UserWarning, match="incomplete"):
            a.exchange_graph()


# ----------------------------------------------------------------------
# expansions


class TestExpand:
    def test_member_variables_expand_to_unit_monomials(self, a2_trivial):
        a = a2_trivial
        assert str(a.expand(0, (0, 1))) == "x1"
        assert str(a.expand(3, (0, 3))) == "x2"
        assert str(a.expand(4, (3, 4))) == "x2"

    def test_expansion_coordinates_follow_ascending_ids(self, a2_trivial):
        # Cluster {0, 3}: coordinate x1 is variable 0, coordinate x2 is
        # variable 3, regardless of seed positions.
        a = a2_trivial
        assert str(a.expand(4, (0, 3))) == "x1^-1*x2 + x1^-1"
        assert str(a.expand(2, (0, 1))) == "x1^-1*x2 + x1^-1"
        assert str(a.expand(4, (0, 1))) == "x2^-1 + x1^-1 + x1^-1*x2^-1"

    def test_cluster_argument_order_is_irrelevant(self, a2_trivial):
        a = a2_trivial
        assert a.expand(4, (3, 0)) == a.expand(4, (0, 3))

    def test_root_cluster_expansion_is_the_interned_polynomial(self, a2_trivial):
        a = a2_trivial
        root_cluster = a.clusters[0]
        for v in range(len(a.variables)):
            assert a.expand(v, root_cluster) == a.variables[v]

    def test_every_expansion_is_a_positive_laurent_polynomial(
        self, a2_trivial, a3_trivial
    ):
        for atlas in (a2_trivial, a3_trivial):
            for v in range(len(atlas.variables)):
                for cluster in atlas.clusters:
                    p = atlas.expand(v, cluster)
                    assert p.has_positive_coefficients()
                    assert (len(p.terms) == 1) == (v in cluster)

    def test_bad_lookups_raise(self, a2_trivial):
        a = a2_trivial
        with pytest.raises(KeyError):
            a.expand(99, (0, 1))
        with pytest.raises(KeyError):
            a.expand(0, (0, 2))  # not a cluster of this pattern
        with pytest.raises(KeyError):
            a.normalize_cluster((1, 3))
        assert a.normalize_cluster((1, 0)) == (0, 1)

    def test_tree_replay_matches_per_pair_replay(
        self, a2_trivial, b2_trivial, g2_trivial, a3_trivial, a3_principal
    ):
        # Reference: one full replay per (host seed, variable), host to
        # root and on to the variable's first seed, in the host's position
        # coordinates, then permuted to ascending variable id.
        atlases = (a2_trivial, b2_trivial, g2_trivial, a3_trivial, a3_principal)
        capped = explore(
            root_seed(ExchangeMatrix(A4_ROWS), "principal"), ExploreCaps(20)
        )
        # Seeds whose level never ran store no edges; the walk must not need them.
        assert any(
            all((sid, k) not in capped.edges for k in range(1, capped.n + 1))
            for sid in range(len(capped.seeds))
        )
        for atlas in atlases + (infinite_rank2(), capped):
            n, m = atlas.n, atlas.m
            first_seed = {}
            for tid, ids in enumerate(atlas.seed_variable_ids):
                for v in ids:
                    first_seed.setdefault(v, tid)
            assert len(atlas.cluster_to_seed) == len(atlas.seeds)
            for cluster, sid in atlas.cluster_to_seed.items():
                host = atlas.seeds[sid]
                fresh = Seed(
                    host.b,
                    host.y,
                    [LaurentPoly.variable(n, m, i) for i in range(1, n + 1)],
                )
                ids = atlas.seed_variable_ids[sid]
                order = sorted(range(n), key=ids.__getitem__)
                for v in range(len(atlas.variables)):
                    tid = first_seed[v]
                    path = tuple(reversed(host.path)) + atlas.seeds[tid].path
                    landed = mutate_path(fresh, path)
                    positional = landed.x[atlas.seed_variable_ids[tid].index(v)]
                    want = LaurentPoly(
                        n,
                        m,
                        {
                            tuple(key[p] for p in order) + key[n:]: c
                            for key, c in positional.terms.items()
                        },
                    )
                    assert atlas.expand(v, cluster) == want

    def test_rerooting_exchanges_once_per_variable_not_held(self, monkeypatch):
        # A host reaches each variable it does not hold by one exchange at a
        # stored seed's B and y, mutating no seed; a second round reads the
        # cache.
        atlases = [
            explore(root_seed(ExchangeMatrix(rows), coefficients))
            for rows, coefficients in [
                (A3_ROWS, "trivial"),
                (B3_ROWS, "trivial"),
                (A3_ROWS, "principal"),
            ]
        ]
        mutations = count_mutations(monkeypatch)
        binomials = []
        original = clusteralg.seed.exchange_binomial

        def counted(seed, k):
            binomials.append(k)
            return original(seed, k)

        monkeypatch.setattr(clusteralg.seed, "exchange_binomial", counted)
        for atlas in atlases:
            count = len(atlas.variables)
            for cluster in atlas.clusters:
                for v in range(count):
                    atlas.expand(v, cluster)
                assert len(binomials) == count - atlas.n
                assert mutations == []
                del binomials[:]
            for cluster in atlas.clusters:
                for v in range(count):
                    atlas.expand(v, cluster)
            assert binomials == mutations == []

    def test_expansion_walk_keeps_the_positivity_check(self, monkeypatch):
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        original = clusteralg.seed.exchange_binomial
        monkeypatch.setattr(
            clusteralg.seed, "exchange_binomial", lambda seed, k: -original(seed, k)
        )
        root_cluster = atlas.clusters[0]
        outside = next(v for v in range(len(atlas.variables)) if v not in root_cluster)
        with pytest.raises(PositivityError):
            atlas.expand(outside, root_cluster)

    def test_variable_id_round_trip(self, a2_trivial):
        a = a2_trivial
        z = LaurentPoly.parse("x1^-1*x2 + x1^-1", 2, 0)
        assert a.variable_id(z) == 2
        assert a.variable_id(LaurentPoly.parse("x1 + x2", 2, 0)) is None
        for v, p in enumerate(a.variables):
            assert a.variable_id(p) == v


# ----------------------------------------------------------------------
# restricted-direction reachability


class TestRestrictedReachability:
    def test_single_direction_walks(self, a2_trivial):
        a = a2_trivial
        assert list(a.i_reachable((1,))) == [(0, 1), (1, 2)]
        assert list(a.i_reachable((2,))) == [(0, 1), (0, 3)]
        assert list(a.i_reachable(())) == [(0, 1)]

    def test_full_direction_set_reaches_everything(self, a2_trivial, a3_trivial):
        capped = [
            explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"), ExploreCaps(5)),
            explore(root_seed(ExchangeMatrix(A4_ROWS), "trivial"), ExploreCaps(20)),
            infinite_rank2(max_seeds=12),
        ]
        for atlas in [a2_trivial, a3_trivial] + capped:
            reach = atlas.i_reachable(tuple(range(1, atlas.n + 1)))
            assert sorted(reach) == sorted(atlas.clusters)
        for atlas in capped:
            # A walk over stored edges only returns stored clusters.
            for I in all_subsets(atlas.n):
                assert all(c in atlas.cluster_to_seed for c in atlas.i_reachable(I))

    def test_walk_starts_at_the_root_seed(self, a2_trivial):
        # Reachability is from the root seed specifically: cluster {3, 4}
        # contains neither root variable, so it needs both directions.
        a = a2_trivial
        assert (3, 4) not in a.i_reachable((1,))
        assert (3, 4) in a.i_reachable((1, 2))

    def test_exact_seeds_are_returned(self, a2_trivial):
        a = a2_trivial
        ids = a.i_reachable((1,))[(1, 2)]
        assert ids == tuple(a.variable_id(p) for p in mutate(a.root, 1).x)
        assert str(a.expansion(ids[0])) == "x1^-1*x2 + x1^-1"

    def test_table_walk_matches_laurent_walk(
        self, a2_trivial, b2_trivial, g2_trivial, a3_trivial, a3_principal
    ):
        for atlas in (a2_trivial, b2_trivial, g2_trivial, a3_trivial, a3_principal):
            for I in all_subsets(atlas.n):
                want = laurent_i_reachable(atlas, I)
                assert list(atlas.i_reachable(I).items()) == list(want.items())

    def test_table_walk_does_no_mutations(self, monkeypatch):
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "principal"))
        calls = count_mutations(monkeypatch)
        for I in all_subsets(atlas.n):
            atlas.i_reachable(I)
        assert calls == []

    def test_direction_bounds_checked(self, a2_trivial):
        with pytest.raises(ValueError):
            a2_trivial.i_reachable((0,))
        with pytest.raises(ValueError):
            a2_trivial.i_reachable((3,))

    def test_capped_atlas_gives_partial_answers(self):
        a = infinite_rank2()
        reach = a.i_reachable((1,))
        assert a.clusters[0] in reach
        assert len(reach) == 2  # direction 1 alone only flips one variable


# ----------------------------------------------------------------------
# exchange graphs


class TestExchangeGraph:
    def test_pentagon(self, a2_trivial):
        g = a2_trivial.exchange_graph()
        assert g.vertices == ((0, 1), (0, 3), (1, 2), (2, 4), (3, 4))
        assert g.edges == (
            ((0, 1), (0, 3)),
            ((0, 1), (1, 2)),
            ((0, 3), (3, 4)),
            ((1, 2), (2, 4)),
            ((2, 4), (3, 4)),
        )
        assert all(d == 2 for d in g.degrees().values())
        assert g.to_dot() == A2_PENTAGON_DOT

    def test_regularity(self, b2_trivial, g2_trivial, a3_trivial):
        for atlas, degree in [(b2_trivial, 2), (g2_trivial, 2), (a3_trivial, 3)]:
            g = atlas.exchange_graph()
            assert all(d == degree for d in g.degrees().values())
        assert len(a3_trivial.exchange_graph().edges) == 21

    def test_to_text(self, a2_trivial):
        text = a2_trivial.exchange_graph().to_text()
        lines = text.splitlines()
        assert lines[0] == "vertices: 5"
        assert lines[1] == "edges: 5"
        assert "{0,1} -- {1,2}" in lines

    def test_graphs_equal_on_same_table(self, a2_trivial):
        g = a2_trivial.exchange_graph()
        assert graphs_equal(g, a2_trivial.exchange_graph())

    def test_graphs_from_different_tables_need_relabeling(self, a2_trivial):
        other = explore(root_seed(ExchangeMatrix(A2_ROWS), "trivial"))
        g1 = a2_trivial.exchange_graph()
        g2 = other.exchange_graph()
        with pytest.raises(ValueError, match="relabel"):
            graphs_equal(g1, g2)
        mapped = g2.relabeled({v: v for v in range(5)}, table=g1.table)
        assert graphs_equal(g1, mapped)

    def test_vertex_difference_is_reported(self, a2_trivial, b2_trivial):
        g1 = a2_trivial.exchange_graph()
        g2 = b2_trivial.exchange_graph().relabeled(
            {v: v for v in range(6)}, table=g1.table
        )
        cmp = graphs_equal(g1, g2)
        assert not cmp
        assert cmp.detail == "vertex {3,4} only in first graph"

    def test_edge_difference_is_reported(self, a2_trivial):
        g1 = a2_trivial.exchange_graph()
        g2 = ExchangeGraph(g1.table, g1.vertices, g1.edges[1:])
        cmp = graphs_equal(g1, g2)
        assert not cmp
        assert cmp.detail == "edge {0,1} -- {0,3} only in first graph"

    def test_relabeling_sorts_clusters(self, a2_trivial):
        g = a2_trivial.exchange_graph()
        swap = {0: 4, 1: 3, 2: 2, 3: 1, 4: 0}
        h = g.relabeled(swap, table="scratch")
        assert h.vertices == ((0, 1), (0, 2), (1, 4), (2, 3), (3, 4))
        back = h.relabeled(swap, table=g.table)
        assert graphs_equal(g, back)


# ----------------------------------------------------------------------
# serialization and determinism


class TestSerialization:
    def test_json_shape(self, a2_trivial):
        d = a2_trivial.to_json_dict()
        assert d["n"] == 2
        assert d["m"] == 0
        assert d["coefficients"] == "trivial"
        assert d["complete"] is True
        assert d["root_b"] == [[0, 1], [-1, 0]]
        assert d["variables"] == A2_VARIABLES
        assert d["clusters"] == [[0, 1], [1, 2], [0, 3], [2, 4], [3, 4]]
        assert len(d["seeds"]) == 5
        assert d["seeds"][0] == {
            "path": [],
            "b": [[0, 1], [-1, 0]],
            "y": [[], []],
            "variables": [0, 1],
        }
        assert len(d["edges"]) == 10

    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            ([[0]], "principal", ExploreCaps()),
            *[
                (rows, coefficients, ExploreCaps())
                for rows in (A2_ROWS, B2_ROWS, G2_ROWS, A3_ROWS)
                for coefficients in ("trivial", "principal")
            ],
            (A4_ROWS, "principal", ExploreCaps(max_seeds=1)),
            (A2_ROWS, "trivial", ExploreCaps(max_depth=0)),
            ([[0, 2], [-2, 0]], "principal", ExploreCaps(max_depth=6)),
            (MARKOV_ROWS, "trivial", ExploreCaps(max_depth=3)),
        ],
    )
    def test_writer_matches_json_dumps(self, rows, coefficients, caps):
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients), caps)
        d = atlas.to_json_dict()
        text = atlas.to_json()
        assert text == json.dumps(d, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == d
        if caps.max_depth == 0:
            assert d["edges"] == []

    @pytest.mark.parametrize("value", [1.5, None, (1, 2), [0, 1.0], {"a": [None]}])
    def test_writer_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            _json_text(value, "\n", str)

    def test_exploration_is_deterministic(self):
        runs = [
            explore(root_seed(ExchangeMatrix(B2_ROWS), "trivial")).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].endswith("\n")

    def test_incomplete_atlas_is_marked(self):
        d = infinite_rank2().to_json_dict()
        assert d["complete"] is False
        assert d["caps"]["max_seeds"] == 12
