"""Pattern exploration, expansions, restricted walks, exchange graphs."""

from __future__ import annotations

import json
import random
import warnings
from collections import Counter
from itertools import combinations, permutations, product

import pytest

import clusteralg.atlas
import clusteralg.laurent
import clusteralg.seed
from clusteralg import (
    ExchangeGraph,
    ExchangeMatrix,
    ExploreCaps,
    LaurentPoly,
    PositivityError,
    Seed,
    explore,
    mutate_path,
    root_seed,
    verify_degree_properties,
    witness_sweep,
)
from clusteralg.atlas import (
    _TOKEN,
    PatternAtlas,
    _exchange_input,
    _level_order,
    _same_seed,
    graph_difference,
)
from clusteralg.catalogue import finite_counts, finite_type, matrix
from clusteralg.seed import exchange, mutate
from conftest import (
    A1_ROWS,
    A2_ROWS,
    A3_ROWS,
    A4_ROWS,
    A5_ROWS,
    B2_ROWS,
    B3_ROWS,
    C2_ROWS,
    C3_ROWS,
    D4_ROWS,
    D5_ROWS,
    G2_ROWS,
    KRONECKER_2_ROWS,
    KRONECKER_3_ROWS,
    MARKOV_ROWS,
    corrupt_first_edge,
    count_mutations,
    misdirect_reverse_edges,
)


def climb_then_store_order(atlas, state, start):
    """Reference for ``PatternAtlas.carry``: up the discovery tree from
    start to the root, then every other stored seed in store order."""
    states = [None] * len(atlas.seeds)
    u = start
    while state is not None:
        states[u] = state
        yield u, state
        if atlas.tree[u] is None:
            break
        u, k = atlas.tree[u]
        state = atlas.mutate_state(state, k)
    for w, (u, k) in enumerate(atlas.tree[1:], 1):
        if states[w] is None and states[u] is not None:
            states[w] = atlas.mutate_state(states[u], k)
            if states[w] is not None:
                yield w, states[w]


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


# An affine type of rank 3: not of finite type, so only a depth cap ends it.
AFFINE_3_ROWS = [[0, 1, 0], [-2, 0, 2], [0, -1, 0]]


def infinite_rank2(max_seeds=12):
    root = root_seed(ExchangeMatrix(KRONECKER_2_ROWS), "trivial")
    return explore(root, ExploreCaps(max_seeds=max_seeds))


def json_document(atlas) -> dict:
    """Reference for ``to_json``: the document it writes, built from the
    atlas's public data, paths by ``path``."""
    return {
        "n": atlas.n,
        "m": atlas.m,
        "coefficients": atlas.coefficients,
        "complete": atlas.complete,
        "caps": {
            "max_seeds": atlas.caps.max_seeds,
            "max_depth": atlas.caps.max_depth,
        },
        "root_b": [list(row) for row in atlas.root.b.rows],
        "variables": [str(p) for p in atlas.variables],
        "clusters": [list(c) for c in atlas.clusters],
        "seeds": [
            {
                "path": list(atlas.path(i)),
                "b": [list(row) for row in s.b.rows],
                "y": [list(t) for t in s.y],
                "variables": list(atlas.seed_variable_ids[i]),
            }
            for i, s in enumerate(atlas.seeds)
        ],
        "edges": sorted([sid, k, tid] for (sid, k), tid in atlas.edges.items()),
    }


def count_binomials(monkeypatch) -> list[int]:
    """Record the direction of every exchange binomial from here on: one
    per exchange, whether a mutation or the expansion walk asked for it."""
    calls: list[int] = []
    original = clusteralg.seed.exchange_binomial

    def counted(seed, k):
        calls.append(k)
        return original(seed, k)

    monkeypatch.setattr(clusteralg.seed, "exchange_binomial", counted)
    return calls


def replayed_expansions(atlas, sid) -> list[LaurentPoly]:
    """Reference for ``expand`` at stored seed sid: per variable, one full
    replay from the host to the root and on to the variable's first seed,
    in the host's position coordinates, then permuted to ascending id."""
    n, m = atlas.n, atlas.m
    first_seed = {}
    for tid, ids in enumerate(atlas.seed_variable_ids):
        for v in ids:
            first_seed.setdefault(v, tid)
    host = atlas.seeds[sid]
    fresh = Seed(
        host.b, host.y, [LaurentPoly.variable(n, m, i) for i in range(1, n + 1)]
    )
    order = sorted(range(n), key=atlas.seed_variable_ids[sid].__getitem__)
    out = []
    for v in range(len(atlas.variables)):
        tid = first_seed[v]
        landed = mutate_path(fresh, tuple(reversed(atlas.path(sid))) + atlas.path(tid))
        positional = landed.x[atlas.seed_variable_ids[tid].index(v)]
        terms = positional.terms.items()
        out.append(
            LaurentPoly(
                n, m, {tuple(key[p] for p in order) + key[n:]: c for key, c in terms}
            )
        )
    return out


def twin_orders(atlas, sid, earlier, signs=None) -> set[tuple[int, ...]]:
    """Brute force over every host g in ``earlier`` and every position
    permutation carrying g's (B, y) onto stored seed sid's: the coordinate
    of g that each of sid's ascending-id coordinates relabels.  With trivial
    coefficients a permutation carrying g's B onto minus sid's counts too,
    as the exchange binomial is then symmetric in its two monomials, unless
    ``signs`` says otherwise.  Empty when no earlier host is a twin of sid."""
    n = atlas.n
    seed, ids = atlas.seeds[sid], atlas.seed_variable_ids[sid]
    signs = signs or ((1, -1) if atlas.m == 0 else (1,))
    orders = set()
    for g in earlier:
        twin, twin_ids = atlas.seeds[g], atlas.seed_variable_ids[g]
        for sign, perm in product(signs, permutations(range(n))):
            if all(
                twin.y[perm[i]] == seed.y[i]
                and all(
                    twin.b.rows[perm[i]][perm[j]] == sign * seed.b.rows[i][j]
                    for j in range(n)
                )
                for i in range(n)
            ):
                twin_cluster = sorted(twin_ids)
                orders.add(
                    tuple(
                        twin_cluster.index(twin_ids[perm[ids.index(u)]])
                        for u in sorted(ids)
                    )
                )
    return orders


def cap_stops_after_a_duplicated_class(atlas) -> bool:
    """The seed cap stopped a level right after storing a class that a later
    candidate of the same level reaches too: the last stored seed has an
    edge in besides its tree edge, and a seed of the level before it has a
    direction left unlinked by the cap."""
    last = len(atlas.seeds) - 1
    into = [edge for edge, t in atlas.edges.items() if t == last]
    duplicates = [edge for edge in into if edge != atlas.tree[last]]
    depth = len(atlas.path(last))
    cut = [
        (s, k)
        for s in range(last)
        if len(atlas.path(s)) == depth - 1
        for k in range(1, atlas.n + 1)
        if (s, k) not in atlas.edges
    ]
    return len(atlas.seeds) == atlas.caps.max_seeds and bool(duplicates and cut)


# (rows, coefficients, max_seeds) of the caps below that stop a level right
# after a class with a same-level duplicate candidate, which must still link.
STOPS_AFTER_DUPLICATE = [(A4_ROWS, "principal", 7), (B3_ROWS, "principal", 16)]


def cap_cuts_new_variables(atlas) -> bool:
    """The seed cap stopped a level whose unstored classes still hold new
    variables: one that a stored class of the level interned, and one that
    no stored class holds."""
    last = len(atlas.seeds) - 1
    depth = len(atlas.path(last))
    first = min(s for s in range(last + 1) if len(atlas.path(s)) == depth)
    before = 1 + max(max(atlas.seed_variable_ids[s]) for s in range(first))
    known = variable_index(atlas)
    cut = [
        known.get(mutate(atlas.seeds[s], k).x[k - 1], -1)
        for s in range(first)
        if len(atlas.path(s)) == depth - 1
        for k in range(1, atlas.n + 1)
        if (s, k) not in atlas.edges
    ]
    interned, unseen = max(cut) >= before, min(cut) == -1
    return len(atlas.seeds) == atlas.caps.max_seeds and interned and unseen


# (rows, coefficients, max_seeds) of the caps below that stop a level whose
# unstored classes hold new variables, interned by the level or not.
CUTS_NEW_VARIABLES = [(D4_ROWS, "trivial", 15), (A5_ROWS, "principal", 22)]


class EveryDirectionAtlas(PatternAtlas):
    """Reference exploration: mutate every stored seed in every direction,
    computing each exchange edge from both of its ends, and identify seed
    classes by their polynomial canonical keys, in a dict of its own."""

    def _explore(self) -> bool:
        n = self.n
        truncated = False
        stored = {entrywise_canonical_seed_key(self.root): 0}
        var_ids = {p: i for i, p in enumerate(self.variables)}
        level, depth = [0], 0
        while level:
            candidates = []
            for sid in level:
                seed = self.seeds[sid]
                for k in range(1, n + 1):
                    child = mutate(seed, k)
                    key = entrywise_canonical_seed_key(child)
                    target = stored.get(key)
                    if target is not None:
                        self.edges[(sid, k)] = target
                    else:
                        candidates.append((key, child, sid, k))
            if not candidates:
                break
            depth += 1
            next_level = []
            if depth <= self.caps.max_depth:
                for key, child, sid, k in sorted(candidates, key=lambda c: c[0]):
                    if key in stored:
                        continue
                    if len(self.seeds) >= self.caps.max_seeds:
                        truncated = True
                        break
                    for p in child.x:
                        if p not in var_ids:
                            var_ids[p] = len(self.variables)
                            self.variables.append(p)
                    ids = tuple(var_ids[p] for p in child.x)
                    cluster = tuple(sorted(ids))
                    stored[key] = self._store_seed(child, ids, (sid, k), cluster)
                    next_level.append(stored[key])
            else:
                truncated = True
            for key, child, sid, k in candidates:
                target = stored.get(key)
                if target is not None:
                    self.edges[(sid, k)] = target
                else:
                    truncated = True
            if truncated and len(self.seeds) >= self.caps.max_seeds:
                break
            level = next_level
        return not truncated


def variable_index(atlas) -> dict:
    """The atlas's variable ids by polynomial."""
    return {p: i for i, p in enumerate(atlas.variables)}


def id_key(atlas, seed, tokens):
    """A seed's class key by variable id, as exploration forms it: a
    polynomial the atlas never interned gets a token from ``tokens``, one
    per distinct polynomial, ``_TOKEN + i`` for the i-th, above every id."""
    ids = []
    for p in seed.x:
        vid = variable_index(atlas).get(p)
        ids.append(tokens.setdefault(p, _TOKEN + len(tokens)) if vid is None else vid)
    return entrywise_class_key(tuple(ids), seed.b.rows, seed.y)


def entrywise_class_key(labels, rows, y):
    """A seed's form under simultaneous position permutation, entry by
    entry: its distinct labels ascending, with y and B's rows and columns
    in that order."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    ys = tuple(y[i] for i in order)
    bb = tuple(tuple(rows[oi][oj] for oj in order) for oi in order)
    return (tuple(labels[i] for i in order), ys, bb)


def entrywise_canonical_seed_key(seed):
    """A seed's class key by polynomial sort keys.  The reference explorer
    orders new classes by these keys themselves, not by ranks of them as
    exploration does."""
    labels = tuple([p.sort_key() for p in seed.x])
    return entrywise_class_key(labels, seed.b.rows, seed.y)


def degrees(graph):
    """Vertex degrees of an exchange graph, counted from its edges."""
    out = dict.fromkeys(graph.vertices, 0)
    for a, b in graph.edges:
        out[a] += 1
        out[b] += 1
    return out


def variable_ids(atlas, seed):
    """Interned ids of a seed's variables, by position."""
    return tuple(atlas.variables.index(p) for p in seed.x)


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
                ids = variable_ids(atlas, child)
                out.setdefault(tuple(sorted(ids)), ids)
                nxt.append(child)
        frontier = nxt
    return out


def every_state_i_reachable(atlas, subset):
    """Reference for ``i_reachable`` on any atlas: the same breadth-first
    walk over the edge table, stepping every exact seed it meets."""
    root = (0, atlas.seed_variable_ids[0])
    seen = {root}
    out = {tuple(sorted(root[1])): root[1]}
    frontier = [root]
    while frontier:
        nxt = []
        for state in frontier:
            for k in sorted(set(subset)):
                child = atlas.mutate_state(state, k)
                if child is None or child in seen:
                    continue
                seen.add(child)
                out.setdefault(tuple(sorted(child[1])), child[1])
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
        assert [a.path(sid) for sid in range(5)] == [(), (1,), (2,), (1, 2), (2, 1)]

    def test_closure_sizes(self, c2_trivial, g2_trivial, a3_trivial):
        for atlas, seeds, variables, clusters in [
            (c2_trivial, 6, 6, 6),
            (g2_trivial, 8, 8, 8),
            (a3_trivial, 14, 9, 14),
        ]:
            assert atlas.complete
            assert len(atlas.seeds) == seeds
            assert len(atlas.variables) == variables
            assert len(atlas.clusters) == clusters

    @pytest.mark.parametrize(
        "family, n, coefficients",
        [
            pytest.param(family, n, coefficients, id=f"{family}{n}-{coefficients}")
            for family, n, choices in [
                ("A", 4, ("trivial", "principal")),
                ("A", 5, ("trivial", "principal")),
                ("A", 6, ("trivial",)),
                ("B", 3, ("trivial", "principal")),
                ("C", 3, ("trivial", "principal")),
                ("D", 4, ("trivial", "principal")),
                ("D", 5, ("trivial", "principal")),
                ("E", 6, ("trivial",)),
                ("E", 7, ("trivial",)),
                ("F", 4, ("trivial",)),
                ("G", 2, ("trivial",)),
            ]
            for coefficients in choices
        ],
    )
    def test_finite_type_counts(self, family, n, coefficients):
        atlas = explore(root_seed(ExchangeMatrix(matrix(family, n)), coefficients))
        assert atlas.complete
        assert (len(atlas.variables), len(atlas.clusters)) == finite_counts(family, n)
        graph = atlas.exchange_graph()
        assert set(degrees(graph).values()) == {atlas.n}

    def test_rank_one(self):
        a = explore(root_seed(ExchangeMatrix(A1_ROWS), "trivial"))
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

    def test_stored_seeds_replay_from_root(
        self, a2_trivial, a3_trivial, a3_principal
    ):
        # Every stored seed but the root is joined to its parent by a stored
        # exchange edge that keeps positions at both ends, and its tree path,
        # the one exported, replays to it.
        atlases = [a2_trivial, a3_trivial, a3_principal] + [
            explore(root_seed(ExchangeMatrix(rows), coefficients), caps)
            for rows, coefficients, caps in [
                (B3_ROWS, "principal", ExploreCaps()),
                (A4_ROWS, "principal", ExploreCaps(20)),
                (KRONECKER_2_ROWS, "trivial", ExploreCaps(max_depth=6)),
            ]
        ]
        for atlas in atlases:
            exported = json.loads(atlas.to_json())["seeds"]
            assert len(atlas.tree) == len(atlas.seeds)
            assert atlas.tree[0] is None
            ids = atlas.seed_variable_ids
            for sid, seed in enumerate(atlas.seeds):
                path = atlas.path(sid)
                if sid:
                    parent, k = atlas.tree[sid]
                    assert parent < sid and path[-1] == k
                    assert atlas.edges[(parent, k)] == sid
                    # Absent only when the seed's level never ran.
                    assert atlas.edges.get((sid, k), parent) == parent
                    pairs = enumerate(zip(ids[parent], ids[sid]), 1)
                    assert [p for p, (a, b) in pairs if a != b] == [k]
                assert mutate_path(atlas.root, path) == seed
                assert exported[sid]["path"] == list(path)

    def test_edges_are_total_and_consistent(self, a2_trivial, a3_trivial):
        for atlas in (a2_trivial, a3_trivial):
            n = atlas.n
            assert set(atlas.edges) == {
                (sid, k)
                for sid in range(len(atlas.seeds))
                for k in range(1, n + 1)
            }
            for (sid, k), tid in atlas.edges.items():
                key = entrywise_canonical_seed_key(mutate_path(atlas.seeds[sid], [k]))
                assert key == entrywise_canonical_seed_key(atlas.seeds[tid])

    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            (A2_ROWS, "trivial", ExploreCaps()),
            (C2_ROWS, "trivial", ExploreCaps()),
            (G2_ROWS, "trivial", ExploreCaps()),
            (A3_ROWS, "trivial", ExploreCaps()),
            (A3_ROWS, "principal", ExploreCaps()),
            (B3_ROWS, "principal", ExploreCaps()),
            (A4_ROWS, "principal", ExploreCaps(max_seeds=7)),
            (A4_ROWS, "principal", ExploreCaps(max_seeds=20)),
            (KRONECKER_2_ROWS, "trivial", ExploreCaps(max_depth=6)),
            (MARKOV_ROWS, "trivial", ExploreCaps(max_depth=3)),
            # Finite types cut by depth: some last-level children land on a
            # stored seed, and the rest are skipped.
            (A4_ROWS, "principal", ExploreCaps(max_depth=2)),
            (A4_ROWS, "principal", ExploreCaps(max_depth=3)),
            (D4_ROWS, "trivial", ExploreCaps(max_depth=2)),
            (D4_ROWS, "principal", ExploreCaps(max_depth=2)),
            (AFFINE_3_ROWS, "principal", ExploreCaps(max_depth=5)),
            (B3_ROWS, "principal", ExploreCaps(max_seeds=16)),
            # Levels with many new classes and new variables, ordered by the
            # ranks of their variables' polynomial keys.
            (A5_ROWS, "trivial", ExploreCaps()),
            (D4_ROWS, "trivial", ExploreCaps()),
            (D5_ROWS, "trivial", ExploreCaps()),
            (matrix("A", 6), "trivial", ExploreCaps()),
            (D4_ROWS, "trivial", ExploreCaps(max_seeds=15)),
            (A5_ROWS, "principal", ExploreCaps(max_seeds=22)),
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
        if (rows, coefficients, caps.max_seeds) in STOPS_AFTER_DUPLICATE:
            assert cap_stops_after_a_duplicated_class(atlas)
        if (rows, coefficients, caps.max_seeds) in CUTS_NEW_VARIABLES:
            assert cap_cuts_new_variables(atlas)

    @pytest.mark.parametrize(
        "rows, coefficients",
        [
            (A3_ROWS, "principal"),
            (B3_ROWS, "principal"),
            (C3_ROWS, "principal"),
            (D4_ROWS, "principal"),
            (A5_ROWS, "trivial"),
        ],
    )
    def test_exploration_mutates_each_exchange_edge_once(
        self, rows, coefficients, monkeypatch
    ):
        # Each edge is made once, from one end.  Its new variable is computed
        # by mutate only the first time its exchange input is met; a repeat
        # is served from the memo, and only B and y are mutated, by
        # mutate_rows.
        computed, served = [], []
        original_mutate = clusteralg.atlas.mutate
        original_rows = clusteralg.atlas.mutate_rows

        def counted(seed, k):
            column = [row[k - 1] for row in seed.b.rows]
            neighbours = sorted(
                (p.sort_key(), b) for p, b in zip(seed.x, column) if b
            )
            given = (seed.x[k - 1].sort_key(), seed.y[k - 1], tuple(neighbours))
            computed.append(given)
            return original_mutate(seed, k)

        def counted_rows(rows, y, k):
            served.append(k)
            return original_rows(rows, y, k)

        monkeypatch.setattr(clusteralg.atlas, "mutate", counted)
        monkeypatch.setattr(clusteralg.atlas, "mutate_rows", counted_rows)
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients))
        assert atlas.complete
        assert len(atlas.edges) == atlas.n * len(atlas.seeds)
        assert len(computed) + len(served) == len(atlas.edges) // 2
        assert len(set(computed)) == len(computed)
        assert served

    @pytest.mark.parametrize(
        "rows, coefficients", [(A5_ROWS, "trivial"), (D5_ROWS, "principal")]
    )
    def test_exploration_serves_interned_variables(
        self, rows, coefficients, monkeypatch
    ):
        # The memo hands back a variable id, so a new class made from a
        # served exchange holds the interned variable, not an equal copy,
        # when that variable was interned on an earlier level.
        computed = set()
        original_mutate = clusteralg.atlas.mutate

        def counted(seed, k):
            computed.add((id(seed), k))
            return original_mutate(seed, k)

        monkeypatch.setattr(clusteralg.atlas, "mutate", counted)
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients))
        ids = atlas.seed_variable_ids
        depth = [len(atlas.path(sid)) for sid in range(len(atlas.seeds))]
        born = {}
        for sid, seed_ids in enumerate(ids):
            for v in seed_ids:
                born.setdefault(v, depth[sid])
        later = [
            (sid, ids[sid][k - 1], atlas.seeds[sid].x[k - 1])
            for sid, (parent, k) in enumerate(atlas.tree[1:], 1)
            if (id(atlas.seeds[parent]), k) not in computed
            and born[ids[sid][k - 1]] < depth[sid]
        ]
        assert later
        assert all(p is atlas.variables[v] for _, v, p in later)

    @pytest.mark.parametrize(
        "rows, coefficients",
        [(A5_ROWS, "trivial"), (D5_ROWS, "trivial"), (D5_ROWS, "principal")],
    )
    def test_a_level_makes_one_new_variable_by_two_exchanges(
        self, rows, coefficients, monkeypatch
    ):
        # Two exchanges of one level with distinct memo keys make one
        # polynomial that no earlier level interned, so the finite-type
        # counts need one token per polynomial, not one per exchange.
        computed = []
        original_mutate = clusteralg.atlas.mutate

        def counted(seed, k):
            child = original_mutate(seed, k)
            computed.append((seed, child.x[k - 1]))
            return child

        monkeypatch.setattr(clusteralg.atlas, "mutate", counted)
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients))
        depth = {id(s): len(atlas.path(sid)) for sid, s in enumerate(atlas.seeds)}
        born = {}
        for sid, seed_ids in enumerate(atlas.seed_variable_ids):
            for v in seed_ids:
                born.setdefault(v, len(atlas.path(sid)))
        index = variable_index(atlas)
        made = Counter((depth[id(seed)], index[p]) for seed, p in computed)
        assert any(
            count > 1 and born[v] == d + 1 for (d, v), count in made.items()
        )

    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            (D5_ROWS, "trivial", None),
            (A4_ROWS, "principal", ExploreCaps(20)),
            (KRONECKER_3_ROWS, "trivial", ExploreCaps(max_depth=4)),
        ],
    )
    def test_stored_seeds_hold_the_interned_variables(
        self, rows, coefficients, caps
    ):
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients), caps)
        for seed, ids in zip(atlas.seeds, atlas.seed_variable_ids):
            assert all(p is atlas.variables[v] for p, v in zip(seed.x, ids))

    # The memo key must tell apart every input of the exchange: each case
    # differs from the base (A2 principal, direction 1, variable ids (0, 1))
    # in exactly one of them.
    @pytest.mark.parametrize(
        "rows, y, ids",
        [
            pytest.param(A2_ROWS, [[-1, 0], [0, 1]], (0, 1), id="y_k"),
            pytest.param(B2_ROWS, [[1, 0], [0, 1]], (0, 1), id="abs-b_ik"),
            pytest.param([[0, -1], [1, 0]], [[1, 0], [0, 1]], (0, 1), id="sign-b_ik"),
            pytest.param(A2_ROWS, [[1, 0], [0, 1]], (2, 1), id="x_k"),
            pytest.param(A2_ROWS, [[1, 0], [0, 1]], (0, 2), id="x_i"),
        ],
    )
    def test_exchange_input_tells_apart_each_input(self, rows, y, ids):
        base = root_seed(ExchangeMatrix(A2_ROWS), "principal")
        other = Seed(ExchangeMatrix(rows), y, base.x)
        assert _exchange_input(other, ids, 1) != _exchange_input(base, (0, 1), 1)
        if ids == (0, 1):
            assert exchange(other, 1) != exchange(base, 1)

    def test_exchange_input_ignores_the_position_order(self):
        # A3 principal in direction 2 reads x_1 and x_3; the same seed with
        # its positions reversed reads them in the other order, by id the
        # same exchange.
        seed = root_seed(ExchangeMatrix(A3_ROWS), "principal")
        flip = [2, 1, 0]
        rows = [[seed.b.rows[i][j] for j in flip] for i in flip]
        y = [seed.y[i] for i in flip]
        reversed_seed = Seed(ExchangeMatrix(rows), y, seed.x[::-1])
        given = _exchange_input(seed, (0, 1, 2), 2)
        assert sorted(i for i, _ in given[2]) == [0, 2]
        assert _exchange_input(reversed_seed, (2, 1, 0), 2) == given
        assert exchange(reversed_seed, 2) == exchange(seed, 2)

    def test_a_broken_involution_is_an_engine_fault(self, monkeypatch):
        # Seed (2,) mutated in direction 1 lands one step too far: on the
        # right cluster, as the step changes another position, with B negated.
        # That second seed on a stored cluster is the fault reported, naming
        # both seeds; the reverse edge it would contradict is never derived.
        original = clusteralg.atlas.mutate
        root = root_seed(ExchangeMatrix(A2_ROWS), "trivial")
        seed_2 = original(root, 2)

        def broken(seed, k):
            child = original(seed, k)
            return original(child, 3 - k) if seed.x == seed_2.x and k == 1 else child

        monkeypatch.setattr(clusteralg.atlas, "mutate", broken)
        with pytest.raises(
            RuntimeError,
            match=r"^seed 3 mutated in direction 1 and seed 4 share a cluster "
            r"but are different seeds",
        ):
            explore(root)

    def test_a_reverse_edge_that_is_not_the_parent_is_an_engine_fault(
        self, monkeypatch
    ):
        # Seed 2, which the root's edge in direction 2 reaches, has its edge
        # back pointed at seed 1.
        misdirect_reverse_edges(monkeypatch)
        with pytest.raises(
            RuntimeError,
            match=r"^seed 2 in direction 2 reaches seed 1, but mutation is an "
            r"involution and seed 0 in direction 2 reaches seed 2$",
        ):
            explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))

    @pytest.mark.parametrize(
        "sid, k, other, aligned",
        [
            # The later child of a new class holds the first child's
            # variables at the first child's positions.
            (3, 1, "1 mutated in direction 3", True),
            # The child lands on stored seed 11 with its variables permuted.
            (9, 1, "11", False),
        ],
    )
    def test_a_seed_differing_only_in_y_is_an_engine_fault(
        self, monkeypatch, sid, k, other, aligned
    ):
        # A3 principal: one landing child of a memo hit gets y negated, with
        # B and its variables right, so only the comparison of y sees it, in
        # the branch of ``_same_seed`` given by ``aligned``.
        root = root_seed(ExchangeMatrix(A3_ROWS), "principal")
        parent = explore(root).seeds[sid]
        original_rows, original_same = clusteralg.atlas.mutate_rows, _same_seed
        failed = []

        def broken(rows, y, j):
            got, got_y = original_rows(rows, y, j)
            if (rows, y, j) == (parent.b.rows, parent.y, k):
                got_y = tuple(tuple(-e for e in row) for row in got_y)
            return got, got_y

        def watched(ids, rows, y, at, at_rows, at_y):
            same = original_same(ids, rows, y, at, at_rows, at_y)
            if not same:
                failed.append(ids == at)
            return same

        monkeypatch.setattr(clusteralg.atlas, "mutate_rows", broken)
        monkeypatch.setattr(clusteralg.atlas, "_same_seed", watched)
        with pytest.raises(
            RuntimeError,
            match=rf"^seed {sid} mutated in direction {k} and seed {other} share a "
            r"cluster but are different seeds",
        ):
            explore(root)
        assert failed == [aligned]

    def test_two_seeds_on_one_new_cluster_are_an_engine_fault(self, monkeypatch):
        # A3: the children of the seeds along 1 and along 3, in directions 3
        # and 1, are one level's new classes, on one cluster.  The second
        # child's exchange is a memo hit, so only B and y are mutated, and B
        # is negated, which no position permutation undoes.
        original = clusteralg.atlas.mutate_rows
        parent = mutate(root_seed(ExchangeMatrix(A3_ROWS), "trivial"), 3)

        def broken(rows, y, k):
            got, y = original(rows, y, k)
            if rows == parent.b.rows and k == 1:
                got = tuple(tuple(-e for e in row) for row in got)
            return got, y

        monkeypatch.setattr(clusteralg.atlas, "mutate_rows", broken)
        with pytest.raises(
            RuntimeError,
            match=r"^seed 3 mutated in direction 1 and seed 1 mutated in direction 3 "
            r"share a cluster but are different seeds",
        ):
            explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))

    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            (A1_ROWS, "principal", ExploreCaps()),
            (A3_ROWS, "principal", ExploreCaps()),
            (B3_ROWS, "principal", ExploreCaps()),
            (D4_ROWS, "principal", ExploreCaps()),
            (KRONECKER_2_ROWS, "principal", ExploreCaps(max_depth=6)),
            # Each interned token's class keeps its key with the id in its
            # place, also on levels that a seed cap cuts.
            (D5_ROWS, "trivial", ExploreCaps()),
            (A4_ROWS, "principal", ExploreCaps(max_seeds=7)),
            (A4_ROWS, "principal", ExploreCaps(max_seeds=20)),
        ],
    )
    def test_same_seed_agrees_with_entrywise_keys(self, rows, coefficients, caps):
        # Every stored seed's child in each direction that has an edge, as
        # mutated and with B or y negated, against the edge's stored target:
        # ``_same_seed`` holds exactly when the entrywise keys are equal.
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients), caps)
        index = variable_index(atlas)
        branches, outcomes = Counter(), Counter()
        for sid, seed in enumerate(atlas.seeds):
            ids = atlas.seed_variable_ids[sid]
            assert atlas.clusters[sid] == tuple(sorted(ids))
            assert atlas.cluster_to_seed[atlas.clusters[sid]] == sid
            for k in range(1, atlas.n + 1):
                target = atlas.edges.get((sid, k))
                if target is None:
                    continue
                at, stored = atlas.seed_variable_ids[target], atlas.seeds[target]
                child = mutate(seed, k)
                child_ids = tuple(map(index.__getitem__, child.x))
                branches[child_ids == at] += 1
                negated_b = [[-e for e in row] for row in child.b.rows]
                negated_y = [[-e for e in row] for row in child.y]
                for other in (
                    child,
                    Seed(ExchangeMatrix(negated_b), child.y, child.x),
                    Seed(child.b, negated_y, child.x),
                ):
                    same = _same_seed(
                        child_ids, other.b.rows, other.y, at, stored.b.rows, stored.y
                    )
                    assert same == (
                        entrywise_canonical_seed_key(other)
                        == entrywise_canonical_seed_key(stored)
                    )
                    outcomes[same] += 1
        # Both outcomes, and both branches, the target's positions and a
        # permutation of them, on each complete atlas; at n = 1 ids always
        # equal at.
        assert outcomes[True] and outcomes[False]
        assert branches[True]
        if atlas.n == 1:
            assert not branches[False]
        elif atlas.complete:
            assert branches[False]

    @pytest.mark.parametrize(
        "rows, caps",
        [
            (A3_ROWS, ExploreCaps()),
            (B3_ROWS, ExploreCaps()),
            (D4_ROWS, ExploreCaps()),
            (KRONECKER_2_ROWS, ExploreCaps(max_depth=6)),
        ],
    )
    def test_id_keys_identify_as_canonical_keys_do(self, rows, caps):
        # Among the stored seeds, and among the children of one level's
        # seeds (the level's candidates are among them), two have equal id
        # keys exactly when their canonical keys are equal.
        atlas = explore(root_seed(ExchangeMatrix(rows), "principal"), caps)
        levels = {}
        for sid, seed in enumerate(atlas.seeds):
            levels.setdefault(len(atlas.path(sid)), []).append(seed)
        groups = [atlas.seeds] + [
            [mutate(seed, k) for seed in level for k in range(1, atlas.n + 1)]
            for level in levels.values()
        ]
        met_twice = 0
        for group in groups:
            tokens = {}
            pairs = {
                (id_key(atlas, s, tokens), entrywise_canonical_seed_key(s))
                for s in group
            }
            assert len({a for a, _ in pairs}) == len(pairs)
            assert len({b for _, b in pairs}) == len(pairs)
            met_twice += len(pairs) < len(group)
        assert met_twice

    def test_level_order_sorts_as_keys_over_ranks(self):
        # Synthetic classes, (ids, rows, y), on distinct clusters as a
        # level's classes are, listed out of their key order.
        rng = random.Random(20)
        labels = list(range(6)) + [_TOKEN, _TOKEN + 1]
        rank = dict(zip(labels, rng.sample(range(len(labels)), len(labels))))
        clusters = list(combinations(labels, 3))
        for _ in range(40):
            classes = []
            for cluster in rng.sample(clusters, rng.randint(2, 8)):
                ids = tuple(rng.sample(cluster, 3))
                rows = tuple(tuple(rng.randint(-2, 2) for _ in ids) for _ in ids)
                y = tuple((rng.randint(-1, 1),) for _ in ids)
                classes.append((ids, rows, y))
            expected = sorted(
                range(len(classes)),
                key=lambda s: entrywise_class_key(
                    tuple(map(rank.__getitem__, classes[s][0])), *classes[s][1:]
                ),
            )
            assert _level_order(classes, rank.__getitem__) == expected

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
        # The error names the field that failed and its minimum; depth 0 is
        # a valid cap.
        with pytest.raises(ValueError, match=r"^max_seeds must be at least 1, got 0$"):
            ExploreCaps(max_seeds=0)
        with pytest.raises(ValueError, match=r"^max_depth must be at least 0, got -1$"):
            ExploreCaps(max_depth=-1)
        assert ExploreCaps(max_seeds=1, max_depth=0).max_depth == 0

    def test_seed_cap_truncates(self):
        a = infinite_rank2(max_seeds=12)
        assert not a.complete
        assert len(a.seeds) == 12

    def test_depth_cap_truncates(self):
        root = root_seed(ExchangeMatrix(A2_ROWS), "trivial")
        a = explore(root, ExploreCaps(max_depth=1))
        assert not a.complete
        assert len(a.seeds) == 3  # root plus its two neighbors

    @pytest.mark.parametrize("rows", [KRONECKER_3_ROWS, MARKOV_ROWS])
    def test_the_last_level_computes_only_what_can_land(self, rows, monkeypatch):
        # These exchange graphs are trees, so a last-level seed meets a
        # stored cluster only through its parent's direction, which the
        # reverse edge serves: each exchange computed makes a stored seed.
        # An exchange is computed by mutate or served by mutate_rows, which
        # gets the seed's rows.
        calls = []
        original_mutate = clusteralg.atlas.mutate
        original_rows = clusteralg.atlas.mutate_rows

        def counted(seed, k):
            calls.append((seed.b.rows, k))
            return original_mutate(seed, k)

        def counted_rows(rows, y, k):
            calls.append((rows, k))
            return original_rows(rows, y, k)

        monkeypatch.setattr(clusteralg.atlas, "mutate", counted)
        monkeypatch.setattr(clusteralg.atlas, "mutate_rows", counted_rows)
        root = root_seed(ExchangeMatrix(rows), "trivial")
        atlas = explore(root, ExploreCaps(max_depth=4))
        assert not atlas.complete
        sid = {id(s.b.rows): i for i, s in enumerate(atlas.seeds)}
        assert len(sid) == len(atlas.seeds)
        last = [
            (sid[id(rows)], k)
            for rows, k in calls
            if len(atlas.path(sid[id(rows)])) == 4
        ]
        assert all(k == atlas.tree[s][1] for s, k in last)
        assert len(calls) == len(atlas.seeds) - 1

    @pytest.mark.parametrize(
        "rows, coefficients", [(A3_ROWS, "trivial"), (B3_ROWS, "principal")]
    )
    def test_smallest_complete_depth_gives_the_uncapped_atlas(
        self, rows, coefficients
    ):
        root = root_seed(ExchangeMatrix(rows), coefficients)
        uncapped = explore(root)
        depth = max(len(uncapped.path(sid)) for sid in range(len(uncapped.seeds)))
        assert not explore(root, ExploreCaps(max_depth=depth - 1)).complete
        capped = explore(root, ExploreCaps(max_depth=depth))
        assert capped.complete
        got, want = json.loads(capped.to_json()), json.loads(uncapped.to_json())
        assert got.pop("caps") != want.pop("caps")
        assert got == want

    def test_finite_pattern_is_complete_under_loose_caps(self):
        root = root_seed(ExchangeMatrix(A2_ROWS), "trivial")
        a = explore(root, ExploreCaps(max_seeds=6, max_depth=3))
        assert a.complete
        assert len(a.seeds) == 5


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
        with pytest.raises(KeyError, match=r"cluster \{1,3\} is not in the atlas"):
            a.normalize_cluster((1, 3))
        assert a.normalize_cluster((1, 0)) == (0, 1)

    def test_expansion_refuses_ids_outside_the_table(self, a3_principal):
        a = a3_principal
        for v in (-1, len(a.variables)):
            with pytest.raises(KeyError, match=rf"variable id {v} is not in the atlas"):
                a.expansion(v)

    def test_tree_replay_matches_per_pair_replay(
        self, a2_trivial, c2_trivial, g2_trivial, a3_trivial, a3_principal,
        monkeypatch,
    ):
        atlases = (a2_trivial, c2_trivial, g2_trivial, a3_trivial, a3_principal)
        capped = explore(
            root_seed(ExchangeMatrix(A4_ROWS), "principal"), ExploreCaps(20)
        )
        # Seeds whose level never ran store no edges; the walk reads their
        # parent entries backwards.
        assert any(
            all((sid, k) not in capped.edges for k in range(1, capped.n + 1))
            for sid in range(len(capped.seeds))
        )
        # Complete, with no twins: every host but the root exchanges.
        d4_principal = explore(root_seed(ExchangeMatrix(D4_ROWS), "principal"))
        # Twin hosts: D4 relabels coordinates; every Kronecker host past the
        # root has a twin, and on both capped atlases the twin's lockstep
        # walk leaves the atlas, so its map serves nothing and the host
        # exchanges every variable it does not hold.
        d4 = explore(root_seed(ExchangeMatrix(D4_ROWS), "trivial"))
        kronecker = explore(
            root_seed(ExchangeMatrix(KRONECKER_2_ROWS), "trivial"),
            ExploreCaps(max_depth=6),
        )
        a4_capped = explore(
            root_seed(ExchangeMatrix(A4_ROWS), "trivial"), ExploreCaps(20)
        )
        binomials = count_binomials(monkeypatch)
        work = {}
        for atlas in atlases + (
            infinite_rank2(), capped, d4_principal, d4, kronecker, a4_capped
        ):
            n = atlas.n
            assert len(atlas.cluster_to_seed) == len(atlas.seeds)
            expanded, computed, untwinned, relabeled = [], 0, 0, False
            for cluster, sid in atlas.cluster_to_seed.items():
                orders = twin_orders(atlas, sid, expanded)
                untwinned += not orders
                relabeled |= bool(orders) and tuple(range(n)) not in orders
                expanded.append(sid)
                del binomials[:]
                atlas.expand(0, cluster)
                computed += len(binomials)
                got = [atlas.expand(v, cluster) for v in range(len(atlas.variables))]
                assert got == replayed_expansions(atlas, sid)
            per_host = len(atlas.variables) - n
            # Exchanges at the hosts without a twin, computed, at every host;
            # the root, the first host, computes nothing.
            work[atlas] = (
                (untwinned - 1) * per_host, computed, (len(expanded) - 1) * per_host
            )
            if atlas is d4:
                assert relabeled
        lowest, computed, highest = work[d4]
        assert lowest == computed == 36 < highest
        assert len(set(work[d4_principal])) == 1
        for atlas in (kronecker, a4_capped):
            lowest, computed, highest = work[atlas]
            assert lowest < computed == highest

    def test_rerooting_exchanges_only_at_hosts_without_a_twin(self, monkeypatch):
        # Under trivial coefficients a host whose B is an earlier host's up
        # to a position permutation relabels that host's expansions, with no
        # exchange and no mutation.  The root's expansions are the interned
        # variables.  Any other host reaches each variable it does not hold
        # by one exchange at a stored seed's B and y.  Principal coefficients
        # give every seed its own y, so no host has a twin.  A second round
        # reads the cache.
        atlases = [
            explore(root_seed(ExchangeMatrix(rows), coefficients))
            for rows, coefficients in [
                (A3_ROWS, "trivial"),
                (B3_ROWS, "trivial"),
                (A3_ROWS, "principal"),
            ]
        ]
        mutations = count_mutations(monkeypatch)
        binomials = count_binomials(monkeypatch)
        for atlas in atlases:
            count = len(atlas.variables)
            expanded, twins = [], 0
            for cluster in atlas.clusters:
                sid = atlas.cluster_to_seed[cluster]
                twinned = bool(twin_orders(atlas, sid, expanded))
                expanded.append(sid)
                twins += twinned
                for v in range(count):
                    atlas.expand(v, cluster)
                assert len(binomials) == (0 if twinned or not sid else count - atlas.n)
                assert mutations == []
                del binomials[:]
            assert (twins == 0) == (atlas.coefficients == "principal")
            for cluster in atlas.clusters:
                for v in range(count):
                    atlas.expand(v, cluster)
            assert binomials == mutations == []

    @pytest.mark.parametrize("coefficients", ["trivial", "principal"])
    def test_a_root_of_other_variables_is_expanded_like_any_host(self, coefficients):
        # Only a root of the units x_1..x_n in position order reads its
        # expansions off the interned variables.  A root of permuted units,
        # or of a mutated seed's variables, is walked like any other host,
        # and every host's expansions are still the per-pair replay's.
        start = root_seed(ExchangeMatrix(A3_ROWS), coefficients)
        x2, x1, x3 = (start.x[i] for i in (1, 0, 2))
        for root in (Seed(start.b, start.y, [x2, x1, x3]), mutate(start, 1)):
            atlas = explore(root)
            assert atlas.complete
            for cluster, sid in atlas.cluster_to_seed.items():
                got = [atlas.expand(v, cluster) for v in range(len(atlas.variables))]
                assert got == replayed_expansions(atlas, sid)

    @pytest.mark.parametrize("y", [[(1,), (0,), (-1,)], [(1, -1), (0, 1), (-1, 0)]])
    def test_custom_coefficients_exchange_at_every_host(self, y):
        # Twins are sought only under trivial coefficients, so a pattern
        # with other coefficients keeps no map; its expansions are still
        # those of the per-pair replay.
        m = len(y[0])
        x = [LaurentPoly.variable(3, m, i) for i in range(1, 4)]
        atlas = explore(Seed(ExchangeMatrix(A3_ROWS), y, x))
        assert atlas.coefficients == "custom"
        assert atlas.complete
        for cluster, sid in atlas.cluster_to_seed.items():
            got = [atlas.expand(v, cluster) for v in range(len(atlas.variables))]
            assert got == replayed_expansions(atlas, sid)
        assert atlas._automorphisms == []

    def test_a_minus_b_twin_serves_under_trivial_coefficients(self, monkeypatch):
        # With trivial coefficients the exchange binomial is symmetric in its
        # two monomials, so a host whose B is minus an expanded host's, up to
        # a position permutation, relabels that host's expansions.  On A3 the
        # orientation with a sink in the middle is no permutation of the one
        # with a source there, so such a host has no +B twin.
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        reference = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        g, h = next(
            (g, h)
            for g, h in permutations(range(len(atlas.seeds)), 2)
            if twin_orders(atlas, h, [g]) and not twin_orders(atlas, h, [g], (1,))
        )
        hosts = [tuple(sorted(atlas.seed_variable_ids[s])) for s in (g, h)]
        count = len(atlas.variables)
        want = [reference.expand(v, hosts[1]) for v in range(count)]
        mutations = count_mutations(monkeypatch)
        binomials = count_binomials(monkeypatch)
        atlas.expand(0, hosts[0])
        assert len(binomials) == count - atlas.n
        del binomials[:]
        assert [atlas.expand(v, hosts[1]) for v in range(count)] == want
        assert binomials == mutations == []

    def test_kept_maps_are_cluster_automorphisms(self):
        # A twin walk that names every variable keeps its map.  On a
        # complete atlas each one permutes the variables, the clusters and
        # the exchange graph's edges.  Capped atlases keep only maps that
        # name every variable.  The counts are those of expanding the
        # clusters in discovery order.
        kept = []
        for rows in (A4_ROWS, B3_ROWS, C3_ROWS, D4_ROWS, D5_ROWS):
            atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
            for cluster in atlas.clusters:
                atlas.expand(0, cluster)
            count = len(atlas.variables)
            clusters = set(atlas.clusters)
            edges = set(atlas.exchange_graph().edges)
            for sigma in atlas._automorphisms:
                assert sorted(sigma) == list(range(count))

                def image(c):
                    return tuple(sorted(sigma[v] for v in c))

                assert set(map(image, clusters)) == clusters
                assert {tuple(sorted(map(image, e))) for e in edges} == edges
            kept.append(len(atlas._automorphisms))
        assert kept == [4, 3, 3, 4, 5]
        for atlas in (
            explore(
                root_seed(ExchangeMatrix(KRONECKER_2_ROWS), "trivial"),
                ExploreCaps(max_depth=6),
            ),
            explore(root_seed(ExchangeMatrix(A4_ROWS), "trivial"), ExploreCaps(20)),
        ):
            for cluster in atlas.clusters:
                atlas.expand(0, cluster)
            count = len(atlas.variables)
            for sigma in atlas._automorphisms:
                assert sorted(sigma) == list(range(count))

    def test_each_automorphism_is_walked_once(self, monkeypatch):
        # A carried walk starts only at a host that no kept map carries onto
        # a read cluster, exchanged or served, and each walk steps at most once
        # into each stored seed.  Stepping a twin's seed beside the exchange
        # walk took 15,277 steps on D5.  The witness sweep carries 6 walks on
        # D4 and 12 on E6 (11 and 26 when a served cluster served no other).
        atlases = [
            explore(root_seed(ExchangeMatrix(rows), "trivial"))
            for rows in (A5_ROWS, D5_ROWS)
        ]
        steps, carries = [], []
        step, carry = PatternAtlas.mutate_state, PatternAtlas.carry

        def counted_step(atlas, state, k):
            steps.append(k)
            return step(atlas, state, k)

        def counted_carry(atlas, state, start):
            c = tuple(sorted(atlas.seed_variable_ids[start]))
            for sigma in atlas._automorphisms:
                assert tuple(sorted(sigma[v] for v in c)) not in atlas._readings
            carries.append(start)
            return carry(atlas, state, start)

        monkeypatch.setattr(PatternAtlas, "mutate_state", counted_step)
        monkeypatch.setattr(PatternAtlas, "carry", counted_carry)
        for atlas in atlases:
            del steps[:], carries[:]
            for cluster in atlas.clusters:
                atlas.expand(0, cluster)
            assert carries
            assert len(steps) <= len(carries) * len(atlas.seeds)
        walks = []
        for family, n in (("D", 4), ("E", 6)):
            atlas = explore(root_seed(ExchangeMatrix(matrix(family, n)), "trivial"))
            del carries[:]
            assert witness_sweep(atlas).resolve_status() == "pass"
            walks.append(len(carries))
        assert walks == [6, 12]

    @pytest.mark.parametrize("rows", [A4_ROWS, B3_ROWS, C3_ROWS, D4_ROWS, D5_ROWS])
    def test_each_read_cluster_is_exchanged_or_served(self, monkeypatch, rows):
        # After both suites and ``expand`` at every cluster, each cluster has
        # one reading: exchanged, its own image with every expansion of its
        # own, the identity sigma and no pick, or served by a map onto an
        # exchanged image, with that image's expansions.  Either expands as
        # the replay.
        atlas = explore(root_seed(ExchangeMatrix(rows), "trivial"))
        hosts = []
        exchange = PatternAtlas._exchange

        def counted(atlas, cluster):
            hosts.append(cluster)
            return exchange(atlas, cluster)

        monkeypatch.setattr(PatternAtlas, "_exchange", counted)
        assert witness_sweep(atlas).resolve_status() == "pass"
        assert verify_degree_properties(atlas).resolve_status() == "pass"
        for cluster, sid in atlas.cluster_to_seed.items():
            got = [atlas.expand(v, cluster) for v in range(len(atlas.variables))]
            assert got == replayed_expansions(atlas, sid)
        readings = atlas._readings
        assert set(readings) == set(atlas.clusters)
        exchanged = [c for c, (_, _, image, _) in readings.items() if image == c]
        assert hosts == exchanged
        count = len(atlas.variables)
        for c, (known, sigma, image, pick) in readings.items():
            assert known is readings[image][0]
            assert sorted(sigma) == list(range(count))
            if image == c:
                assert list(sigma) == list(range(count)) and pick is None
            else:
                assert image in exchanged

    @pytest.mark.parametrize("path", [(), (1, 2)])
    @pytest.mark.parametrize("coefficients", ["trivial", "principal"])
    @pytest.mark.parametrize(
        "rows", [A4_ROWS, B3_ROWS, C3_ROWS, D4_ROWS], ids=["A4", "B3", "C3", "D4"]
    )
    def test_every_d_vector_table_is_the_replays(self, rows, coefficients, path):
        # Each table read, served or exchanged, first or again, is the one
        # built from the per-pair replay's expansions at its cluster.  The
        # re-rooted root makes kept maps serve with coordinates permuted.
        seed = mutate_path(root_seed(ExchangeMatrix(rows), coefficients), path)
        atlas = explore(seed)
        want = {
            c: tuple(
                tuple(-e for e in p.x_min_exponents())
                for p in replayed_expansions(atlas, sid)
            )
            for c, sid in atlas.cluster_to_seed.items()
        }
        for c in atlas.clusters + atlas.clusters[::-1]:
            assert atlas.d_vectors(c) == want[c]

    @pytest.mark.parametrize(
        "family, n, steps",
        [("A", 5, 368), ("D", 5, 547), ("E", 6, 4055)],
    )
    def test_breadth_first_carry_keeps_every_map(self, monkeypatch, family, n, steps):
        # Carrying breadth first from the host names the same variables as
        # the climb to the root and down in store order did, so the kept maps,
        # readings and d-vector tables are equal; it needs fewer steps
        # (A5 540, D5 600 and E6 5,508 by the climb).
        root = root_seed(ExchangeMatrix(matrix(family, n)), "trivial")
        atlases = [explore(root), explore(root)]
        counts = []
        step = PatternAtlas.mutate_state

        def counted(atlas, state, k):
            counts[-1] += 1
            return step(atlas, state, k)

        monkeypatch.setattr(PatternAtlas, "mutate_state", counted)
        for atlas, carry in zip(atlases, (PatternAtlas.carry, climb_then_store_order)):
            monkeypatch.setattr(PatternAtlas, "carry", carry)
            counts.append(0)
            for cluster in atlas.clusters:
                atlas.expand(0, cluster)
                atlas.d_vectors(cluster)
        # A reading's pick follows from its cluster, sigma and image.
        new, old = [
            (
                atlas._automorphisms,
                [(c, *reading[:3]) for c, reading in atlas._readings.items()],
                atlas._d_vectors,
            )
            for atlas in atlases
        ]
        assert new == old
        assert counts[0] <= steps < counts[1]

    def test_expansion_walk_keeps_the_positivity_check(self, monkeypatch):
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        original = clusteralg.seed.exchange_binomial
        monkeypatch.setattr(
            clusteralg.seed, "exchange_binomial", lambda seed, k: -original(seed, k)
        )
        # The root's expansions are the interned variables, so take another host.
        host = atlas.clusters[1]
        outside = next(v for v in range(len(atlas.variables)) if v not in host)
        with pytest.raises(PositivityError):
            atlas.expand(outside, host)

    def test_variables_are_interned_once(self, a2_trivial):
        a = a2_trivial
        assert a.variables.index(LaurentPoly.parse("x1^-1*x2 + x1^-1", 2, 0)) == 2
        assert LaurentPoly.parse("x1 + x2", 2, 0) not in a.variables
        assert len(set(a.variables)) == len(a.variables)

    # Setting y -> 1 sends principal expansions to trivial ones, and
    # positivity (Gross, Hacking, Keel and Kontsevich, 2018) rules out
    # cancellation: both coefficient choices intern the same variables,
    # store the same clusters and read the same d-vectors.  A re-rooting
    # fault that only principal coefficients hit shows here.
    @pytest.mark.parametrize("name", ["A4", "B3", "C3", "D4", "D5", "F4", "G2"])
    def test_principal_and_trivial_atlases_agree(self, name):
        rows = matrix(*finite_type(name))
        principal, trivial = [
            explore(root_seed(ExchangeMatrix(rows), coefficients))
            for coefficients in ("principal", "trivial")
        ]
        n = principal.n

        def erased(p: LaurentPoly) -> LaurentPoly:  # y -> 1
            terms: dict[tuple[int, ...], int] = {}
            for key, a in p.terms.items():
                terms[key[:n]] = terms.get(key[:n], 0) + a
            return LaurentPoly(n, 0, terms)

        assert principal.clusters == trivial.clusters
        assert list(map(erased, principal.variables)) == trivial.variables
        for c in principal.clusters:
            assert principal.d_vectors(c) == trivial.d_vectors(c)
            for v in range(len(trivial.variables)):
                assert erased(principal.expand(v, c)) == trivial.expand(v, c)


# ----------------------------------------------------------------------
# cluster membership


class TestClusterMembership:
    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            (A4_ROWS, "trivial", ExploreCaps()),
            (D4_ROWS, "trivial", ExploreCaps()),
            (A3_ROWS, "principal", ExploreCaps()),
            (KRONECKER_2_ROWS, "trivial", ExploreCaps(max_depth=6)),
            (A4_ROWS, "trivial", ExploreCaps(max_seeds=20)),
        ],
    )
    def test_groups_match_the_discovery_order_scan(
        self, monkeypatch, rows, coefficients, caps
    ):
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients), caps)
        count = len(atlas.variables)
        groups = [atlas.clusters_containing(v) for v in range(count)]
        for v, group in enumerate(groups):
            assert isinstance(group, tuple)
            assert list(group) == [c for c in atlas.clusters if v in c]
        # Grouped once: with the clusters gone, a second call still returns
        # the very same groups.
        monkeypatch.setattr(atlas, "clusters", [])
        assert all(atlas.clusters_containing(v) is groups[v] for v in range(count))
        with pytest.raises(KeyError):
            atlas.clusters_containing(count)


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
        assert ids == variable_ids(a, mutate(a.root, 1))
        assert str(a.expansion(ids[0])) == "x1^-1*x2 + x1^-1"

    def test_table_walk_matches_laurent_walk(
        self, a2_trivial, c2_trivial, g2_trivial, a3_trivial, a3_principal
    ):
        more = [
            explore(root_seed(ExchangeMatrix(rows), "principal"))
            for rows in (B3_ROWS, C3_ROWS, D4_ROWS)
        ]
        given = [a2_trivial, c2_trivial, g2_trivial, a3_trivial, a3_principal]
        for atlas in given + more:
            for I in all_subsets(atlas.n):
                want = laurent_i_reachable(atlas, I)
                assert list(atlas.i_reachable(I).items()) == list(want.items())

    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            (A4_ROWS, "principal", ExploreCaps()),
            (D4_ROWS, "trivial", ExploreCaps()),
            (KRONECKER_2_ROWS, "trivial", ExploreCaps(max_depth=6)),
            (A4_ROWS, "trivial", ExploreCaps(max_seeds=20)),
            (MARKOV_ROWS, "trivial", ExploreCaps(max_depth=3)),
        ],
    )
    def test_first_seed_per_cluster_matches_every_seed_walk(
        self, rows, coefficients, caps
    ):
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients), caps)
        for I in all_subsets(atlas.n):
            want = every_state_i_reachable(atlas, I)
            assert list(atlas.i_reachable(I).items()) == list(want.items())

    def test_walk_steps_one_exact_seed_per_cluster(self, monkeypatch):
        # A later exact seed of the same stored seed and cluster is a
        # permutation of I away from the first, so only the first is
        # stepped.  Stepping every exact seed took 124,330 steps on D5.
        atlas = explore(root_seed(ExchangeMatrix(D5_ROWS), "principal"))
        steps = []
        step = PatternAtlas.mutate_state

        def counted(atlas, state, k):
            steps.append(k)
            return step(atlas, state, k)

        monkeypatch.setattr(PatternAtlas, "mutate_state", counted)
        reach = {I: atlas.i_reachable(I) for I in all_subsets(atlas.n)}
        assert len(steps) <= sum(len(I) * len(r) for I, r in reach.items())

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

    def test_a_broken_edge_table_is_an_engine_fault(self):
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "trivial"))
        corrupt_first_edge(atlas)
        with pytest.raises(RuntimeError, match="seed 0 in direction 1 "):
            atlas.i_reachable((1,))
        # Re-rooting walks the edge table too: an edge it exchanges across
        # must exchange one variable, or the expansion it gives is wrong.
        atlas = explore(root_seed(ExchangeMatrix(A3_ROWS), "principal"))
        corrupt_first_edge(atlas)
        with pytest.raises(RuntimeError, match="seed 0 in direction 1 "):
            for cluster in atlas.clusters:
                atlas.expand(0, cluster)

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
        assert set(degrees(g).values()) == {2}
        assert g.to_dot() == A2_PENTAGON_DOT

    def test_regularity(self, c2_trivial, g2_trivial, a3_trivial):
        for atlas, degree in [(c2_trivial, 2), (g2_trivial, 2), (a3_trivial, 3)]:
            g = atlas.exchange_graph()
            assert set(degrees(g).values()) == {degree}
        assert len(a3_trivial.exchange_graph().edges) == 21

    def test_to_text(self, a2_trivial):
        text = a2_trivial.exchange_graph().to_text()
        lines = text.splitlines()
        assert lines[0] == "vertices: 5"
        assert lines[1] == "edges: 5"
        assert "{0,1} -- {1,2}" in lines

    def test_equal_graphs_have_no_difference(self, a2_trivial):
        g = a2_trivial.exchange_graph()
        assert graph_difference(g, a2_trivial.exchange_graph()) == ""

    def test_vertex_difference_is_reported(self, a2_trivial, c2_trivial):
        g1 = a2_trivial.exchange_graph()
        g2 = c2_trivial.exchange_graph()
        assert graph_difference(g1, g2) == "vertex {3,4} only in first graph"
        fewer = ExchangeGraph(g1.vertices[:-1], ())
        assert graph_difference(fewer, g1) == "vertex {3,4} only in second graph"

    def test_edge_difference_is_reported(self, a2_trivial):
        g1 = a2_trivial.exchange_graph()
        g2 = ExchangeGraph(g1.vertices, g1.edges[1:])
        assert graph_difference(g1, g2) == "edge {0,1} -- {0,3} only in first graph"
        assert graph_difference(g2, g1) == "edge {0,1} -- {0,3} only in second graph"

    def test_incomplete_atlas_graph_writes_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graph = infinite_rank2().exchange_graph()
        # The Kronecker exchange graph is a line.
        assert len(graph.edges) == len(graph.vertices) - 1 == 11


# ----------------------------------------------------------------------
# serialization and determinism


class TestSerialization:
    def test_json_shape(self, a2_trivial):
        d = json.loads(a2_trivial.to_json())
        assert d["n"] == 2
        assert d["m"] == 0
        assert d["coefficients"] == "trivial"
        assert d["complete"] is True
        assert d["root_b"] == A2_ROWS
        assert d["variables"] == A2_VARIABLES
        assert d["clusters"] == [[0, 1], [1, 2], [0, 3], [2, 4], [3, 4]]
        assert len(d["seeds"]) == 5
        assert d["seeds"][0] == {
            "path": [],
            "b": A2_ROWS,
            "y": [[], []],
            "variables": [0, 1],
        }
        assert len(d["edges"]) == 10

    @pytest.mark.parametrize(
        "rows, coefficients, caps",
        [
            (A1_ROWS, "principal", ExploreCaps()),
            (A1_ROWS, "trivial", ExploreCaps()),
            (D4_ROWS, "principal", ExploreCaps()),
            (A4_ROWS, "trivial", ExploreCaps(max_seeds=20)),
            ([[0, 12], [-12, 0]], "trivial", ExploreCaps(max_depth=2)),
            *[
                (rows, coefficients, ExploreCaps())
                for rows in (A2_ROWS, C2_ROWS, G2_ROWS, A3_ROWS)
                for coefficients in ("trivial", "principal")
            ],
            (A4_ROWS, "principal", ExploreCaps(max_seeds=1)),
            (A2_ROWS, "trivial", ExploreCaps(max_depth=0)),
            (KRONECKER_2_ROWS, "principal", ExploreCaps(max_depth=6)),
            (MARKOV_ROWS, "trivial", ExploreCaps(max_depth=3)),
        ],
    )
    def test_writer_matches_json_dumps(self, rows, coefficients, caps):
        atlas = explore(root_seed(ExchangeMatrix(rows), coefficients), caps)
        d = json_document(atlas)
        text = atlas.to_json()
        assert text == json.dumps(d, indent=2, sort_keys=True) + "\n"
        assert json.loads(text) == d
        if caps.max_depth == 0:
            assert d["edges"] == []

    def test_exploration_is_deterministic(self):
        runs = [
            explore(root_seed(ExchangeMatrix(C2_ROWS), "trivial")).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].endswith("\n")

    def test_incomplete_atlas_is_marked(self):
        d = json.loads(infinite_rank2().to_json())
        assert d["complete"] is False
        assert d["caps"]["max_seeds"] == 12


# ----------------------------------------------------------------------
# stored exchange relations, checked by product


def tuple_keyed(p: LaurentPoly) -> LaurentPoly:
    """p on tuple keys alone, so that products run in the tuple-key kernel."""
    return LaurentPoly(p.n, p.m, p.terms)


def exchange_relation(seed: Seed, k: int) -> LaurentPoly:
    """The exchange binomial of a seed in direction k, multiplied out on
    tuple keys: [y_k]+ times the powers of the positive column entries plus
    [-y_k]+ times those of the negative ones."""
    n, m = seed.n, seed.m
    total = LaurentPoly.zero(n, m)
    for sign in (1, -1):
        y = tuple(max(sign * e, 0) for e in seed.y[k - 1])
        side = LaurentPoly(n, m, {(0,) * n + y: 1})
        for row, x_i in zip(seed.b.rows, seed.x):
            if sign * row[k - 1] > 0:
                side = side * tuple_keyed(x_i) ** (sign * row[k - 1])
        total = total + side
    return total


@pytest.mark.parametrize(
    "rows, coefficients, depth",
    [
        (matrix(family, n), coefficients, 64)
        for family, n in [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6),
                          ("B", 3), ("C", 3), ("D", 4)]
        for coefficients in ("trivial", "principal")
    ]
    + [
        (D5_ROWS, "trivial", 64),
        (KRONECKER_2_ROWS, "principal", 11),
        (KRONECKER_3_ROWS, "trivial", 4),
        (MARKOV_ROWS, "trivial", 4),
    ],
)
def test_every_stored_edge_satisfies_its_exchange_relation(rows, coefficients, depth):
    # Each stored edge (s, k, t), computed or written as a reverse edge,
    # claims x_{s,k} * x_{t,new} = s's exchange binomial.  Checked by one
    # product on tuple keys: no division, no packed layout.
    atlas = explore(root_seed(ExchangeMatrix(rows), coefficients), ExploreCaps(max_depth=depth))
    ids = atlas.seed_variable_ids
    assert atlas.edges
    for (s, k), t in atlas.edges.items():
        (new,) = set(ids[t]).difference(ids[s])
        old = atlas.variables[ids[s][k - 1]]
        product = tuple_keyed(old) * tuple_keyed(atlas.variables[new])
        assert product == exchange_relation(atlas.seeds[s], k), (s, k, t)


@pytest.mark.parametrize(
    "rows, coefficients, depth",
    [
        (D5_ROWS, "principal", 64),
        (KRONECKER_2_ROWS, "principal", 11),
        (KRONECKER_3_ROWS, "trivial", 4),
        (MARKOV_ROWS, "trivial", 4),
    ],
)
def test_widening_the_layout_midway_changes_no_atlas(
    rows, coefficients, depth, monkeypatch
):
    # The layout that holds an atlas's variables starts narrow and widens,
    # packing them all again, when an exchange's exponent bound does not
    # fit; started wide enough never to widen, it gives the same atlas.
    layout_class = clusteralg.laurent.PackedLayout
    widened = []  # the number of held polynomials at each widening
    fit = layout_class.fit

    def recorded(layout, bound):
        width = layout.keys.width
        fit(layout, bound)
        if layout.keys.width != width:
            widened.append(len(layout.held))

    monkeypatch.setattr(layout_class, "fit", recorded)
    root = root_seed(ExchangeMatrix(rows), coefficients)
    caps = ExploreCaps(max_depth=depth)
    narrow = explore(root, caps)
    assert max(widened) > narrow.n  # after exploration held a new variable
    init = layout_class.__init__

    def wide(layout, count):
        init(layout, count)
        layout.keys = clusteralg.laurent._PackedKeys(64, count)

    monkeypatch.setattr(layout_class, "__init__", wide)
    widened.clear()
    atlas = explore(root, caps)
    assert widened == []
    assert atlas.to_json() == narrow.to_json()
