"""Exploration of a cluster pattern from a root seed, with caps.

The atlas stores one representative per seed class, where two seeds are
identified when a simultaneous permutation of positions (applied to the
variables, the coefficients, and the rows and columns of B) carries one
to the other.  Variables are interned by their root expansion: two
cluster variables are the same element iff their expansions are
structurally equal Laurent polynomials.  Clusters are sorted tuples of
variable ids.

Exploration is breadth-first with a deterministic order: each level's
newly discovered classes are stored sorted by canonical seed key, so the
serialized atlas never depends on hashing or scheduling.  Caps bound the
store size and the search depth; hitting either leaves ``complete``
false, which downstream verification refuses rather than guessing.

Each exchange edge is mutated once.  Mutation is an involution, so the
edge from s in direction k to stored seed t also names t's edge back to
s: the direction is the position, in t, of the variable the mutation
made.  That reverse edge is written, with no arithmetic, when t's level
runs, and a reverse edge that contradicts a computed one is an engine
fault.

Expansions with respect to an arbitrary stored cluster are computed by
re-rooting, all of the cluster's at once.  The host seed's variables become
unit variables, ranked by id: the one with the r-th smallest id is x_r, so
every expansion is in ascending-id coordinates and none is permuted
afterwards.  The walk then crosses the discovery tree, read as an undirected
tree, breadth first outward from the host.  A stored child keeps its
parent's positions, so the edge between them is direction k = the child's
last path step at both ends, and the two seeds differ only in the variable
at position k.  Crossing from u to w exchanges once, at u's stored B and y
with the expansions of u's variables, only when w's k-th variable is still
unknown.  So a host costs exactly (variables - n) exchanges and no matrix
or coefficient mutation.

Walks that only need to know which variables a seed holds do no
arithmetic at all.  An exact seed (positions intact) is the pair of its
stored seed id and its variable ids by position, and the edge table
mutates it by lookup: each entry stands for a mutation computed, and
positivity-checked, during exploration, or for its inverse.  Restricted
reachability and cross-atlas identification are such walks.

The JSON export is ``to_json_dict()`` written by a small writer that gives
exactly the text of ``json.dumps(indent=2, sort_keys=True)``, each list of
ints in one join, which the standard library's indented encoder does one
item at a time in pure Python.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .laurent import LaurentPoly
# mutate_path is not called here.  perfbench/tracer.py patches the name
# clusteralg.atlas.mutate_path, and tests/test_benchmark_contract.py checks
# that every name the tracer patches resolves.
from .seed import Seed, exchange, mutate, mutate_path  # noqa: F401

Cluster = tuple[int, ...]
# An exact seed, positions intact: (stored seed id, variable ids by position).
State = tuple[int, tuple[int, ...]]


class IncompleteAtlasError(RuntimeError):
    """An operation that quantifies over all clusters got a capped atlas."""


@dataclass(frozen=True)
class ExploreCaps:
    max_seeds: int = 10000
    max_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_seeds < 1 or self.max_depth < 0:
            raise ValueError("caps must be positive")


def _canonical_seed_key(seed: Seed) -> tuple:
    """Canonical form under simultaneous position permutation."""
    xs = [p.sort_key() for p in seed.x]
    if len(xs) == 1:  # itemgetter of one index returns the item, not a tuple
        return (tuple(xs), seed.y, seed.b.rows)
    pick = itemgetter(*sorted(range(len(xs)), key=xs.__getitem__))
    return (pick(xs), pick(seed.y), tuple(map(pick, pick(seed.b.rows))))


class PatternAtlas:
    """Deduplicated closure of mutation from a root seed.

    Public data: ``seeds`` (store order; index 0 is the root with an
    empty path), ``variables`` (interning table, id = index),
    ``seed_variable_ids`` (per seed, variable ids by position),
    ``clusters`` (discovery order), ``cluster_to_seed``, ``edges``
    (mapping (seed index, direction) to seed index), ``complete``.
    """

    def __init__(self, root: Seed, caps: ExploreCaps | None = None):
        self.caps = caps or ExploreCaps()
        root = Seed(root.b, root.y, root.x, path=())
        self.root = root
        self.n = root.n
        self.m = root.m
        self.coefficients = _classify_coefficients(root)
        self.seeds: list[Seed] = []
        self.variables: list[LaurentPoly] = []
        self._var_ids: dict[LaurentPoly, int] = {}
        self.seed_variable_ids: list[Cluster] = []
        self.clusters: list[Cluster] = []
        self.cluster_to_seed: dict[Cluster, int] = {}
        self.edges: dict[tuple[int, int], int] = {}
        self._seed_keys: dict[tuple, int] = {}
        self._expand_cache: dict[Cluster, dict[int, LaurentPoly]] = {}
        self._ireach_cache: dict[frozenset, dict[Cluster, tuple[int, ...]]] = {}
        self.derived: dict = {}
        self._store_seed(root, _canonical_seed_key(root))
        self.complete = self._explore()

    # ------------------------------------------------------------------
    # construction

    def _store_seed(self, seed: Seed, key: tuple) -> int:
        sid = len(self.seeds)
        self.seeds.append(seed)
        self._seed_keys[key] = sid
        ids = []
        for p in seed.x:
            vid = self._var_ids.get(p)
            if vid is None:
                vid = len(self.variables)
                self.variables.append(p)
                self._var_ids[p] = vid
            ids.append(vid)
        self.seed_variable_ids.append(tuple(ids))
        cluster = tuple(sorted(ids))
        if cluster not in self.cluster_to_seed:
            self.clusters.append(cluster)
            self.cluster_to_seed[cluster] = sid
        return sid

    def _explore(self) -> bool:
        n = self.n
        truncated = False
        # Mutation is an involution, so each computed edge (s, k) -> t also
        # gives t's edge back to s.  Those reverse edges wait here until t's
        # level runs: a seed cap can stop exploration before then, and a
        # seed whose level never ran stores no edges.
        reverse: dict[tuple[int, int], int] = {}

        def link(sid: int, k: int, target: int, child: Seed) -> None:
            # child = mutate(seeds[sid], k); target mutated at the position
            # of child's new variable is sid again.
            self.edges[(sid, k)] = target
            new = self._var_ids[child.x[k - 1]]
            edge = (target, self.seed_variable_ids[target].index(new) + 1)
            for known in (self.edges.get(edge), reverse.get(edge)):
                if known is not None and known != sid:
                    raise RuntimeError(
                        f"seed {target} in direction {edge[1]} reaches seed "
                        f"{known}, but mutation is an involution and seed "
                        f"{sid} in direction {k} reaches seed {target}"
                    )
            reverse[edge] = sid

        level = [0]
        while level:
            candidates: list[tuple[tuple, Seed, int, int]] = []
            for sid in level:
                seed = self.seeds[sid]
                for k in range(1, n + 1):
                    back = reverse.pop((sid, k), None)
                    if back is not None:
                        self.edges[(sid, k)] = back
                        continue
                    child = mutate(seed, k)
                    key = _canonical_seed_key(child)
                    target = self._seed_keys.get(key)
                    if target is not None:
                        link(sid, k, target, child)
                    else:
                        candidates.append((key, child, sid, k))
            if not candidates:
                break
            depth = len(self.seeds[level[0]].path) + 1
            next_level: list[int] = []
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
                    link(sid, k, target, child)
                else:
                    truncated = True
            if truncated and len(self.seeds) >= self.caps.max_seeds:
                break
            level = next_level
        return not truncated

    # ------------------------------------------------------------------
    # lookups

    def variable_id(self, p: LaurentPoly) -> int | None:
        """Id of a variable given by its root expansion, or None."""
        return self._var_ids.get(p)

    def expansion(self, v: int) -> LaurentPoly:
        return self.variables[v]

    def clusters_containing(self, v: int) -> list[Cluster]:
        """Clusters through a variable, in atlas discovery order."""
        self.require_variable(v)
        return [c for c in self.clusters if v in c]

    def require_variable(self, v: int) -> None:
        if not 0 <= v < len(self.variables):
            raise KeyError(f"variable id {v} is not in the atlas")

    def normalize_cluster(self, cluster: Iterable[int]) -> Cluster:
        c = tuple(sorted(cluster))
        if c not in self.cluster_to_seed:
            raise KeyError(f"cluster {c} is not in the atlas")
        return c

    # ------------------------------------------------------------------
    # expansions by re-rooting

    def expand(self, v: int, cluster: Iterable[int]) -> LaurentPoly:
        """Laurent expansion of variable v in the coordinates of a stored
        cluster, ordered by ascending variable id.  The first call for a
        cluster computes and keeps the expansions of every variable."""
        self.require_variable(v)
        c = self.normalize_cluster(cluster)
        known = self._expand_cache.get(c)
        if known is not None:
            return known[v]
        n, m = self.n, self.m
        known = {u: LaurentPoly.variable(n, m, r) for r, u in enumerate(c, 1)}
        seeds, ids = self.seeds, self.seed_variable_ids
        # The discovery tree, undirected: each stored seed but the root is
        # joined to its parent, the stored seed at its path less the last
        # step k, by direction k.
        at = {s.path: sid for sid, s in enumerate(seeds)}
        near: list[list[tuple[int, int]]] = [[] for _ in seeds]
        for w, s in enumerate(seeds[1:], 1):
            u, k = at[s.path[:-1]], s.path[-1]
            near[u].append((w, k))
            near[w].append((u, k))
        # Breadth first from the host, so each variable is exchanged at a
        # seed nearest the host.  Expansions tend to grow with that distance:
        # walking down from the root instead made E6 degree-properties 2.5
        # times slower.
        walked = [(self.cluster_to_seed[c], -1)]  # (seed, seed walked from)
        count = len(self.variables)
        for u, came_from in walked:
            if len(known) == count:
                break
            for w, k in near[u]:
                if w == came_from:
                    continue
                walked.append((w, u))
                new = ids[w][k - 1]
                if new not in known:
                    seed = Seed(seeds[u].b, seeds[u].y, [known[i] for i in ids[u]])
                    known[new] = exchange(seed, k)
        self._expand_cache[c] = known
        return known[v]

    # ------------------------------------------------------------------
    # table walks over exact seeds

    def mutate_state(self, state: State, k: int) -> State | None:
        """Exact seed ``(stored seed id, variable ids by position)`` mutated
        in direction k by lookup: the stored seed's position of the k-th
        variable names the edge, and the new variable is the one id of the
        target seed not already held.  None when the edge leaves a capped
        atlas; on a complete atlas every edge is stored, so a missing one
        means exploration is broken."""
        sid, ids = state
        position = self.seed_variable_ids[sid].index(ids[k - 1])
        target = self.edges.get((sid, position + 1))
        if target is None:
            if self.complete:
                raise RuntimeError(
                    f"seed {sid} has no edge in direction {k} on a complete "
                    f"atlas; exploration is broken"
                )
            return None
        (new,) = set(self.seed_variable_ids[target]).difference(ids)
        return target, ids[: k - 1] + (new,) + ids[k:]

    def i_reachable(self, subset: Iterable[int]) -> dict[Cluster, tuple[int, ...]]:
        """Clusters reachable from the root seed by mutations confined to
        the given directions, each mapped to the variable ids by position
        of the first exact seed realizing it.

        The breadth-first walk runs over exact seeds, not permutation
        classes, because direction labels are positional; every step is a
        ``mutate_state`` lookup.  On a capped atlas the answer is the
        clusters reachable over stored edges, so a negative answer only
        means "not found within caps".
        """
        key = frozenset(subset)
        if any(not 1 <= i <= self.n for i in key):
            raise ValueError(f"directions {sorted(key)} out of range 1..{self.n}")
        cached = self._ireach_cache.get(key)
        if cached is not None:
            return cached
        root = (0, self.seed_variable_ids[0])
        seen = {root}
        out = {tuple(sorted(root[1])): root[1]}
        frontier = [root]
        directions = sorted(key)
        while frontier:
            nxt = []
            for state in frontier:
                for k in directions:
                    child = self.mutate_state(state, k)
                    if child is None or child in seen:
                        continue
                    seen.add(child)
                    out.setdefault(tuple(sorted(child[1])), child[1])
                    nxt.append(child)
            frontier = nxt
        self._ireach_cache[key] = out
        return out

    # ------------------------------------------------------------------
    # exchange graph

    def exchange_graph(self) -> "ExchangeGraph":
        if not self.complete:
            warnings.warn(
                "exchange graph of an incomplete atlas may be a proper subgraph",
                stacklevel=2,
            )
        vertices = tuple(sorted(self.clusters))
        n = self.n
        edges = []
        for i, a in enumerate(vertices):
            sa = set(a)
            for b in vertices[i + 1:]:
                if len(sa.intersection(b)) == n - 1:
                    edges.append((a, b))
        return ExchangeGraph(self, vertices, tuple(edges))

    # ------------------------------------------------------------------
    # export

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "coefficients": self.coefficients,
            "complete": self.complete,
            "caps": {
                "max_seeds": self.caps.max_seeds,
                "max_depth": self.caps.max_depth,
            },
            "root_b": [list(row) for row in self.root.b.rows],
            "variables": [str(p) for p in self.variables],
            "clusters": [list(c) for c in self.clusters],
            "seeds": [
                {
                    "path": list(s.path),
                    "b": [list(row) for row in s.b.rows],
                    "y": [list(t) for t in s.y],
                    "variables": list(self.seed_variable_ids[i]),
                }
                for i, s in enumerate(self.seeds)
            ],
            "edges": sorted(
                [sid, k, tid] for (sid, k), tid in self.edges.items()
            ),
        }

    def to_json(self) -> str:
        text = _IntText().__getitem__
        return _json_text(self.to_json_dict(), "\n", text) + "\n"


class _IntText(dict):
    """``str`` of each int, computed once per export."""

    def __missing__(self, i: int) -> str:
        text = self[i] = str(i)
        return text


_INT_ONLY = frozenset({int})


def _json_text(value: object, newline: str, text: Callable[[int], str]) -> str:
    """``value`` as ``json.dumps(value, indent=2, sort_keys=True)`` writes
    it, ``newline`` being the line break and indentation it is nested at
    and ``text`` rendering ints.  Only dict, list, str, bool and int are
    written; a list of ints is written in one join."""
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = newline + "  "
        if _INT_ONLY.issuperset(map(type, value)):
            items = map(text, value)
        else:
            items = [_json_text(v, inner, text) for v in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner, text)}"
            for key in sorted(value)
        ]
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return text(value)
    raise TypeError(f"{type(value).__name__} is not written as JSON")


def _classify_coefficients(root: Seed) -> str:
    if root.m == 0:
        return "trivial"
    n = root.n
    if root.m == n and all(
        root.y[i] == tuple(int(j == i) for j in range(n))
        for i in range(n)
    ):
        return "principal"
    return "custom"


def explore(root: Seed, caps: ExploreCaps | None = None) -> PatternAtlas:
    """Breadth-first mutation closure from a root seed; see PatternAtlas."""
    return PatternAtlas(root, caps)


def _format_cluster(c: Cluster) -> str:
    return "{" + ",".join(str(v) for v in c) + "}"


@dataclass(frozen=True)
class ExchangeGraph:
    """Graph on clusters, an edge joining clusters sharing n-1 variables.

    ``table`` identifies the interning table whose variable ids label
    the vertices; graphs over different tables cannot be compared until
    one is relabeled.
    """

    table: object
    vertices: tuple[Cluster, ...]
    edges: tuple[tuple[Cluster, Cluster], ...]

    def relabeled(self, mapping: Mapping[int, int], table: object) -> "ExchangeGraph":
        """Apply a variable-id mapping to every label, re-sorting."""

        def conv(c: Cluster) -> Cluster:
            return tuple(sorted(mapping[v] for v in c))

        vertices = tuple(sorted(conv(c) for c in self.vertices))
        edges = tuple(sorted(tuple(sorted((conv(a), conv(b)))) for a, b in self.edges))
        return ExchangeGraph(table, vertices, edges)

    def degrees(self) -> dict[Cluster, int]:
        out = {c: 0 for c in self.vertices}
        for a, b in self.edges:
            out[a] += 1
            out[b] += 1
        return out

    def to_dot(self) -> str:
        names = {c: f"c{i}" for i, c in enumerate(self.vertices)}
        lines = ["graph exchange {"]
        for c in self.vertices:
            lines.append(f'  {names[c]} [label="{_format_cluster(c)}"];')
        for a, b in self.edges:
            lines.append(f"  {names[a]} -- {names[b]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [
            f"vertices: {len(self.vertices)}",
            f"edges: {len(self.edges)}",
        ]
        lines.extend(
            f"{_format_cluster(a)} -- {_format_cluster(b)}" for a, b in self.edges
        )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GraphComparison:
    equal: bool
    detail: str

    def __bool__(self) -> bool:
        return self.equal


def graphs_equal(g1: ExchangeGraph, g2: ExchangeGraph) -> GraphComparison:
    """Equality as labeled graphs; reports the first differing vertex or edge.

    Raises ValueError when the graphs label vertices from different
    interning tables, since id equality would then be meaningless.
    """
    if g1.table is not g2.table:
        raise ValueError(
            "graphs label clusters from different variable tables; relabel first"
        )
    v1, v2 = set(g1.vertices), set(g2.vertices)
    if v1 != v2:
        only1 = sorted(v1 - v2)
        only2 = sorted(v2 - v1)
        if only1:
            return GraphComparison(
                False, f"vertex {_format_cluster(only1[0])} only in first graph"
            )
        return GraphComparison(
            False, f"vertex {_format_cluster(only2[0])} only in second graph"
        )
    e1, e2 = set(g1.edges), set(g2.edges)
    if e1 != e2:
        only1 = sorted(e1 - e2)
        only2 = sorted(e2 - e1)
        if only1:
            a, b = only1[0]
            return GraphComparison(
                False,
                f"edge {_format_cluster(a)} -- {_format_cluster(b)} only in first graph",
            )
        a, b = only2[0]
        return GraphComparison(
            False,
            f"edge {_format_cluster(a)} -- {_format_cluster(b)} only in second graph",
        )
    return GraphComparison(True, "")
