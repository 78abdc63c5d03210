"""Exploration of a cluster pattern from a root seed, with caps.

The atlas stores one representative per seed class, where two seeds are
identified when a simultaneous permutation of positions (applied to the
variables, the coefficients, and the rows and columns of B) carries one
to the other.  Variables are interned by their root expansion: two
cluster variables are the same element iff their expansions are
structurally equal Laurent polynomials.  Clusters are sorted tuples of
variable ids.

Exploration is breadth-first with a deterministic order.  A child is its
variable ids, B and y, keyed by its ids ascending with B and y in that
order; a variable new to its level has a token, -1 - i for the level's
i-th new polynomial, so its child matches no stored seed.  Each new class
gets a Seed and is stored in polynomial key order, so the serialized
atlas never depends on hashing or scheduling.  Caps bound the store size
and the search depth; hitting either leaves ``complete`` false, which
downstream verification refuses rather than guessing.

Each exchange edge is mutated once.  Mutation is an involution, so the
edge from s in direction k to stored seed t also names t's edge back to
s: the direction is the position, in t, of the variable the mutation
made.  That reverse edge is written, with no arithmetic, when t's level
runs, and a reverse edge that contradicts a computed one is an engine
fault.

Each distinct exchange is computed once per exploration.  The new
variable depends only on x_k, y_k and the x_i with b_ik != 0, with their
exponents b_ik, so exploration keeps the id (or token) of each one it
computes under those inputs, read in the seed's ascending-id order, and
another edge with those inputs mutates only B and y.  In finite type most
edges do: A6 has 1,287 exchange edges and 126 distinct exchanges.  A kept
variable was checked for exact division and positivity when computed.

The last level a depth cap allows stores no child, so a child there counts
only if it lands on a stored seed.  Its cluster would hold the seed's other
n - 1 variables and differ from the seed's, as the new variable is not x_k.
So that level skips each exchange whose (n - 1)-subset lies in no other
stored cluster, which only leaves the atlas incomplete.  The clusters are
grouped by (n - 1)-subsets once, when the last level starts or for the
first exchange graph; no seed is stored after either.  Likewise the first
``clusters_containing`` call groups them by variable, in discovery order,
and every "do x and z share a cluster" question reads those groups.

Expansions with respect to an arbitrary stored cluster are computed by
re-rooting, all of the cluster's at once.  The host seed's variables become
unit variables, ranked by id: the one with the r-th smallest id is x_r, so
every expansion is in ascending-id coordinates and none is permuted
afterwards.  The walk then crosses the edge table breadth first outward
from the host.  Crossing from u in direction k to w exchanges once, at u's
stored B and y with the expansions of u's variables, only when w holds an
unknown variable, and then w must hold u's others.  ``tree`` keeps each
seed's parent and direction: a child keeps its parent's positions, so that
edge read backwards is the one edge of a seed whose level never ran.

The root needs no walk when its variables are the units x_1..x_n in
position order, as ``root_seed`` makes them: its expansions are then the
interned variables.  Any other root is expanded like any other host.

Under trivial coefficients most hosts take their expansions from a twin
instead: an expanded host g whose B is the host h's under a simultaneous
permutation pi of positions.  The field map x_{g,pi(p)} -> x_{h,p}
commutes with mutation (Assem, Schiffler and Shramchenko, "Cluster
automorphisms", 2012), so it carries each expansion at g to the one at h;
any pi gives the same, as an expansion is unique.  The exchange binomial is
then symmetric in its two monomials, so a g whose B is -B_h under pi serves
too.  ``carry`` steps g's exact seed, aligned to h's positions, from h
over the tree until the map sigma of variables it gives names every one; h
then relabels g's expansions, which g checked for positivity.  Such a sigma
is a cluster automorphism, direct or inverse, kept to serve with no walk
each later host whose cluster it carries to an expanded one.  On a capped
atlas a walk can leave the store; what it leaves unnamed is exchanged.
D-vector tables travel the same way: ``d_vectors`` permutes the table of
the cluster a kept sigma carries h's to, else reads expansions, so E6's
degree sweep expands 45 of its 833 hosts and walks 9 times.  Twins are
sought only under trivial coefficients: with coefficients pi must carry g's
y to h's too, and under principal coefficients no two stored seeds agree so
(E6's 833 hosts fill 833 one-host buckets).  Seeds with other coefficients,
which only code builds, exchange at every host.  The witness search reads
a cluster through ``_expansions_at``, which hands over a served cluster's
image expansions with sigma and the coordinate pick instead of a copy.

Walks that only need to know which variables a seed holds do no
arithmetic at all.  An exact seed (positions intact) is the pair of its
stored seed id and its variable ids by position, and the edge table
mutates it by lookup: each entry stands for a mutation computed, and
positivity-checked, during exploration, or for its inverse.  Restricted
reachability is such a walk, stepping one exact seed per stored seed and
cluster (``i_reachable`` says why), and so is ``carry``, which gives twins
their variable maps.  ``carry`` climbs the discovery tree's parent entries
from the host to the root and goes down them in store order, so it steps
into each stored seed at most once.  Cross-atlas identification walks
nothing: it matches expansions (see ``unistructure``).

``to_json`` writes the text of ``json.dumps(indent=2, sort_keys=True)``
straight from the atlas's tuples, with no nested-list copy for an encoder
to walk item by item: each distinct row of the seeds' B and y is written
once, each path from its parent's, and the whole in one format call.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator

from .laurent import LaurentPoly
from .seed import ExchangeMatrix, Rows, Seed, exchange, matching_permutations
# mutate_path is not called here; perfbench/tracer.py patches it.
from .seed import mutate, mutate_path, mutate_rows  # noqa: F401

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
        if self.max_seeds < 1:
            raise ValueError(f"max_seeds must be at least 1, got {self.max_seeds}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be at least 0, got {self.max_depth}")


def _exchange_input(seed: Seed, ids: Cluster, order: list[int], k: int) -> tuple:
    """All that ``exchange`` reads in direction k, variables by id: x_k,
    y_k, and the (x_i, b_ik) with b_ik != 0, i in ``order``, ascending id."""
    kk, rows = k - 1, seed.b.rows
    column = tuple([(ids[p], b) for p in order if (b := rows[p][kk])])
    return ids[kk], seed.y[kk], column


def _class_key(labels: tuple, rows: Rows, y: Rows) -> tuple:
    """A seed's form under simultaneous position permutation: its distinct
    labels ascending, with y and B's rows and columns in that order."""
    if len(labels) == 1:  # itemgetter of one index returns the item, not a tuple
        return (labels, y, rows)
    pick = itemgetter(*sorted(range(len(labels)), key=labels.__getitem__))
    return (pick(labels), pick(y), tuple(map(pick, pick(rows))))


def _canonical_seed_key(seed: Seed) -> tuple:
    """``_class_key`` by polynomial sort keys, which order new classes."""
    return _class_key(tuple([p.sort_key() for p in seed.x]), seed.b.rows, seed.y)


class PatternAtlas:
    """Deduplicated closure of mutation from a root seed.

    Public data: ``seeds`` (store order; index 0 is the root),
    ``variables`` (interning table, id = index), ``seed_variable_ids``
    (per seed, variable ids by position), ``clusters`` (discovery order),
    ``cluster_to_seed``, ``edges`` (mapping (seed index, direction) to
    seed index), ``tree`` (the discovery tree: per seed, the (seed index,
    direction) it was made from, None for the root), ``complete``;
    ``path(sid)`` replays the tree from the root.
    """

    def __init__(self, root: Seed, caps: ExploreCaps | None = None):
        self.caps = caps or ExploreCaps()
        self.root = root
        self.n = root.n
        self.m = root.m
        self.coefficients = _classify_coefficients(root)
        self.seeds: list[Seed] = []
        self.variables: list[LaurentPoly] = list(root.x)
        self._var_ids = {p: i for i, p in enumerate(root.x)}
        self.seed_variable_ids: list[Cluster] = []
        self.clusters: list[Cluster] = []
        self.cluster_to_seed: dict[Cluster, int] = {}
        self.edges: dict[tuple[int, int], int] = {}
        self.tree: list[tuple[int, int] | None] = []
        self._seed_keys: dict[tuple, int] = {}
        self._expand_cache: dict[Cluster, dict[int, LaurentPoly]] = {}
        self._d_vectors: dict[Cluster, tuple[tuple[int, ...], ...]] = {}
        # Hosts expanded by exchanges, by a shape that position permutations
        # keep: the sorted rows of B, each sorted.
        self._twins: dict[tuple, list[int]] = {}
        # Cluster automorphisms: the twin maps that named every variable.
        self._automorphisms: list[dict[int, int]] = []
        self._by_face: dict[Cluster, list[Cluster]] | None = None
        self._by_variable: list[tuple[Cluster, ...]] | None = None
        self.derived: dict = {}
        self._store_seed(root, tuple(range(self.n)), None)
        self.complete = self._explore()

    # ------------------------------------------------------------------
    # construction

    def _store_seed(self, seed: Seed, ids: Cluster, parent: tuple | None) -> int:
        # parent: the (seed, direction) made from, if any; the tree's writer.
        sid = len(self.seeds)
        self.tree.append(parent)
        key = _class_key(ids, seed.b.rows, seed.y)
        self._seed_keys[key] = sid
        self.seeds.append(seed)
        self.seed_variable_ids.append(ids)
        cluster = key[0]
        if cluster not in self.cluster_to_seed:
            self.clusters.append(cluster)
            self.cluster_to_seed[cluster] = sid
        return sid

    def _explore(self) -> bool:
        n, caps = self.n, self.caps
        truncated = False
        # Reverse edges awaiting their seed's level; see the module.
        reverse: dict[tuple[int, int], int] = {}
        # Each exchange's new variable id (or token), by its input.
        exchanged: dict[tuple, int] = {}

        def link(sid: int, k: int, target: int, new: int) -> None:
            # target mutated at new's position is sid again.
            self.edges[sid, k] = target
            edge = (target, self.seed_variable_ids[target].index(new) + 1)
            for known in (self.edges.get(edge), reverse.get(edge)):
                if known is not None and known != sid:
                    raise RuntimeError(
                        f"seed {target} in direction {edge[1]} reaches seed "
                        f"{known}, but mutation is an involution and seed "
                        f"{sid} in direction {k} reaches seed {target}"
                    )
            reverse[edge] = sid

        level, depth = [0], 0
        while level:
            # The last level skips what cannot land; see the module docstring.
            faces = self._faces() if depth == caps.max_depth else None
            candidates = []
            tokens: dict[LaurentPoly, int] = {}  # the i-th has token -1 - i
            for sid in level:
                seed = self.seeds[sid]
                ids = self.seed_variable_ids[sid]
                order = sorted(range(n), key=ids.__getitem__)
                for k in range(1, n + 1):
                    back = reverse.pop((sid, k), None)
                    if back is not None:
                        self.edges[sid, k] = back
                        continue
                    if faces is not None:
                        face = tuple(sorted(ids[: k - 1] + ids[k:]))
                        if len(faces[face]) == 1:  # the seed's own cluster
                            truncated = True
                            continue
                    given = _exchange_input(seed, ids, order, k)
                    new = exchanged.get(given)
                    if new is None:
                        child = mutate(seed, k)
                        p = child.x[k - 1]
                        new = self._var_ids.get(p)
                        if new is None:
                            new = tokens.setdefault(p, -1 - len(tokens))
                        exchanged[given] = new
                        rows, y = child.b.rows, child.y
                    else:
                        rows, y = mutate_rows(seed.b.rows, seed.y, k)
                    child_ids = ids[: k - 1] + (new,) + ids[k:]
                    key = _class_key(child_ids, rows, y)
                    target = self._seed_keys.get(key)
                    if target is not None:
                        link(sid, k, target, new)
                    else:
                        candidates.append((key, child_ids, rows, y, sid, k, given))
            if not candidates:
                break
            depth += 1
            # Each new class's first candidate becomes a Seed, stored by
            # polynomial key and interning its token, until a cap.
            polys = list(tokens)
            firsts = {c[0]: c for c in reversed(candidates)}  # first of each
            ordered = []
            for key, child_ids, rows, y, sid, k, _ in firsts.values():
                x = [self.variables[v] if v >= 0 else polys[-1 - v] for v in child_ids]
                seed = Seed._trusted(ExchangeMatrix._trusted(rows), y, tuple(x))
                ordered.append((_canonical_seed_key(seed), key, seed, sid, k))
            start, found, interned = len(self.seeds), {}, {}
            for _, key, seed, sid, k in sorted(ordered, key=itemgetter(0)):
                if depth > caps.max_depth or len(self.seeds) >= caps.max_seeds:
                    break
                ids = firsts[key][1]
                new = ids[k - 1]
                if new < 0 and new not in interned:
                    interned[new] = self._var_ids[seed.x[k - 1]] = len(self.variables)
                    self.variables.append(seed.x[k - 1])
                ids = ids[: k - 1] + (interned.get(new, new),) + ids[k:]
                found[key] = self._store_seed(seed, ids, (sid, k))
            for key, ids, _, _, sid, k, given in candidates:
                if key in found:
                    exchanged[given] = new = interned.get(ids[k - 1], ids[k - 1])
                    link(sid, k, found[key], new)
            if len(found) < len(firsts):
                return False
            level = range(start, len(self.seeds))
        return not truncated

    def _faces(self) -> dict[Cluster, list[Cluster]]:
        """The stored clusters by each of their (n - 1)-subsets, each group
        sorted; built once, as no seed is stored after its first use."""
        if self._by_face is None:
            self._by_face = {}
            for c in sorted(self.clusters):
                for i in range(self.n):
                    self._by_face.setdefault(c[:i] + c[i + 1:], []).append(c)
        return self._by_face

    # ------------------------------------------------------------------
    # lookups

    def expansion(self, v: int) -> LaurentPoly:
        self.require_variable(v)
        return self.variables[v]

    def clusters_containing(self, v: int) -> tuple[Cluster, ...]:
        """Clusters through a variable, in discovery order: the one source of
        "x and z share a stored cluster".  Grouped once; see the module."""
        self.require_variable(v)
        if self._by_variable is None:
            groups: list[list[Cluster]] = [[] for _ in self.variables]
            for c in self.clusters:
                for u in c:
                    groups[u].append(c)
            self._by_variable = list(map(tuple, groups))
        return self._by_variable[v]

    def summary(self) -> str:
        """The atlas's size as reports print it: ``n=3 variables=9 clusters=14``."""
        return (
            f"n={self.n} variables={len(self.variables)} clusters={len(self.clusters)}"
        )

    def require_variable(self, v: int) -> None:
        if not 0 <= v < len(self.variables):
            raise KeyError(f"variable id {v} is not in the atlas")

    def normalize_cluster(self, cluster: Iterable[int]) -> Cluster:
        c = tuple(sorted(cluster))
        if c not in self.cluster_to_seed:
            raise KeyError(f"cluster {format_cluster(c)} is not in the atlas")
        return c

    def path(self, sid: int) -> tuple[int, ...]:
        """Directions that mutate the root into stored seed sid along the
        discovery tree."""
        steps = []
        while sid:
            sid, k = self.tree[sid]
            steps.append(k)
        return tuple(reversed(steps))

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
        seeds, ids = self.seeds, self.seed_variable_ids
        host, count = self.cluster_to_seed[c], len(self.variables)
        # A kept automorphism taking c to an expanded cluster, else the map
        # carried from a twin; see the module docstring.
        served = _carrying_map(self._automorphisms, c, self._expand_cache)
        if served is None and m == 0:  # twins by B and by -B
            rows = seeds[host].b.rows
            wants = (rows, tuple(tuple(-e for e in row) for row in rows))
            shapes = [tuple(sorted(map(tuple, map(sorted, w)))) for w in wants]
            twin = next(
                (
                    (g, tuple([ids[g][q] for q in perm]))
                    for want, shape in zip(wants, shapes)
                    for g in self._twins.get(shape, ())
                    for perm in matching_permutations(seeds[g].b.rows, want)
                ),
                None,
            )
            if twin is None:
                self._twins.setdefault(shapes[0], []).append(host)
            else:
                sigma: dict[int, int] = {}
                for w, (_, image) in self.carry(twin, host):
                    sigma.update(zip(ids[w], image))
                    if len(sigma) == count:
                        self._automorphisms.append(sigma)
                        break
                served = _carrying_map([sigma], c, self._expand_cache)
        # Units are read by the root check and the exchange walk only.
        if host == 0 or served is None:
            known = {u: LaurentPoly.variable(n, m, r) for r, u in enumerate(c, 1)}
        if host == 0 and all(self.variables[u] == p for u, p in known.items()):
            # A root of units x_1..x_n in position order, as root_seed
            # makes: its expansions are the interned variables.
            known = dict(enumerate(self.variables))
        elif served is not None:  # its image of a unit of c is that unit again
            sigma, image, pick = served
            known = {u: self._expand_cache[image][s] for u, s in sigma.items()}
            if pick is not None:
                for u, p in known.items():
                    terms = {pick(key) + key[n:]: a for key, a in p.terms.items()}
                    known[u] = LaurentPoly._trusted(n, m, terms)
        # Breadth first from the host over the edge table, so each variable
        # sigma leaves unnamed is exchanged at a seed nearest the host.
        # Expansions tend to grow with that distance: walking down from the
        # root instead made E6 degree-properties 2.5 times slower.
        walked, seen = [host], {host}
        for u in walked:
            if len(known) == count:
                break
            for k in range(1, n + 1):
                w = self.edges.get((u, k))
                if w is None:  # a seed whose level never ran: its parent edge
                    if self.tree[u] is None or self.tree[u][1] != k:
                        continue
                    w = self.tree[u][0]
                if w in seen:
                    continue
                seen.add(w)
                walked.append(w)
                new = [i for i in ids[w] if i not in known]
                if new:
                    if set(ids[u]).difference(ids[w]) != {ids[u][k - 1]}:
                        raise _broken_edge(u, k)
                    seed = Seed._trusted(
                        seeds[u].b, seeds[u].y, tuple([known[i] for i in ids[u]])
                    )
                    known[new[0]] = exchange(seed, k)
        self._expand_cache[c] = known
        return known[v]

    def _expansions_at(self, c: Cluster) -> tuple[dict[int, LaurentPoly], tuple | None]:
        """Stored cluster c's kept expansions by variable id, and None; else,
        if a kept automorphism carries c onto a cluster with kept expansions,
        those and ``_carrying_map``'s (sigma, image, pick), with no copy: v at
        c is sigma(v) at the image, coordinates read by pick.  Any other
        cluster is expanded first."""
        known = self._expand_cache.get(c)
        if known is None:
            served = _carrying_map(self._automorphisms, c, self._expand_cache)
            if served is not None:
                return self._expand_cache[served[1]], served
            self.expand(0, c)
            known = self._expand_cache[c]
        return known, None

    def d_vectors(self, cluster: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Every variable's d-vector at a stored cluster, by variable id: its
        expansion's negated minimal x exponents.  Kept, and permuted from
        another cluster's along a kept automorphism; see the module."""
        c = self.normalize_cluster(cluster)
        if c not in self._d_vectors:
            served = _carrying_map(self._automorphisms, c, self._d_vectors)
            if served is None:
                self.expand(0, c)
                known = self._expand_cache[c]
                table = [known[v].x_min_exponents() for v in range(len(self.variables))]
                table = [tuple(-e for e in mins) for mins in table]
            else:
                sigma, image, pick = served
                table = [self._d_vectors[image][sigma[v]] for v in range(len(sigma))]
                if pick is not None:
                    table = list(map(pick, table))
            self._d_vectors[c] = tuple(table)
        return self._d_vectors[c]

    # ------------------------------------------------------------------
    # table walks over exact seeds

    def carry(self, state: State, start: int) -> Iterator[tuple[int, State]]:
        """Each stored seed id, start up to the root then the rest in store
        order, with the exact seed that the same mutations along the discovery
        tree reach from ``state`` by ``mutate_state``; none below a capped
        edge."""
        states: list[State | None] = [None] * len(self.seeds)
        u = start
        while state is not None:
            states[u] = state
            yield u, state
            if self.tree[u] is None:
                break
            u, k = self.tree[u]
            state = self.mutate_state(state, k)
        for w, (u, k) in enumerate(self.tree[1:], 1):
            if states[w] is None and states[u] is not None:
                states[w] = self.mutate_state(states[u], k)
                if states[w] is not None:
                    yield w, states[w]

    def mutate_state(self, state: State, k: int) -> State | None:
        """Exact seed ``(stored seed id, variable ids by position)`` mutated
        in direction k by lookup: the stored seed's position of the k-th
        variable names the edge, and the new variable is the one id of the
        target seed not already held.  None when the edge leaves a capped
        atlas; on a complete atlas every edge is stored, so a missing one
        means exploration is broken, as does an edge that does not exchange
        exactly one variable."""
        sid, ids = state
        try:
            position = self.seed_variable_ids[sid].index(ids[k - 1])
            target = self.edges.get((sid, position + 1))
            if target is not None:
                (new,) = set(self.seed_variable_ids[target]).difference(ids)
        except ValueError:
            raise _broken_edge(sid, k) from None
        if target is None:
            if self.complete:
                raise RuntimeError(
                    f"seed {sid} has no edge in direction {k} on a complete "
                    f"atlas; exploration is broken"
                )
            return None
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

        Only the first exact seed per (stored seed, cluster) is stepped: a
        later one keeps x_j at position j off I too, so it is the first under
        a permutation pi of I, and its direction k is the first's pi(k), over
        the same stored edges.  So the answer, in order, is that of a walk
        stepping every exact seed.
        """
        key = frozenset(subset)
        if any(not 1 <= i <= self.n for i in key):
            raise ValueError(f"directions {sorted(key)} out of range 1..{self.n}")
        root = (0, self.seed_variable_ids[0])
        cluster = tuple(sorted(root[1]))
        out = {cluster: root[1]}
        seen = {(0, cluster)}
        frontier = [root]
        directions = sorted(key)
        while frontier:
            nxt = []
            for state in frontier:
                for k in directions:
                    child = self.mutate_state(state, k)
                    if child is None:
                        continue
                    cluster = tuple(sorted(child[1]))
                    if (child[0], cluster) in seen:
                        continue
                    seen.add((child[0], cluster))
                    out.setdefault(cluster, child[1])
                    nxt.append(child)
            frontier = nxt
        return out

    # ------------------------------------------------------------------
    # exchange graph

    def exchange_graph(self) -> "ExchangeGraph":
        """Clusters joined when they share n - 1 variables, that is, one
        (n - 1)-subset: grouping the clusters by each of their (n - 1)-subsets
        finds every edge once.  A capped atlas may give a proper subgraph."""
        vertices = tuple(sorted(self.clusters))
        edges = sorted(
            (a, b)
            for group in self._faces().values()
            for j, b in enumerate(group)
            for a in group[:j]
        )
        return ExchangeGraph(vertices, tuple(edges))

    # ------------------------------------------------------------------
    # export

    def to_json(self) -> str:
        """The atlas as ``json.dumps(..., indent=2, sort_keys=True)`` writes
        it, plus a newline; see the module docstring."""
        # di: the line break and indentation at nesting depth i.
        d1, d2, d3, d4 = ("\n" + "  " * i for i in range(1, 5))
        # Seeds' B and y rows repeat: each row's text is made once.  root_b
        # is nested two levels less, so it is not written from these.
        rows = set().union(*(s.b.rows for s in self.seeds), *(s.y for s in self.seeds))
        row = {r: _json_list(map(str, r), d4) for r in rows}.__getitem__
        steps = [""]  # per seed, its path's items joined at depth 4
        for parent, k in self.tree[1:]:
            steps.append(f"{steps[parent]},{d4}{k}" if parent else str(k))
        seeds = [
            f'{{{d3}"b": {_json_list(map(row, seed.b.rows), d3)},'
            f'{d3}"path": {f"[{d4}{path}{d3}]" if path else "[]"},'
            f'{d3}"variables": {_json_list(map(str, ids), d3)},'
            f'{d3}"y": {_json_list(map(row, seed.y), d3)}{d2}}}'
            for seed, ids, path in zip(self.seeds, self.seed_variable_ids, steps)
        ]
        edges = [
            f"[{d3}{sid},{d3}{k},{d3}{tid}{d2}]"
            for (sid, k), tid in sorted(self.edges.items())
        ]
        clusters = (_json_list(map(str, c), d2) for c in self.clusters)
        root_b = (_json_list(map(str, r), d2) for r in self.root.b.rows)
        variables = map(encode_basestring_ascii, map(str, self.variables))
        return (
            f'{{{d1}"caps": {{{d2}"max_depth": {self.caps.max_depth},'
            f'{d2}"max_seeds": {self.caps.max_seeds}{d1}}},'
            f'{d1}"clusters": {_json_list(clusters, d1)},'
            f'{d1}"coefficients": {encode_basestring_ascii(self.coefficients)},'
            f'{d1}"complete": {"true" if self.complete else "false"},'
            f'{d1}"edges": {_json_list(edges, d1)},'
            f'{d1}"m": {self.m},'
            f'{d1}"n": {self.n},'
            f'{d1}"root_b": {_json_list(root_b, d1)},'
            f'{d1}"seeds": {_json_list(seeds, d1)},'
            f'{d1}"variables": {_json_list(variables, d1)}\n}}\n'
        )


def _carrying_map(maps: Iterable[dict], c: Cluster, kept: dict) -> tuple | None:
    """The first of maps carrying cluster c onto one in ``kept``, as (sigma,
    image, pick), else None.  pick reads c's r-th coordinate at the image's
    position of sigma(c[r]); it is None for the identity, as a one-index
    itemgetter gives no tuple."""
    for sigma in maps:
        image = tuple(sorted(map(sigma.__getitem__, c)))
        if image in kept:
            order = [image.index(sigma[u]) for u in c]
            pick = None if order == list(range(len(c))) else itemgetter(*order)
            return sigma, image, pick
    return None


def _broken_edge(sid: int, k: int) -> RuntimeError:
    return RuntimeError(
        f"the edge table is broken: seed {sid} in direction {k} does not "
        f"exchange one variable"
    )


def _json_list(items: Iterable[str], newline: str) -> str:
    """A list of item texts, none empty, as ``json.dumps(indent=2)`` writes
    it, newline being the line break and indentation it is nested at."""
    inner = newline + "  "
    body = f",{inner}".join(items)
    return f"[{inner}{body}{newline}]" if body else "[]"


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


def format_cluster(ids: Iterable[int]) -> str:
    """Variable ids as set text, ``{a,b,c}``: the form every report and
    command prints a cluster in."""
    return "{" + ",".join(map(str, ids)) + "}"


@dataclass(frozen=True)
class ExchangeGraph:
    """Graph on clusters, an edge joining clusters sharing n-1 variables."""

    vertices: tuple[Cluster, ...]
    edges: tuple[tuple[Cluster, Cluster], ...]

    def to_dot(self) -> str:
        names = {c: f"c{i}" for i, c in enumerate(self.vertices)}
        lines = ["graph exchange {"]
        for c in self.vertices:
            lines.append(f'  {names[c]} [label="{format_cluster(c)}"];')
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
            f"{format_cluster(a)} -- {format_cluster(b)}" for a, b in self.edges
        )
        return "\n".join(lines) + "\n"


def graph_difference(g1: ExchangeGraph, g2: ExchangeGraph) -> str:
    """The first vertex or edge in one graph only, as ``vertex {0,1} only in
    first graph``, or "" when the labeled graphs are equal."""
    # A vertex is compared as the 1-tuple of its cluster, an edge as the
    # pair of its clusters, so both print as their clusters joined by " -- ".
    for kind, s1, s2 in (
        ("vertex", {(c,) for c in g1.vertices}, {(c,) for c in g2.vertices}),
        ("edge", set(g1.edges), set(g2.edges)),
    ):
        for which, only in (("first", s1 - s2), ("second", s2 - s1)):
            if only:
                shown = " -- ".join(map(format_cluster, min(only)))
                return f"{kind} {shown} only in {which} graph"
    return ""
