"""Exploration of a cluster pattern from a root seed, with caps.

The atlas stores one representative per seed class, where two seeds are
identified when a simultaneous permutation of positions (applied to the
variables, the coefficients, and the rows and columns of B) carries one
to the other.  Variables are interned by their root expansion: two
cluster variables are the same element iff their expansions are
structurally equal Laurent polynomials.  Clusters are sorted tuples of
variable ids.

Exploration is breadth-first with a deterministic order.  A child is its
variable ids, B and y; a variable new to its level has a token, ``_TOKEN +
i`` for the level's i-th new polynomial, above every id, so the token is
its cluster's last label.  The store, and the dict that groups a level's
other children into new classes (each with a slot, keeping its first
child), are keyed by cluster: Fomin and Zelevinsky conjecture that a seed
is determined by its cluster ("Cluster algebras IV", 2007, Conjecture
4.14), and exploration checks it.  A child on a stored or already met
cluster must have that seed's or first child's B and y, read at its own
positions by the one permutation carrying its distinct ids onto the
other's (A6 trivial: the identity on 144 of its 859 landings), else
an engine fault names both.  New classes are stored in canonical key order
(labels by sort key ascending, then y and B), as their clusters over the
ranks of their variables' sort keys sort.  A stored class interns its
token's variable under the next id, above its other labels, so only its
cluster's last label changes.  Only a stored class gets a Seed, and the
serialized atlas never depends on hashing or scheduling.  Caps bound the
store size and the search depth; hitting either leaves ``complete`` false,
which downstream verification refuses rather than guessing.

Each exchange edge is mutated once.  Mutation is an involution, so the
edge from s in direction k to stored seed t also names t's edge back to
s: the direction is the position, in t, of the variable the mutation
made.  That reverse edge is written, with no arithmetic, when t's level
runs, and a reverse edge that contradicts a computed one is an engine
fault.

Each distinct exchange is computed once per exploration.  The new
variable depends only on x_k, y_k and the x_i with b_ik != 0, with their
exponents b_ik, so exploration keeps the id (or token) of each one it
computes under those inputs, the (x_i, b_ik) as a set, and another edge
with those inputs mutates only B and y.  In finite type most edges do: A6
has 1,287 exchange edges and 126 distinct exchanges.  A kept variable was
checked for exact division and positivity when computed.
Every variable is packed once, into the atlas's one ``PackedLayout``, so a
computed exchange is multiplied and divided over packed keys with no
packing.  Its quotient is looked up among the variables by its packed
terms, and only a new one has its tuple keys built.  When the layout
widens, it packs every variable again, and the lookup is rebuilt.

Nor is an exchange computed whose input a map of the root carries onto a
computed one.  A root map is a position permutation pi with
B[pi(i)][pi(j)] = B[i][j] or, under trivial coefficients, where the
exchange binomial is symmetric in its two monomials, -B[i][j]: the
relabeling psi of coordinates x_i -> x_pi(i), with y_i -> y_pi(i) under
principal coefficients, which is a cluster automorphism fixing the root
cluster (Assem, Schiffler and Shramchenko, "Cluster automorphisms",
2012).  No theorem is needed, though: psi is a ring automorphism, so the
exchange of the psi-images of an input, b negated for a -B map, is psi of
its exchange.  On a memo miss whose input psi carries onto a memo entry w,
the new variable is psi^-1(w), the exact image of a quotient that was
divided and checked for positivity.  Its expansion, w's relabeled, is packed
with permuted weights, with no second sort or pack of its tuple keys, and
interned by its packed terms as a quotient is; every edge still mutates B
and y and is checked where it lands, and ids still come from level order.
psi's id map starts as pi on the root's ids, so maps are sought only when
the root's variables are the units x_1..x_n in position order, as
``root_seed`` makes them, under trivial or principal coefficients.  It grows
from each hit, and by the packed terms of a relabeled expansion equal to an
interned variable's; a kept inverse shares it, and tokens in it are
translated when their level ends.  At most ``_ROOT_MAPS`` maps are kept,
the first found in lexicographic order, as every permutation fixes the
zero matrix.  Markov to depth 4 makes 8 exchanges, not 45; D4 36, not 56.

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
afterwards.  The walk then reads the step table (see below) breadth first
outward from the host.  Crossing from u in direction k to w exchanges once,
at u's stored B and y with the expansions of u's variables, only when the
one variable w holds that u lacks is unknown.

The root needs no walk when its variables are the units x_1..x_n in
position order, as ``root_seed`` makes them: its expansions are then the
interned variables.  Any other root is expanded like any other host.

Each stored cluster c has one reading, decided when ``_expansions_at``
first reads it and kept: (expansions by id, sigma, image, pick), v at c
being sigma(v)'s expansion at the exchanged cluster image, its coordinates
read by pick.  An exchanged c is its own image, with the identity sigma and
no pick; a served c shares its image's expansions, with no copy.  A twin of
host h is an exchanged host g whose B is h's under a simultaneous
permutation pi of positions.  The field map x_{g,pi(p)} -> x_{h,p} commutes
with mutation (Assem, Schiffler and Shramchenko, "Cluster automorphisms",
2012), so it carries each expansion at g to the one at h; any pi gives the
same, as an expansion is unique.  Under trivial coefficients the exchange
binomial is symmetric in its monomials, so a g whose B is -B_h under pi
serves too.  ``carry`` steps g's exact seed, aligned to h's positions, from
h over the tree until the map sigma of variables it gives names every one:
a cluster automorphism, direct or inverse, kept.  c is served by the first
kept map carrying it onto a read cluster, composed with that one's sigma;
else by its twin's map; else, as when a carry leaves a capped atlas, it
exchanges.  ``expand``, ``d_vectors`` and the witness scan read every
cluster alike, through its reading.  ``d_vectors`` keeps one table per
image and permutes it on every read, so E6's degree sweep exchanges at 36
of its 833 hosts, keeps 36 tables and walks 9 times.  Twins are sought
only under trivial coefficients: with coefficients pi must carry g's y to
h's too, and under principal coefficients no two stored seeds agree so
(E6's 833 hosts fill 833 one-host buckets).  Other coefficients, which only
code builds, exchange everywhere.

Every walk reads one step table, built from the edge table by the first
walk (no seed is stored after exploration): per stored seed and direction
k, the seed w the edge reaches and the one variable id w holds that the
seed lacks, none past a cap.  A child keeps its parent's positions, so its
``tree`` entry read backwards is the one edge of a seed whose level never
ran.  The build checks every edge: one that does not exchange exactly the
seed's k-th variable, or one missing from a complete atlas, is an engine
fault at the first walk, whether or not a walk crosses it.

Walks that only need to know which variables a seed holds do no
arithmetic at all.  An exact seed (positions intact) is the pair of its
stored seed id and its variable ids by position, and the step table
mutates it by lookup: each entry stands for a mutation computed, and
positivity-checked, during exploration, or for its inverse.  Restricted
reachability is such a walk, stepping one exact seed per cluster
(``i_reachable`` says why), and so is ``carry``, which gives twins
their variable maps.  ``carry`` walks the discovery tree breadth first from
the host, over the step table's entries to each seed's parent and
children, so it steps into each stored seed at most once and names the
variables nearest the host first.
Cross-atlas identification walks nothing: it matches expansions (see
``unistructure``).

``to_json`` writes the text of ``json.dumps(indent=2, sort_keys=True)``
straight from the atlas's tuples, with no nested-list copy for an encoder
to walk item by item: the seeds, with B and y as n-by-n and n-by-m grids,
the edges and the clusters each fill one ``%d`` template in one format
call, and each path is written from its parent's.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator

from .laurent import LaurentPoly, PackedLayout
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


def _exchange_input(seed: Seed, ids: Cluster, k: int) -> tuple:
    """All that ``exchange`` reads in direction k, variables by id: x_k,
    y_k, and the set of the (x_i, b_ik) with b_ik != 0, x_i distinct."""
    kk = k - 1
    column = frozenset([(i, b) for i, row in zip(ids, seed.b.rows) if (b := row[kk])])
    return ids[kk], seed.y[kk], column


# Above every stored id: a level's new variables; see the module docstring.
_TOKEN = 1 << 62

# The most root maps an exploration keeps; see the module docstring.
_ROOT_MAPS = 8


def _same_seed(
    ids: Cluster, rows: Rows, y: Rows, at: Cluster, at_rows: Rows, at_y: Rows
) -> bool:
    """Whether (ids, rows, y) is the seed (at, at_rows, at_y) read at ids' positions."""
    if ids == at:
        return rows == at_rows and y == at_y
    # Two indices at least, as n = 1 always gives ids == at: an itemgetter
    # of one index would return the item, not a tuple.
    pick = itemgetter(*map(at.index, ids))
    return rows == tuple(map(pick, pick(at_rows))) and y == pick(at_y)


def _level_order(classes: list, rank) -> list[int]:
    """The slots of a level's new classes, each (ids, ...), in canonical key
    order over ranks: a key begins with its cluster, and these are distinct."""
    keys = [tuple(sorted(map(rank, c[0]))) for c in classes]
    return sorted(range(len(classes)), key=keys.__getitem__)


class PatternAtlas:
    """Deduplicated closure of mutation from a root seed.

    Public data: ``seeds`` (store order; index 0 is the root),
    ``variables`` (interning table, id = index), ``seed_variable_ids``
    (per seed, variable ids by position), ``clusters`` (``clusters[i]`` is
    seed i's cluster), ``cluster_to_seed`` (its inverse, a bijection),
    ``edges`` (mapping (seed index, direction) to seed index), ``tree``
    (the discovery tree: per seed, the (seed index, direction) it was made
    from, None for the root), ``complete``; ``path(sid)`` replays the tree
    from the root.
    """

    def __init__(self, root: Seed, caps: ExploreCaps | None = None):
        self.caps = caps or ExploreCaps()
        self.root = root
        self.n = root.n
        self.m = root.m
        self.coefficients = _classify_coefficients(root)
        self.seeds: list[Seed] = []
        # Holds every variable, packed once; see the module docstring.
        self._layout = PackedLayout(self.n + self.m)
        self.variables: list[LaurentPoly] = list(map(self._layout.hold, root.x))
        self.seed_variable_ids: list[Cluster] = []
        self.clusters: list[Cluster] = []
        self.cluster_to_seed: dict[Cluster, int] = {}
        self.edges: dict[tuple[int, int], int] = {}
        self.tree: list[tuple[int, int] | None] = []
        self._readings: dict[Cluster, tuple] = {}  # see ``_expansions_at``
        self._d_vectors: dict[Cluster, tuple[tuple[int, ...], ...]] = {}  # by image
        # Hosts that exchanged for want of a twin, by a shape that position
        # permutations keep: the sorted rows of B, each sorted.
        self._twins: dict[tuple, list[int]] = {}
        # Cluster automorphisms: twin maps that named every variable, by id.
        self._automorphisms: list[tuple[int, ...]] = []
        self._by_face: dict[Cluster, list[Cluster]] | None = None
        self._by_variable: list[tuple[Cluster, ...]] | None = None
        self._step_table: list[dict[int, tuple[int, int]]] | None = None
        self.derived: dict = {}
        # Whether the root's variables are the units x_1..x_n in position
        # order, as root_seed makes them.
        last = self.n + self.m - 1
        self._unit_root = all(
            p.terms == {(0,) * i + (1,) + (0,) * (last - i): 1} for i, p in enumerate(root.x)
        )
        ids = tuple(range(self.n))
        held = Seed._trusted(root.b, root.y, tuple(self.variables))
        self._store_seed(held, ids, None, ids)
        self.complete = self._explore()

    # ------------------------------------------------------------------
    # construction

    def _store_seed(
        self, seed: Seed, ids: Cluster, parent: tuple | None, cluster: Cluster
    ) -> int:
        # parent: the (seed, direction) made from, if any; the tree's writer.
        sid = len(self.seeds)
        self.tree.append(parent)
        self.seeds.append(seed)
        self.seed_variable_ids.append(ids)
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
        # Each variable's id (or token), by its packed terms while the
        # layout's keys last.
        layout, keys, by_terms = self._layout, None, {}
        terms, variables = layout.terms, self.variables
        # The root's maps, and the id map entries this level added.
        maps, learned = self._root_maps(), []

        def current() -> dict:
            # by_terms, rebuilt if the layout is new or has widened.
            nonlocal keys, by_terms
            if layout.keys is not keys:
                keys = layout.keys
                by_terms = {terms(p): i for i, p in enumerate(variables)}
                by_terms.update({terms(p): _TOKEN + i for i, p in enumerate(polys)})
            return by_terms

        def mapped(v: int, fwd: dict, inv: dict, ahead: tuple) -> int | None:
            # A root map's image of interned v, else found by the terms of
            # v's relabeled expansion, else None: not interned.
            u = fwd.get(v)
            if u is None:
                u = current().get(terms(layout.relabel(variables[v], ahead)))
                if u is not None:
                    fwd[v], inv[u] = u, v
                    learned.append((fwd, inv, v, u))
            return u

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
            # Each new class's slot by cluster, and per slot its first candidate.
            classes: dict[Cluster, int] = {}
            firsts = []
            candidates = []
            polys = []  # the level's new polynomials, by token - _TOKEN
            for sid in level:
                seed = self.seeds[sid]
                ids = self.seed_variable_ids[sid]
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
                    given = _exchange_input(seed, ids, k)
                    new = exchanged.get(given)
                    if new is None:
                        # A root map may carry the input onto a computed
                        # one; see the module docstring.
                        xk, yk, column = given
                        child = None
                        for fwd, inv, sign, ypick, ahead, behind in maps:
                            x = mapped(xk, fwd, inv, ahead)
                            col = [(mapped(i, fwd, inv, ahead), sign * b) for i, b in column]
                            if x is None or any(u is None for u, _ in col):
                                continue
                            w = exchanged.get((x, yk and ypick(yk), frozenset(col)))
                            if w is not None:
                                new = inv.get(w)
                                if new is None:
                                    held = polys[w - _TOKEN] if w >= _TOKEN else variables[w]
                                    p = layout.relabel(held, behind)
                                break
                        else:
                            child = mutate(seed, k)
                            p = child.x[k - 1]
                        if new is None:
                            token = _TOKEN + len(polys)
                            new = current().setdefault(terms(p), token)
                            if new == token:
                                polys.append(layout.hold(p))
                        exchanged[given] = new
                        if child is None:
                            fwd[new], inv[w] = w, new
                            learned.append((fwd, inv, new, w))
                            rows, y = mutate_rows(seed.b.rows, seed.y, k)
                        else:
                            rows, y = child.b.rows, child.y
                    else:
                        rows, y = mutate_rows(seed.b.rows, seed.y, k)
                    child_ids = ids[: k - 1] + (new,) + ids[k:]
                    cluster = tuple(sorted(child_ids))
                    target = self.cluster_to_seed.get(cluster)
                    if target is not None:
                        at, at_ids = self.seeds[target], self.seed_variable_ids[target]
                        if not _same_seed(child_ids, rows, y, at_ids, at.b.rows, at.y):
                            raise _two_seeds(sid, k, target)
                        link(sid, k, target, new)
                        continue
                    slot = classes.setdefault(cluster, len(firsts))
                    if slot == len(firsts):
                        firsts.append((child_ids, rows, y, cluster, sid, k))
                    elif not _same_seed(child_ids, rows, y, *firsts[slot][:3]):
                        raise _two_seeds(sid, k, *firsts[slot][4:])
                    candidates.append((slot, new, sid, k, given))
            if not firsts:
                break
            depth += 1
            room = caps.max_seeds - len(self.seeds)
            if depth > caps.max_depth or not room:
                return False
            # Polynomial key order, read off clusters over ranks; see the module.
            labels = sorted(
                {v for first in firsts for v in first[0]},
                key=lambda v: (
                    polys[v - _TOKEN] if v >= _TOKEN else variables[v]
                ).sort_key(),
            )
            rank = dict(zip(labels, range(len(labels))))
            ordered = _level_order(firsts, rank.__getitem__)
            # Each stored class becomes a Seed, interning its token, until a cap.
            start, found, interned = len(self.seeds), [None] * len(firsts), {}
            for slot in ordered[:room]:
                ids, rows, y, cluster, sid, k = firsts[slot]
                new = ids[k - 1]
                if new >= _TOKEN:  # intern its variable, in place of the token
                    if new not in interned:
                        interned[new] = len(variables)
                        variables.append(polys[new - _TOKEN])
                        by_terms[terms(variables[-1])] = interned[new]
                    # The token is the cluster's last label, and so is its id.
                    ids = ids[: k - 1] + (interned[new],) + ids[k:]
                    cluster = cluster[:-1] + (interned[new],)
                x = tuple(map(variables.__getitem__, ids))
                seed = Seed._trusted(ExchangeMatrix._trusted(rows), y, x)
                found[slot] = self._store_seed(seed, ids, (sid, k), cluster)
            for slot, new, sid, k, given in candidates:
                target = found[slot]
                if target is not None:
                    if new >= _TOKEN:
                        exchanged[given] = new = interned[new]
                    link(sid, k, target, new)
            if room < len(firsts):
                return False
            for fwd, inv, a, w in learned:  # tokens become ids
                fwd.pop(a, None)
                inv.pop(w, None)
                a, w = interned.get(a, a), interned.get(w, w)
                fwd[a], inv[w] = w, a
            learned.clear()
            level = range(start, len(self.seeds))
        return not truncated

    def _root_maps(self) -> list[tuple]:
        """Up to ``_ROOT_MAPS`` maps of the root, none the identity, sought
        only for a unit root under trivial or principal coefficients; see
        the module docstring.  Each is (its id map, its inverse's, the sign
        of b, the itemgetter moving y_k's generators along, and the
        coordinate orders relabeling an expansion by it and by its
        inverse)."""
        n, m, rows = self.n, self.m, self.root.b.rows
        if not self._unit_root or self.coefficients == "custom":
            return []
        kinds = [(1, rows)]
        if not m:
            kinds.append((-1, tuple(tuple(-e for e in row) for row in rows)))
        found = (
            (sign, perm)
            for sign, want in kinds
            for perm in matching_permutations(rows, want)
            if perm != tuple(range(n))
        )
        kept = list(islice(found, _ROOT_MAPS))
        # One id map per permutation, shared by a kept inverse.
        id_maps = {perm: dict(enumerate(perm)) for _, perm in kept}
        maps = []
        for sign, perm in kept:
            back = tuple(sorted(range(n), key=perm.__getitem__))  # pi's inverse
            inverse = id_maps.get(back) or dict(zip(perm, range(n)))
            # Coordinate orders relabeling an expansion by the map and by its
            # inverse, the y generators moving with x; m is 0 or n.
            ahead = back + tuple(n + q for q in back[:m])
            behind = perm + tuple(n + q for q in perm[:m])
            maps.append((id_maps[perm], inverse, sign, itemgetter(*back), ahead, behind))
        return maps

    def _faces(self) -> dict[Cluster, list[Cluster]]:
        """The stored clusters by each of their (n - 1)-subsets, each group
        sorted; built once, as no seed is stored after its first use."""
        if self._by_face is None:
            self._by_face = {}
            for c in sorted(self.clusters):
                for i in range(self.n):
                    self._by_face.setdefault(c[:i] + c[i + 1:], []).append(c)
        return self._by_face

    def _steps(self) -> list[dict[int, tuple[int, int]]]:
        """Per stored seed, by direction k, the seed w its edge reaches and
        the one variable id w holds that the seed lacks; see the module."""
        if self._step_table is None:
            table, complete = [], self.complete
            sets = list(map(frozenset, self.seed_variable_ids))
            for u, held in enumerate(self.seed_variable_ids):
                # A seed whose level never ran: its tree edge, backwards.
                parent, j = self.tree[u] or (None, 0)
                table.append({})
                for k in range(1, self.n + 1):
                    w = self.edges.get((u, k), None if complete or k != j else parent)
                    if w is not None:
                        new = sets[w] - sets[u]
                        if len(new) != 1 or held[k - 1] in sets[w]:
                            raise _broken_edge(u, k)
                        table[u][k] = (w, *new)
                    elif complete:
                        raise RuntimeError(
                            f"seed {u} has no edge in direction {k} on a complete "
                            f"atlas; exploration is broken"
                        )
            self._step_table = table
        return self._step_table

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
        cluster, ordered by ascending variable id: sigma(v)'s expansion in
        the cluster's reading, with only its coordinates relabeled."""
        self.require_variable(v)
        known, sigma, _, pick = self._expansions_at(self.normalize_cluster(cluster))
        p, n = known[sigma[v]], self.n
        if pick is None:
            return p
        terms = {pick(key) + key[n:]: a for key, a in p.terms.items()}
        return LaurentPoly._trusted(n, self.m, terms)

    def _expansions_at(self, c: Cluster) -> tuple:
        """Stored cluster c's reading (expansions by id, sigma, image, pick):
        v at c is sigma(v)'s expansion at the exchanged image, its
        coordinates read by pick.  Decided on the first call and kept, as
        the module docstring says."""
        readings = self._readings
        reading = readings.get(c)
        if reading is not None:
            return reading
        reading = _carrying_map(self._automorphisms, c, readings)
        if reading is None and self.m == 0:  # twins by B and by -B
            seeds, ids = self.seeds, self.seed_variable_ids
            host = self.cluster_to_seed[c]
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
            else:  # its map serves if it names every variable
                sigma: dict[int, int] = {}
                for w, (_, image) in self.carry(twin, host):
                    sigma.update(zip(ids[w], image))
                    if len(sigma) == len(self.variables):
                        self._automorphisms.append(tuple(map(sigma.get, sorted(sigma))))
                        reading = _carrying_map(self._automorphisms[-1:], c, readings)
                        break
        if reading is None:
            reading = self._exchange(c), range(len(self.variables)), c, None
        readings[c] = reading
        return reading

    def _exchange(self, c: Cluster) -> dict[int, LaurentPoly]:
        """Every variable's expansion at stored cluster c, exchanged breadth
        first from its host; see the module docstring."""
        seeds, ids = self.seeds, self.seed_variable_ids
        host, count = self.cluster_to_seed[c], len(self.variables)
        if host == 0 and self._unit_root:
            # Its expansions are the interned variables.
            known = dict(enumerate(self.variables))
        else:
            known = {u: LaurentPoly.variable(self.n, self.m, r) for r, u in enumerate(c, 1)}
        # Breadth first from the host over the step table, so each variable
        # is exchanged at a seed nearest the host.  Expansions tend to grow
        # with that distance: walking down from the root instead made E6
        # degree-properties 2.5 times slower.
        walked, seen, steps = [host], {host}, self._steps()
        for u in walked:
            if len(known) == count:
                break
            for k, (w, new) in steps[u].items():
                if w in seen:
                    continue
                seen.add(w)
                walked.append(w)
                if new not in known:
                    x = tuple([known[i] for i in ids[u]])
                    known[new] = exchange(Seed._trusted(seeds[u].b, seeds[u].y, x), k)
        return known

    def d_vectors(self, cluster: Iterable[int]) -> tuple[tuple[int, ...], ...]:
        """Every variable's d-vector at a stored cluster, by variable id: its
        expansion's negated minimal x exponents.  Read as ``expand`` reads:
        the table is kept for the reading's image alone, and permuted by
        sigma and pick on every read."""
        known, sigma, image, pick = self._expansions_at(self.normalize_cluster(cluster))
        table = self._d_vectors.get(image)
        if table is None:
            mins = [known[v].x_min_exponents() for v in range(len(known))]
            table = self._d_vectors[image] = tuple(tuple(-e for e in d) for d in mins)
        table = [table[s] for s in sigma]
        return tuple(table if pick is None else map(pick, table))

    # ------------------------------------------------------------------
    # table walks over exact seeds

    def carry(self, state: State, start: int) -> Iterator[tuple[int, State]]:
        """Each stored seed id, breadth first from start over the discovery
        tree's edges in the step table (to a seed's parent, then to its
        children in store order), with the exact seed that the same
        mutations reach from ``state`` by ``mutate_state``; none past a
        capped edge."""
        steps, tree = self._steps(), self.tree
        walked = [(start, -1, state, 0)]  # (seed, seed walked from, state, k)
        for u, back, state, k in walked:
            if k:
                state = self.mutate_state(state, k)
                if state is None:
                    continue
            yield u, state
            # u's tree edges, by seed id: its parent's, then its children's.
            walked += sorted(
                (w, u, state, j)
                for j, (w, _) in steps[u].items()
                if w != back and (tree[w] == (u, j) or tree[u] == (w, j))
            )

    def mutate_state(self, state: State, k: int) -> State | None:
        """Exact seed ``(stored seed id, variable ids by position)`` mutated
        in direction k by lookup: the step table's entry at the stored seed's
        position of the k-th variable gives the target seed and the new
        variable, put at position k.  None past a capped atlas's edges; a
        seed whose level never ran steps only back along its tree edge.  The
        table was checked when built; see the module docstring."""
        sid, ids = state
        step = self._steps()[sid].get(self.seed_variable_ids[sid].index(ids[k - 1]) + 1)
        if step is None:
            return None
        return step[0], ids[: k - 1] + (step[1],) + ids[k:]

    def i_reachable(self, subset: Iterable[int]) -> dict[Cluster, tuple[int, ...]]:
        """Clusters reachable from the root seed by mutations confined to
        the given directions, each mapped to the variable ids by position
        of the first exact seed realizing it.

        The breadth-first walk runs over exact seeds, not permutation
        classes, because direction labels are positional; every step is a
        ``mutate_state`` lookup.  On a capped atlas the answer is the
        clusters reachable over stored edges, so a negative answer only
        means "not found within caps".

        Only the first exact seed per cluster is stepped: a later one is of
        the stored seed the cluster names, with x_j at position j off I, so
        it is the first under a permutation pi of I, over the same edges.
        """
        key = frozenset(subset)
        if any(not 1 <= i <= self.n for i in key):
            raise ValueError(f"directions {sorted(key)} out of range 1..{self.n}")
        out = {self.clusters[0]: self.seed_variable_ids[0]}
        frontier = [(0, self.seed_variable_ids[0])]
        directions = sorted(key)
        while frontier:
            nxt = []
            for state in frontier:
                for k in directions:
                    child = self.mutate_state(state, k)
                    if child is None:
                        continue
                    cluster = tuple(sorted(child[1]))
                    if cluster not in out:
                        out[cluster] = child[1]
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
        n, m = self.n, self.m
        steps = [""]  # per seed, its path's items joined at depth 4
        for parent, k in self.tree[1:]:
            steps.append(f"{steps[parent]},{d4}{k}" if parent else str(k))
        # One template for every seed, B and y as grids, the path as text;
        # seeds and edges collect the values their templates take, in order.
        seed = (
            f'{{{d3}"b": {_grid(n, n, d3)},{d3}"path": %s,'
            f'{d3}"variables": {_json_list(["%d"] * n, d3)},'
            f'{d3}"y": {_grid(n, m, d3)}{d2}}}'
        )
        seeds = []
        for held, ids, path in zip(self.seeds, self.seed_variable_ids, steps):
            seeds += chain(*held.b.rows)
            seeds.append(f"[{d4}{path}{d3}]" if path else "[]")
            seeds += ids
            seeds += chain(*held.y)
        edges = []
        for edge in sorted(self.edges):
            edges += edge
            edges.append(self.edges[edge])
        clusters = chain(*self.clusters)
        variables = map(encode_basestring_ascii, map(str, self.variables))
        return (
            f'{{{d1}"caps": {{{d2}"max_depth": {self.caps.max_depth},'
            f'{d2}"max_seeds": {self.caps.max_seeds}{d1}}},'
            f'{d1}"clusters": {_grid(len(self.clusters), n, d1) % tuple(clusters)},'
            f'{d1}"coefficients": {encode_basestring_ascii(self.coefficients)},'
            f'{d1}"complete": {"true" if self.complete else "false"},'
            f'{d1}"edges": {_grid(len(self.edges), 3, d1) % tuple(edges)},'
            f'{d1}"m": {m},'
            f'{d1}"n": {n},'
            f'{d1}"root_b": {_grid(n, n, d1) % tuple(chain(*self.root.b.rows))},'
            f'{d1}"seeds": {_json_list([seed] * len(self.seeds), d1) % tuple(seeds)},'
            f'{d1}"variables": {_json_list(variables, d1)}\n}}\n'
        )


def _carrying_map(maps: Iterable[tuple], c: Cluster, readings: dict) -> tuple | None:
    """c's reading by the first of maps carrying cluster c onto a read one,
    composed with that one's sigma, else None.  pick reads c's r-th
    coordinate at the image's position of sigma(c[r]); it is None for the
    identity, as a one-index itemgetter gives no tuple."""
    for sigma in maps:
        reading = readings.get(tuple(sorted(map(sigma.__getitem__, c))))
        if reading is not None:
            known, tau, image, _ = reading
            sigma = tuple(map(tau.__getitem__, sigma))  # tau after sigma
            order = [image.index(sigma[u]) for u in c]
            pick = None if order == list(range(len(c))) else itemgetter(*order)
            return known, sigma, image, pick
    return None


def _broken_edge(sid: int, k: int) -> RuntimeError:
    return RuntimeError(
        f"the edge table is broken: seed {sid} in direction {k} does not "
        f"exchange one variable"
    )


def _two_seeds(sid: int, k: int, other: int, j: int | None = None) -> RuntimeError:
    child = "" if j is None else f" mutated in direction {j}"  # other's child
    return RuntimeError(
        f"seed {sid} mutated in direction {k} and seed {other}{child} share a "
        f"cluster but are different seeds; a seed should be determined by its cluster"
    )


def _json_list(items: Iterable[str], newline: str) -> str:
    """A list of item texts, none empty, as ``json.dumps(indent=2)`` writes
    it, newline being the line break and indentation it is nested at."""
    inner = newline + "  "
    body = f",{inner}".join(items)
    return f"[{inner}{body}{newline}]" if body else "[]"


def _grid(rows: int, width: int, newline: str) -> str:
    """The ``%d`` template of a rows-by-width list of integer lists, as
    ``_json_list`` nests it at newline."""
    return _json_list([_json_list(["%d"] * width, newline + "  ")] * rows, newline)


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
