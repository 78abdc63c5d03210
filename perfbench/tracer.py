"""Span tracer that wraps the engine's public functions from outside.

Wrappers are installed on the names the callers look up (module globals
such as ``clusteralg.atlas.mutate`` and class attributes such as
``LaurentPoly.__mul__``), so the engine itself is unchanged.  A span is
``[name, start_ns, end_ns, parent, job, work]``: ``parent`` is the index
of the enclosing span (-1 for a job's root), ``job`` the job id, and
``work`` a per-span count (term pairs for a product, numerator terms for
a division, seeds stored for an exploration).

Self time is a span's duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, JOB, WORK = range(6)
MUL = "laurent.mul"

# (module, class or "", attribute, span name).  A function imported into
# several modules is patched in each, because each caller resolves its
# own global.
PATCHES = [
    ("cli", "", "explore", "atlas.explore"),
    ("atlas", "", "mutate", "seed.mutate"),
    ("seed", "", "mutate", "seed.mutate"),
    ("atlas", "", "mutate_path", "atlas.replay"),
    ("seed", "", "exchange_binomial", "seed.binomial"),
    ("seed", "", "find_skew_symmetrizer", "seed.symmetrizer"),
    ("seed", "", "exact_div", "laurent.div"),
    ("atlas", "PatternAtlas", "expand", "atlas.expand"),
    ("atlas", "PatternAtlas", "i_reachable", "atlas.ireach"),
    ("atlas", "PatternAtlas", "exchange_graph", "atlas.graph"),
    ("atlas", "PatternAtlas", "to_json", "atlas.export"),
    ("grading", "", "g_vector", "grading.gvector"),
    ("grading", "", "check_g_pair", "grading.check"),
    ("grading", "", "find_g_pair", "grading.find"),
    ("grading", "", "verify_g_pairs", "grading.sweep"),
    ("compat", "", "d_vector", "compat.dvector"),
    ("compat", "", "compatibility_matrix", "compat.matrix"),
    ("unistructure", "", "compatibility_matrix", "compat.matrix"),
    ("compat", "", "maximal_d_compatible_sets", "compat.cliques"),
    ("compat", "", "verify_degree_properties", "compat.sweep"),
    ("compat", "", "verify_maximal_sets", "compat.sweep"),
    ("unistructure", "", "laurent_witness", "unistructure.witness"),
    ("unistructure", "", "witness_sweep", "unistructure.sweep"),
    ("unistructure", "", "verify_unistructural", "unistructure.verify"),
    ("reports", "VerificationReport", "text", "reports"),
]

SPAN_NAMES = sorted(
    {name for *_, name in PATCHES} | {"cli", MUL, "laurent.sort_key"}
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.max_terms = 0
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, work: int = 0) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job, work])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter_ns()
        self.stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    # ------------------------------------------------------------------
    # installation

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if name == "atlas.explore":
                tracer.spans[sid][WORK] = len(result.seeds)
            elif name == "laurent.div":
                tracer.spans[sid][WORK] = len(args[0].terms)
                tracer.max_terms = max(tracer.max_terms, len(result.terms))
            return result

        return wrapper

    def install(self, modules: dict[str, object]) -> None:
        """Patch the engine; ``modules`` maps short names to modules."""
        for mod, cls, attr, name in PATCHES:
            owner = getattr(modules[mod], cls) if cls else modules[mod]
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))
        poly = modules["laurent"].LaurentPoly
        self._set(poly, "__mul__", self._mul(poly.__mul__))
        self._set(poly, "__pow__", self._pow(poly.__pow__))
        self._set(poly, "sort_key", self._sort_key(poly.sort_key))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Laurent arithmetic: one span per outermost product

    def _mul(self, original):
        tracer = self

        def pairs(a, b) -> int:
            # The engine swaps a monomial right operand to the left and
            # re-enters; the re-entered call counts the work.
            if len(b.terms) == 1 and len(a.terms) > 1:
                return 0
            return len(a.terms) * len(b.terms)

        @functools.wraps(original)
        def mul(a, b):
            if tracer.stack and tracer.spans[tracer.stack[-1]][NAME] == MUL:
                # Operand-swap re-entry or a product inside __pow__.
                tracer.spans[tracer.stack[-1]][WORK] += pairs(a, b)
                return original(a, b)
            sid = tracer.open(MUL, pairs(a, b))
            try:
                result = original(a, b)
            finally:
                tracer.close(sid)
            tracer.max_terms = max(tracer.max_terms, len(result.terms))
            return result

        return mul

    def _pow(self, original):
        tracer = self

        @functools.wraps(original)
        def power(a, k):
            sid = tracer.open(MUL)
            try:
                result = original(a, k)
            finally:
                tracer.close(sid)
            tracer.max_terms = max(tracer.max_terms, len(result.terms))
            return result

        return power

    def _sort_key(self, original):
        tracer = self

        @functools.wraps(original)
        def sort_key(p):
            # Cached keys cost one attribute read; only computations are spans.
            key = getattr(p, "_key", None)
            if key is not None:
                return key
            sid = tracer.open("laurent.sort_key")
            try:
                return original(p)
            finally:
                tracer.close(sid)

        return sort_key


# ----------------------------------------------------------------------
# aggregation


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus its direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_spans(spans: list[list]) -> str:
    """Empty when every span is closed, nests inside its parent, and the
    self times of each job add up to its root span's duration."""
    selfs = self_times(spans)
    roots: dict[int, int] = {}
    totals: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s[END] < s[START]:
            return f"span {i} ({s[NAME]}) is not closed"
        p = s[PARENT]
        if p >= 0 and not (spans[p][START] <= s[START] and s[END] <= spans[p][END]):
            return f"span {i} ({s[NAME]}) lies outside its parent {p}"
        if p >= 0 and spans[p][JOB] != s[JOB]:
            return f"span {i} ({s[NAME]}) and its parent belong to different jobs"
        if selfs[i] < 0:
            return f"span {i} ({s[NAME]}) has negative self time"
        if p < 0:
            roots[s[JOB]] = i
        totals[s[JOB]] = totals.get(s[JOB], 0) + selfs[i]
    for job, i in roots.items():
        if totals[job] != spans[i][END] - spans[i][START]:
            return f"self times of job {job} do not add up to its root span"
    if set(totals) != set(roots):
        return "a job has spans but no root span"
    return ""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], passes: int, max_terms: int) -> dict[str, float]:
    """Per-layer metrics, as totals per traced pass."""
    selfs = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    work = dict.fromkeys(SPAN_NAMES, 0)
    mutations_under: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        self_ns[name] += selfs[i]
        work[name] += s[WORK]
        if name == "seed.mutate" and s[PARENT] >= 0:
            parent = spans[s[PARENT]][NAME]
            mutations_under[parent] = mutations_under.get(parent, 0) + 1
    per = 1.0 / passes
    out = {f"{name}.self_s": self_ns[name] * 1e-9 * per for name in SPAN_NAMES}
    explore_mutations = mutations_under.get("atlas.explore", 0)
    out.update(
        {
            "laurent.mul.calls": calls[MUL] * per,
            "laurent.mul.term_pairs": work[MUL] * per,
            "laurent.div.calls": calls["laurent.div"] * per,
            "laurent.div.num_terms": work["laurent.div"] * per,
            "laurent.max_terms": float(max_terms),
            "seed.mutate.calls": calls["seed.mutate"] * per,
            "seed.symmetrizer.calls": calls["seed.symmetrizer"] * per,
            "atlas.explore.calls": calls["atlas.explore"] * per,
            "atlas.explore.mutations": explore_mutations * per,
            "atlas.explore.stored_ratio": _ratio(
                work["atlas.explore"], explore_mutations
            ),
            "atlas.expand.calls": calls["atlas.expand"] * per,
            "atlas.expand.replays": calls["atlas.replay"] * per,
            "atlas.expand.replay_ratio": _ratio(
                calls["atlas.replay"], calls["atlas.expand"]
            ),
            "atlas.expand.replay_mutations": mutations_under.get("atlas.replay", 0)
            * per,
            "atlas.ireach.calls": calls["atlas.ireach"] * per,
            "atlas.ireach.mutations": mutations_under.get("atlas.ireach", 0) * per,
            "grading.gvector.calls": calls["grading.gvector"] * per,
            "grading.check.calls": calls["grading.check"] * per,
            "grading.find.calls": calls["grading.find"] * per,
            "grading.partner_ratio": _ratio(
                calls["grading.find"], calls["grading.check"]
            ),
            "compat.dvector.calls": calls["compat.dvector"] * per,
            "unistructure.witness.calls": calls["unistructure.witness"] * per,
            "cli.calls": calls["cli"] * per,
        }
    )
    return out


def write_spans(path: str, spans: list[list]) -> None:
    """One line per span: id, name, start_ns, end_ns, parent, job, work."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tname\tstart_ns\tend_ns\tparent\tjob\twork\n")
        for i, s in enumerate(spans):
            fh.write(f"{i}\t{s[0]}\t{s[1]}\t{s[2]}\t{s[3]}\t{s[4]}\t{s[5]}\n")
