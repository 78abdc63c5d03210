"""Workloads, per-pass job generation and known-answer verdicts.

A job is one ``clusteralg`` CLI invocation.  Every pass of a workload
runs the same list of job specs, each on a root freshly drawn from the
workload seed and the pass index, so a run samples many roots of every
type and its medians do not hinge on one lucky or unlucky root.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from catalogue import finite_counts, matrix, wild_counts
from inputs import reroot, write_seed_file

# Mutation steps from the catalogue orientation to each generated root.
WALK = 2


@dataclass(frozen=True)
class JobSpec:
    command: str  # "explore" or a verify suite name
    family: str
    n: int
    coefficients: str
    depth: int = 0  # explore depth cap for non-finite types

    @property
    def name(self) -> str:
        label = f"{self.family}{self.n}" if self.family != "Markov" else "Markov"
        tail = f"-d{self.depth}" if self.depth else ""
        return f"{self.command}-{label}-{self.coefficients}{tail}"


def _both(command: str, types: list[tuple[str, int]]) -> list[JobSpec]:
    return [
        JobSpec(command, fam, n, coef)
        for fam, n in types
        for coef in ("trivial", "principal")
    ]


WORKLOADS: dict[str, list[JobSpec]] = {
    "finite-explore": _both(
        "explore", [("A", 4), ("A", 5), ("B", 3), ("C", 3), ("D", 4)]
    )
    + [JobSpec("explore", "D", 5, "trivial"), JobSpec("explore", "A", 6, "trivial")],
    "suite-sweep": [
        JobSpec("degree-properties", "A", 4, "trivial"),
        JobSpec("degree-properties", "B", 3, "trivial"),
        JobSpec("degree-properties", "C", 3, "trivial"),
        JobSpec("degree-properties", "D", 4, "trivial"),
        JobSpec("witnesses", "A", 4, "trivial"),
        JobSpec("witnesses", "D", 4, "trivial"),
        JobSpec("maximal-sets", "A", 4, "trivial"),
        JobSpec("maximal-sets", "D", 4, "trivial"),
        JobSpec("g-pairs", "A", 3, "principal"),
        JobSpec("g-pairs", "B", 3, "principal"),
        JobSpec("g-pairs", "C", 3, "principal"),
        JobSpec("unistructural", "A", 4, "trivial"),
    ],
    "wild-growth": [
        JobSpec("explore", "Kronecker", 2, "principal", depth=11),
        JobSpec("explore", "Markov", 0, "trivial", depth=4),
        JobSpec("explore", "Kronecker", 3, "trivial", depth=4),
    ],
}


@dataclass(frozen=True)
class Job:
    spec: JobSpec
    pass_index: int
    argv: list[str]


def pass_jobs(workload: str, seed: int, pass_index: int, workdir: str) -> list[Job]:
    """Draw this pass's roots and write their seed files."""
    rng = random.Random(f"{workload}/{seed}/{pass_index}")
    jobs = []
    for spec in WORKLOADS[workload]:
        base = matrix(spec.family, spec.n)
        path = os.path.join(workdir, f"p{pass_index:03d}-{spec.name}.json")
        write_seed_file(path, reroot(base, rng, WALK), spec.coefficients)
        if spec.command == "explore":
            argv = ["explore", "--seed", path, "--format", "json"]
            if spec.depth:
                argv += ["--max-depth", str(spec.depth)]
        else:
            argv = ["verify", spec.command, "--seed", path]
            if spec.command == "unistructural":
                path2 = path[: -len(".json")] + "-second.json"
                write_seed_file(path2, reroot(base, rng, WALK), spec.coefficients)
                argv += ["--seed2", path2]
        jobs.append(Job(spec, pass_index, argv))
    return jobs


def _report_fields(stdout: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def verdict(spec: JobSpec, rc: int, stdout: str) -> str:
    """Empty when the output matches the known answer, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    if spec.depth:
        variables, seeds = wild_counts(spec.family, spec.depth)
        data = json.loads(stdout)
        got = (len(data["variables"]), len(data["seeds"]), data["complete"])
        want = (variables, seeds, False)
        return "" if got == want else f"(variables, seeds, complete) {got} != {want}"
    variables, clusters = finite_counts(spec.family, spec.n)
    if spec.command == "explore":
        data = json.loads(stdout)
        got = (len(data["variables"]), len(data["clusters"]), data["complete"])
        want = (variables, clusters, True)
        return "" if got == want else f"(variables, clusters, complete) {got} != {want}"
    fields = _report_fields(stdout)
    context = f"n={spec.n} variables={variables} clusters={clusters}"
    want = {"result": "pass"}
    if spec.command == "maximal-sets":
        want.update({"maximal-sets": str(clusters), "clusters": str(clusters)})
    elif spec.command == "unistructural":
        want.update({"first": context, "second": context})
    else:
        want["atlas"] = context
    if spec.command == "degree-properties":
        want["ordered-pairs"] = str(variables * variables)
    elif spec.command == "witnesses":
        want["pairs-checked"] = str(variables * variables)
    elif spec.command == "g-pairs":
        want["pairs-checked"] = str(clusters * 2**spec.n)
    for key, value in want.items():
        if fields.get(key) != value:
            return f"{key}: {fields.get(key)!r} != {value!r}"
    return ""
