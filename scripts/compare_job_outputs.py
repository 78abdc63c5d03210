#!/usr/bin/env python3
"""Compare the job outputs of two benchmark work trees.

    python3 scripts/compare_job_outputs.py PARENT_WORKDIR CHANGE_WORKDIR

Each argument is a ``.perfbench_work/`` tree, whose run directories each
hold the ``jobs.jsonl`` that ``perfbench/run.py`` writes.  Jobs are
matched by (run directory, pass, job).  A common job differs when its
exit code, stdout sha256 or stderr differ.  Prints the number of common
jobs, one line per differing job and the number of differing jobs;
exits 1 if any job differs and 2 if the trees share no job.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

FIELDS = ("exit_code", "stdout_sha256", "stderr")


def load_jobs(workdir: str) -> dict[tuple[str, int, str], dict]:
    """Job records keyed by (run directory, pass, job)."""
    jobs = {}
    pattern = os.path.join(workdir, "**", "jobs.jsonl")
    for path in sorted(glob.glob(pattern, recursive=True)):
        run = os.path.relpath(os.path.dirname(path), workdir)
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                jobs[run, record["pass"], record["job"]] = record
    return jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="work tree of the parent commit")
    parser.add_argument("change", help="work tree of the change")
    args = parser.parse_args(argv)

    parent, change = load_jobs(args.parent), load_jobs(args.change)
    common = sorted(parent.keys() & change.keys())
    print(f"common jobs: {len(common)}")
    if not common:
        print("error: the two trees share no job", file=sys.stderr)
        return 2
    differing = 0
    for key in common:
        fields = [f for f in FIELDS if parent[key].get(f) != change[key].get(f)]
        if fields:
            differing += 1
            run, pass_index, job = key
            print(f"differs: {run} pass {pass_index} {job}: {', '.join(fields)}")
    print(f"differing jobs: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
