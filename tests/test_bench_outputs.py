"""The CLI output of every benchmark job, pinned by one digest.

The jobs of the four benchmark workloads for seeds 1-3 (486 jobs, generated
by ``perfbench/workloads.py``) are replayed through ``pathalg.cli.main`` in a
temporary directory, and one sha256 is taken over (workload, seed, args, exit
code, output) of every job.  A change that alters an output on purpose must
update ``DIGEST``; any other change must leave it as it is.

Run as a script to print the digest, e.g. under an interpreter without
pytest or with another ``PYTHONHASHSEED``::

    PYTHONPATH=src python3 tests/test_bench_outputs.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

from pathalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
JOBS = 486
DIGEST = "1c0f5d9c5a0ca148f55cf198604d5fb662104a25cf8bfc73cd4850af29d8033b"


def _workloads():
    """perfbench/workloads.py, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def replay(workdir: Path) -> tuple[str, int]:
    """(sha256 over every job's record, number of jobs) for the seeds."""
    workloads = _workloads()
    digest = hashlib.sha256()
    count = 0
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            rnd = workloads.build(workload, seed)
            where = workdir / f"{workload}-{seed}"
            where.mkdir()
            for name, text in rnd.files.items():
                (where / name).write_text(text, encoding="utf-8")
            for job in rnd.jobs:
                buf = io.StringIO()
                code = main(job.argv(where), out=buf)
                text = buf.getvalue()
                if str(workdir) in text:
                    raise AssertionError(f"{workload} seed {seed} {job.args}: "
                                         "the output names a file path")
                record = [workload, seed, list(job.args), code, text]
                digest.update(json.dumps(record).encode("utf-8") + b"\n")
                count += 1
    return digest.hexdigest(), count


def test_benchmark_outputs_are_unchanged(tmp_path):
    assert replay(tmp_path) == (DIGEST, JOBS)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(*replay(Path(tmp)))
