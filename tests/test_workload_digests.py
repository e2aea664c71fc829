"""Every benchmark workload's reports stay byte-identical.

``perfbench/generate.py`` is loaded by path, as ``test_tracer_contract.py``
loads the tracer, and writes each workload's queries at the held-out seed
20261017 under ``tmp_path``.  Every query runs through
``cli.main(["verify", FILE])`` with stdout captured, as ``perfbench/run.py``
runs it, and the SHA-256 of each report must equal the one pinned in
``workload_digests.json``: the ``reports_sha256`` that ``run.py`` prints
for the same workload and seed.  A failure names every report that moved.

A change that moves reports on purpose rewrites the pinned digests in the
same commit, from the root of a checkout:

    PYTHONPATH=src python tests/test_workload_digests.py

and names every moved report in its description.  Nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from boxcert import cli

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "workload_digests.json"
SEED = 20261017


def load_generate():
    path = ROOT / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("boxcert_bench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATE = load_generate()


def report_digests(workload: str, outdir: Path) -> dict[str, str]:
    """Each query's name and the SHA-256 of its report, as ``run.py`` digests it."""
    digests = {}
    for query in GENERATE.generate(workload, SEED, outdir):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(["verify", str(query["path"])])
        digests[query["name"]] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return digests


@pytest.mark.parametrize("workload", GENERATE.WORKLOADS)
def test_workload_reports_match_pinned_digests(workload, tmp_path):
    pinned = json.loads(PINNED.read_text())[workload]
    got = report_digests(workload, tmp_path)
    moved = sorted(name for name in pinned.keys() | got.keys() if pinned.get(name) != got.get(name))
    assert not moved, f"{len(moved)} {workload} reports moved: {', '.join(moved)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {w: report_digests(w, Path(tmp) / w) for w in GENERATE.WORKLOADS}
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    sys.exit(0)
