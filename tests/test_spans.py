"""Every span the benchmark reads fires on its workload.

`perfbench/tracer.py` wraps functions of `ptso_verify` by name from outside
the package, so a rename or an inlined call under `src/` would silently turn
a per-layer figure into 0. This runs each workload's queries once under
`tracer.install` at a fixed seed and checks every name in
`workloads.SPANS`, without the timing loop of `perfbench/run.py --trace 1`.
"""

import contextlib
import io
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from ptso_verify import cli  # noqa: E402


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_workload_span_fires(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)          # the queries name programs relative to the root
    race_path = str(tmp_path / "race.ptso")
    texts, queries = workloads.build(workload, 1, race_path)
    for path, text in texts.items():
        pathlib.Path(path).write_text(text)
    tr = tracer.Tracer()
    with tracer.install(tr):
        for q in queries:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(q["argv"]) in (0, 1, 4), q["id"]
    fired = tr.by_name()
    assert [name for name in workloads.SPANS[workload] if name not in fired] == []
