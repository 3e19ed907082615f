"""ptso-verify benchmark: CLI query workloads, checked and timed.

    python3 perfbench/run.py [--workload qualitative|quantitative|simulate|all]
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; uses only the standard library. Each workload
runs in a fresh process (see worker.py). The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`; with `--workload
all` the metric names are prefixed with the workload. A full result file with
run metadata, the generated programs, per-query exit codes and output
digests is written to perfbench/out/. The exit code is 0 only when every
answer matches its reference.

End-to-end metrics (times are rescaled to the reference host speed, see
speed.py; the raw seconds are kept in the result file):
- wall_s: seconds to answer every query of the list once, up to the JSON
  bytes on stdout; the sum over queries of each query's median time.
- setup_s: seconds to import the package and parse every program the
  workload uses, in a fresh process; median over several processes.
- peak_rss_mb: peak resident memory of the workload process.
- decided_ratio: queries of the list answered with a decision (exit 0 or
  1) over the queries in the list. Exit 3, exit 4 and crashes are
  undecided; every repetition of a query must end the same way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
WORKER_TIMEOUT = 150
REQUIRED = ("src/ptso_verify/cli.py", "tests/exhaustive.py")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "decided_ratio": "ratio"}


def _git_commit():
    """HEAD commit read from .git without running git, or None."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker(args):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr}")
    return proc.stdout


def measure(workload, seed, seconds, trace):
    """Run one workload in a fresh process and check it; the result document."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    out_dir = OUT / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    generated, queries = workloads.build(workload, seed, f"{out_dir.relative_to(ROOT)}/race.ptso")
    for path, text in generated.items():
        (ROOT / path).write_text(text, encoding="utf-8")
    programs = workloads.programs(queries)

    setup_pairs = [[float(v) for v in _worker(["setup", *programs]).split()]
                   for _ in range(SETUP_PROBES)]
    plan = {"queries": [{"id": q["id"], "argv": q["argv"]} for q in queries],
            "programs": programs, "seconds": seconds, "trace": trace,
            "out_dir": str(out_dir)}
    (out_dir / "plan.json").write_text(json.dumps(plan, indent=1))
    _worker(["run", str(out_dir / "plan.json")])
    work = json.loads((out_dir / "worker.json").read_text())
    setup_pairs.append([work["setup_raw_s"], work["setup_s"]])
    setups = [rescaled for _, rescaled in setup_pairs]

    # references and the correctness gate, outside the timed process
    src = sorted((ROOT / "src" / "ptso_verify").glob("*.py"))
    refs = reference.solve(queries, ROOT, OUT / "references",
                           _digest([*src, ROOT / "tests" / "exhaustive.py"]))
    per_query, failures = {}, {}
    for q in queries:
        rows = [s for s in work["samples"] if s[0] == q["id"]]
        codes = sorted({s[3] for s in rows}, key=str)
        digests = sorted({s[4] for s in rows})
        stdout = (out_dir / f"{q['id']}.json").read_text(encoding="utf-8")
        why = (work["errors"].get(q["id"])
               or reference.check(q, rows[0][3], stdout, refs))
        if why is None and (len(codes) > 1 or len(digests) > 1):
            why = f"repetitions disagree: exit codes {codes}, {len(digests)} distinct outputs"
        if why is not None:
            failures[q["id"]] = why
        per_query[q["id"]] = {"argv": q["argv"], "check": q["check"], "exit_codes": codes,
                              "sha256": digests, "samples": len(rows),
                              "median_s": work["query_median_s"][q["id"]]}

    decided = sum(1 for v in per_query.values() if v["exit_codes"] in ([0], [1]))
    if trace:
        missing = [n for n in workloads.SPANS[workload] if n not in work["fired"]]
        if missing:
            failures["trace"] = f"spans never fired: {', '.join(missing)}"
        values = work["per_layer"]
        units = tracer.UNITS
    else:
        values = {"wall_s": work["wall_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": work["peak_rss_mb"], "decided_ratio": decided / len(queries)}
        units = E2E_UNITS
    summary = {"correct": not failures, "attempted": len(work["samples"]),
               "failed": sum(1 for s in work["samples"] if s[0] in failures),
               "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    doc = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": _git_commit(), "src_sha256": _digest(src),
        "python": platform.python_version(), "machine": platform.machine(),
        "nproc": os.cpu_count(), "load": "closed loop, 1 process, 1 thread, 1 client",
        "programs": generated, "references": refs, "setup_samples_s": setup_pairs,
        "raw_wall_s": work["raw_wall_s"], "kernel_s": work["kernel_s"],
        "passes": work["passes"], "decided_queries": decided, "queries": per_query,
        "layer_split": work.get("layer_split"), "failures": failures, "summary": summary,
    }
    (OUT / f"{tag}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        sys.stderr.write(f"error: not a ptso-verify checkout; missing {', '.join(missing)}\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    # the gate parses certified rationals of hundreds of thousands of digits
    sys.set_int_max_str_digits(0)

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        try:
            doc = measure(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"error: {name}: {exc}\n")
            return 2
        for qid, why in doc["failures"].items():
            sys.stderr.write(f"WRONG {name} {qid}: {why}\n")
        for metric, m in doc["summary"]["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        summaries[name] = doc["summary"]
    if len(summaries) == 1:
        summary = summaries[names[0]]
    else:
        summary = {"correct": all(s["correct"] for s in summaries.values()),
                   "attempted": sum(s["attempted"] for s in summaries.values()),
                   "failed": sum(s["failed"] for s in summaries.values()),
                   "metrics": {f"{n}.{k}": m for n, s in summaries.items()
                               for k, m in s["metrics"].items()}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
