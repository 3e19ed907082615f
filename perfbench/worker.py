"""Workload process: times one workload's queries through `cli.main(argv)`.

    python3 perfbench/worker.py setup PROGRAM...   # prints set-up seconds, raw
                                                   # and rescaled (speed.py)
    python3 perfbench/worker.py run PLAN.json      # writes <out_dir>/worker.json

Started by `run.py` from the repository root, one fresh process per
workload run, so peak memory and every cache belong to that workload.
Load is one thread and one client in a closed loop: the next query starts
when the previous one returns. Without tracing the query list is repeated
for the plan's seconds (the last pass may stop early); with tracing,
untraced and traced passes alternate, at least one of each. Every time is
kept raw and rescaled to the reference host speed (see speed.py).
"""

import os
import sys
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(programs):
    """Seconds to import the package's CLI and parse every program."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ptso_verify import cli, lang  # noqa: F401  (the import is what is timed)
    for path in programs:
        with open(path, encoding="utf-8") as fh:
            lang.parse_program(fh.read())
    return time.perf_counter() - t0


def peak_rss_mb():
    """Peak resident memory of this process in MB. Linux's VmHWM belongs to
    the current process image; ru_maxrss would also carry the parent's peak
    across the exec that started this process."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rescaled_setup(programs):
    """(raw, rescaled) set-up seconds; the host speed is measured right after."""
    raw = setup(programs)
    return raw, speed.rescale(raw, speed.calibrate())


def run(plan):
    setup_raw, setup_s = rescaled_setup(plan["programs"])

    import contextlib
    import hashlib
    import io
    import json
    import statistics
    import traceback

    import tracer
    from ptso_verify import cli

    queries, seconds, trace = plan["queries"], plan["seconds"], plan["trace"]
    out_dir = plan["out_dir"]

    def ask(q):
        """(raw seconds, rescaled seconds, exit code, stdout, traceback)."""
        out, err = io.StringIO(), io.StringIO()
        error = None
        spent = probe.spent
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(q["argv"])
            except SystemExit as exc:          # argparse usage errors
                code = exc.code
            except Exception:                  # a crash is reported, not fatal
                code, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        text = out.getvalue()
        raw = t1 - t0
        rescaled = speed.rescale(raw - (probe.spent - spent), probe.kernel_s(t0, t1))
        return raw, rescaled, code, text, error

    # [query id, traced, rescaled seconds, exit code, sha256, raw seconds]
    samples = []
    errors = {}
    passes = []         # {"traced", "wall_s", "raw_wall_s"} of complete passes
    layer_runs = []
    saved = set()
    last_dt = {}
    last_trace = last_wall = None
    with speed.Probe() as probe:
        deadline = time.perf_counter() + seconds
        pass_no = 0
        while True:
            traced = bool(trace) and pass_no % 2 == 1
            tr = tracer.Tracer() if traced else None
            wall = raw_wall = 0.0
            json_bytes = 0
            complete = True
            with tracer.install(tr) if traced else contextlib.nullcontext():
                for q in queries:
                    # after the first pass, stop before a query that would end
                    # past the deadline, judged by its previous time
                    if not trace and pass_no and time.perf_counter() + last_dt[q["id"]] > deadline:
                        complete = False
                        break
                    raw, dt, code, text, error = ask(q)
                    last_dt[q["id"]] = raw
                    data = text.encode()
                    wall += dt
                    raw_wall += raw
                    json_bytes += len(data)
                    samples.append([q["id"], traced, dt, code, hashlib.sha256(data).hexdigest(),
                                    raw])
                    if error is not None:
                        errors.setdefault(q["id"], error)
                    if q["id"] not in saved:
                        saved.add(q["id"])
                        with open(os.path.join(out_dir, q["id"] + ".json"), "wb") as fh:
                            fh.write(data)
            if complete:
                passes.append({"traced": traced, "wall_s": wall, "raw_wall_s": raw_wall})
            if traced:
                layer_runs.append(tracer.per_layer(tr, json_bytes))
                last_trace, last_wall = tr, raw_wall
            pass_no += 1
            if not complete or (time.perf_counter() >= deadline and (not trace or pass_no >= 2)):
                break

    def median_of(qid, traced, col=2):
        return statistics.median(s[col] for s in samples if s[0] == qid and s[1] == traced)

    untraced_q = {q["id"]: median_of(q["id"], False) for q in queries}
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": sum(untraced_q.values()),
        "raw_wall_s": sum(median_of(q["id"], False, 5) for q in queries),
        "kernel_s": [k for _, k in probe.samples],
        "query_median_s": untraced_q,
        "peak_rss_mb": peak_rss_mb(),
        "samples": samples,
        "passes": passes,
        "errors": errors,
    }
    if trace:
        walls = {t: statistics.median(p["wall_s"] for p in passes if p["traced"] is t)
                 for t in (False, True)}
        mc_s = sum(t for qid, t in untraced_q.items() if qid.startswith("simulate."))
        result["per_layer"] = tracer.summarize(layer_runs, mc_s, walls[True] - walls[False])
        result["fired"] = sorted(last_trace.by_name())
        result["layer_split"] = {layer: secs / last_wall
                                 for layer, secs in last_trace.layer_self().items()}
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(last_trace.dump(), fh)
    with open(os.path.join(out_dir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def main(argv):
    if len(argv) >= 2 and argv[0] == "setup":
        print(*rescaled_setup(argv[1:]))
        return 0
    if len(argv) == 2 and argv[0] == "run":
        import json
        with open(argv[1], encoding="utf-8") as fh:
            run(json.load(fh))
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
