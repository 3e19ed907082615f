"""Byte sweep of the command line: the exit code and the sha256 of stdout of
every oracle subcommand over every label of the corpus programs.

    python tests/digest_sweep.py --out FILE [--alarm SECONDS]
    python tests/digest_sweep.py --compare A B

--out runs each query in-process through `cli.main` of the checkout that
holds this file and writes {argv: [exit code, stdout sha256, seconds]} as
JSON, with the temporary directory of the --init files written as $TMP in
each argv. A query still running after --alarm seconds (default 20) is
recorded as ["alarm", null, seconds], and one that raises an exception past
`cli.main` as ["raise <Name>", null, seconds]. --compare lists the queries
whose exit code or sha256 differ between two such files, and exits 1 if any
do; it then prints each side's summed seconds per subcommand and the
queries that alarmed.
Files of two-field entries, [exit code, stdout sha256], compare too.

The queries, over every label of every corpus program: qual-reach,
qual-rep-reach, never-reach, never-rep-reach, quant-reach, quant-rep-reach,
cost and eagerness, at --bound 1 and 3, each lax and --strict, with quant-*
capped at 40 iterations and cost at 60 layers; never-reach with --bound-max
4 at the same bounds and modes; eagerness at --bound 3, lax, with --beta
100, 149 and 1000; the four qualitative subcommands at --bound 16, lax
and --strict, on loop_all and writer_reader, where the update step fans
out most; simulate with --runs 200 --horizon 100 at --seed 0 and 1; and,
for each program that has one, the same eight oracle
subcommands at --bound 1, lax and --strict, and simulate at both seeds, from
an --init start over the bound: the first successor over bound 1, in
configuration order, of the configurations reachable within bound 1 from the
initial one. On the corpus that is 4,275 queries, 630 of them from the
--init starts of loop_all, race_retry and writer_reader, 255 of them
eagerness at the three betas and 160 at --bound 16.
"""

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import pathlib
import signal
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ptso_verify import cli, lang, semantics  # noqa: E402

SUBCOMMANDS = ("qual-reach", "qual-rep-reach", "never-reach", "never-rep-reach",
               "quant-reach", "quant-rep-reach", "cost", "eagerness")
CAPS = {"quant-reach": ["--max-iterations", "40"],
        "quant-rep-reach": ["--max-iterations", "40"],
        "cost": ["--max-layers", "60"]}
BETAS = ("100", "149", "1000")
DEEP = ("loop_all", "writer_reader")   # also asked the qualitative queries at --bound 16


class Alarm(BaseException):
    """Raised by SIGALRM; a BaseException, so that cli.main does not catch it."""


def over_bound_start(prog):
    """The first successor over bound 1, in configuration order, of the
    configurations reachable within bound 1 from the initial one; None if
    there is none."""
    init = semantics.initial_config(prog)
    seen, queue = {init}, [init]
    for c in queue:
        for s in semantics.step_successors(prog, c):
            if semantics.size(s) <= 1 and s not in seen:
                seen.add(s)
                queue.append(s)
    return next((s for c in sorted(seen) for s in sorted(semantics.step_successors(prog, c))
                 if semantics.size(s) > 1), None)


def queries(tmp):
    """Every query's argv; the --init files are written into directory tmp."""
    for path in sorted((ROOT / "tests" / "corpus").glob("*.ptso")):
        program = str(path.relative_to(ROOT))
        prog = lang.parse_program(path.read_text())
        over = over_bound_start(prog)
        init = tmp / f"{path.stem}.over1.json"
        if over is not None:
            init.write_text(json.dumps(semantics.config_to_json(prog, over)))
        for label in sorted(prog.labels()):
            for bound in ("1", "3"):
                for strict in ([], ["--strict"]):
                    common = [program, "--label", label, "--bound", bound, *strict]
                    for sub in SUBCOMMANDS:
                        yield [sub, *common, *CAPS.get(sub, [])]
                    yield ["never-reach", *common, "--bound-max", "4"]
            if path.stem in DEEP:
                for strict in ([], ["--strict"]):
                    for sub in SUBCOMMANDS[:4]:
                        yield [sub, program, "--label", label, "--bound", "16", *strict]
            for beta in BETAS:
                yield ["eagerness", program, "--label", label, "--bound", "3", "--beta", beta]
            for seed in ("0", "1"):
                yield ["simulate", program, "--label", label, "--runs", "200",
                       "--horizon", "100", "--seed", seed]
            if over is not None:
                for strict in ([], ["--strict"]):
                    for sub in SUBCOMMANDS:
                        yield [sub, program, "--label", label, "--bound", "1", *strict,
                               "--init", str(init), *CAPS.get(sub, [])]
                for seed in ("0", "1"):
                    yield ["simulate", program, "--label", label, "--runs", "200",
                           "--horizon", "100", "--seed", seed, "--init", str(init)]


def run(argv, alarm):
    out = io.StringIO()
    t0 = time.perf_counter()
    signal.alarm(alarm)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Alarm:
        return ["alarm", None, round(time.perf_counter() - t0, 3)]
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:
        return [f"raise {type(exc).__name__}", None, round(time.perf_counter() - t0, 3)]
    finally:
        signal.alarm(0)
    seconds = round(time.perf_counter() - t0, 3)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest(), seconds]


def compare(a, b):
    """Print the queries whose exit code or sha256 differ, each side's
    seconds per subcommand where recorded, and the queries that alarmed;
    returns the number of differing queries."""
    differ = sorted(q for q in a.keys() | b.keys()
                    if (a.get(q) or [])[:2] != (b.get(q) or [])[:2])
    for q in differ:
        print(f"{q}: {a.get(q)} != {b.get(q)}")
    print(f"{len(differ)} of {len(a.keys() | b.keys())} queries differ")
    for side, got in (("A", a), ("B", b)):
        seconds = collections.Counter()
        for q, entry in got.items():
            if len(entry) > 2:
                seconds[q.split()[0]] += entry[2]
        if seconds:
            print(f"{side} seconds: " + ", ".join(f"{sub} {seconds[sub]:.1f}"
                                                  for sub in sorted(seconds)))
        for q in sorted(q for q, entry in got.items() if entry[0] == "alarm"):
            print(f"{side} alarm: {q}")
    return len(differ)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", metavar="FILE")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--alarm", type=int, default=20, metavar="SECONDS")
    args = ap.parse_args(argv)

    if args.compare:
        a, b = (json.loads(pathlib.Path(f).read_text()) for f in args.compare)
        return 1 if compare(a, b) else 0

    def on_alarm(signum, frame):
        raise Alarm

    signal.signal(signal.SIGALRM, on_alarm)
    out = pathlib.Path(args.out).resolve()
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        got = {" ".join(q).replace(tmp, "$TMP"): run(q, args.alarm)
               for q in queries(pathlib.Path(tmp))}
    out.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    codes = collections.Counter(entry[0] for entry in got.values())
    print(f"{len(got)} queries; exit codes {dict(codes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
