"""Golden CLI output: sha256 digests of stdout and the exit code for fixed
queries. The cases are criterion 10's subcommand list plus three queries whose
JSON carries a witness path with update schedules. A refactor that changes a
single output byte fails here; regenerate a digest only for a deliberate
change of the output format or of an analysis result."""

import contextlib
import hashlib
import io
import pathlib

import pytest

from ptso_verify import cli

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"

GOLDEN = [
    ("parse", "race_flag", [], 0,
     "a4956cbbdceb66ef0d4fee0e6c3ef41f0a330999976e74798b158020067b4fa9"),
    ("qual-reach", "once_then_term", ["--label", "WIN"], 0,
     "8486b4e17eafd2caa5606589cd090071720d5e3942eb394c40290980581bb24f"),
    ("qual-rep-reach", "once_then_term", ["--label", "WIN"], 1,
     "64dab82890eaefc85fe00b3ee6f5d53d62ff98dfed0b2c90252ffdaf0a79fa91"),
    ("never-reach", "dead_label", ["--label", "DEAD"], 0,
     "92976fc256305415c732609681e5995926add1e3c565047a8007ffaf3e077c28"),
    ("never-rep-reach", "once_then_term", ["--label", "WIN"], 0,
     "47f66e5977decf17cbd75bc74de352b6eca2ae9d9bcb4bfda5232154e3a75fd7"),
    ("quant-reach", "race_flag", ["--label", "W1", "--epsilon", "1/100"], 0,
     "add9a94ab1632dc3f9e58793b851b1a093b64d0a92830bbd377471fe82b4fe06"),
    ("quant-rep-reach", "two_sccs", ["--label", "A1", "--epsilon", "1/100"], 0,
     "e8df8c824aa0fe4d0e6ec454905b32e9fffd569d7514bd9a7a3e64eae39ce96c"),
    ("cost", "race_costs", ["--label", "GOAL", "--max-layers", "350"], 4,
     "7eecbd59adcd3070b6b935dc0235c01fb63f6d0ebbf13e2dd70e5015ba4b87b8"),
    ("simulate", "race_flag", ["--label", "W1", "--runs", "2000",
                               "--horizon", "100", "--seed", "7"], 0,
     "ffdf031e2105d97fd440f73175a1231d18428779c587a81822a24257931e0aca"),
    ("eagerness", "race_flag", ["--label", "W1"], 0,
     "b3bbda2c6249aea0611ad8fda38fcca6d672b1188fa7a00985fa7ed739ac01c7"),
    # the 534-member certificate: one witness path per label-free A member
    ("eagerness", "writer_reader", ["--label", "WIN"], 0,
     "c358712dc1ea0ba33226660346fb6d1e5631c2a9e84076ac2e551c572ad6e36f"),
    # witness-bearing: every step prints its process and update schedule
    ("qual-reach", "race_flag", ["--label", "W1"], 1,
     "8aa4986a7093d6bb479a533b1b39d8d621f737734bbafb8de78dd4a7c4e650f4"),
    ("never-reach", "race_flag", ["--label", "W1"], 1,
     "762d2fc697d43faba90d0b1fe28dd8599acf89499b25e553554e48b4e7cdaaf7"),
    ("never-rep-reach", "writer_reader", ["--label", "WIN"], 1,
     "6adff70076d67343b8708d5dcc0f698c7189b45bfcfb209595f42da4c961e375"),
    # never-reach deepening: bounds 2, 4, 8, 12; 3, 6, 10 (strict Unknown);
    # 1, 2, 4, 8, 14 (witness found below the last bound)
    ("never-reach", "loop_all", ["--label", "PT", "--bound", "2", "--bound-max", "12"], 0,
     "8ea2da70dc00199b04fa5a924571d019d3baa849956ba249c45f1b94f2ed6fea"),
    ("never-reach", "loop_all",
     ["--label", "PT", "--bound", "3", "--bound-max", "10", "--strict"], 3,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("never-reach", "writer_reader", ["--label", "WIN", "--bound", "1", "--bound-max", "14"], 1,
     "4f3f4ab476674906332eb3886884d2dcf0c02325565bcae8aaa87206a1d859cc"),
]


@pytest.mark.parametrize("sub,name,extra,code,digest", GOLDEN,
                         ids=[f"{g[0]}-{g[1]}" for g in GOLDEN])
def test_golden_stdout(sub, name, extra, code, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = cli.main([sub, str(CORPUS_DIR / f"{name}.ptso"), *extra])
    assert got == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
