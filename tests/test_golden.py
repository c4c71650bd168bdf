"""Golden output: stdout, stderr and exit code of a fixed set of requests.

Each request runs in process, in text and under --json, and must print
exactly what tests/golden/<name>.txt holds. The requests cover every
factorization route, the randomized check above the cap, the staged
vanishing test, a twisted determinant and a verify mismatch. README
promises byte-identical output for identical argv and seed; these files
hold that promise to the recorded bytes.

    PYTHONPATH=src python3 tests/test_golden.py

rewrites the files from the current tree, for a change that means to
alter the output.
"""

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from frobdet.cli import run
from frobdet.semigroups import adjoin_zero, build_family, emit_sgp

from corpus import zmult

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
DATA = HERE.parent / "data"

TABLES = {
    "zmod_add6": lambda: build_family("zmod_add", 6),
    "zmod_add16": lambda: build_family("zmod_add", 16),
    "gcd8": lambda: build_family("gcd", 8),
    "zmult12": lambda: zmult(12),
    "zero_zmod_add5": lambda: adjoin_zero(build_family("zmod_add", 5)),
    "rook2": lambda: build_family("rook", 2),
    "rook3": lambda: build_family("rook", 3),
    "three_nil": lambda: build_family("three_nil", "10,01"),
}

# name -> argv; {<key of TABLES>} names that table's file, {data} the
# data directory, and {twist}, {det} and {wrong} the files make_inputs writes
REQUESTS = {
    "factor-zmod_add6": ["factor", "{zmod_add6}"],
    "factor-zmod_add16": ["factor", "{zmod_add16}"],
    "factor-gcd8": ["factor", "{gcd8}"],
    "factor-zmult12": ["factor", "{zmult12}"],
    "factor-zero_zmod_add5": ["factor", "{zero_zmod_add5}"],
    "factor-rook2": ["factor", "{rook2}"],
    "factor-rook3": ["factor", "{rook3}"],
    "factor-wenger-contracted": ["factor", "{data}/wenger.sgp",
                                 "--contracted"],
    "factor-three_nil-twisted": ["factor", "{three_nil}", "--twist",
                                 "{twist}"],
    "det-three_nil-twisted": ["det", "{three_nil}", "--twist", "{twist}"],
    "factor-clifford_z3_z4": ["factor", "{data}/clifford_z3_z4.sgp"],
    "verify-zmod_add6-mismatch": ["verify", "{det}", "{wrong}"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def make_inputs(directory):
    """Write every input file into directory and return the argv fields."""
    fields = {"data": str(DATA)}
    for name, build in TABLES.items():
        path = directory / f"{name}.sgp"
        path.write_text(emit_sgp(build()))
        fields[name] = str(path)
    fields["twist"] = str(directory / "twist.coc")
    pathlib.Path(fields["twist"]).write_text("s1 s1 -1\ns2 s2 -1\n")
    # zmod_add 6's determinant and its factorization with constant 2
    fields["det"] = str(directory / "zmod_add6.det")
    _, det, _ = run_cli(["det", fields["zmod_add6"]])
    pathlib.Path(fields["det"]).write_text(det)
    _, fact, _ = run_cli(["factor", fields["zmod_add6"], "--json"])
    wrong = json.loads(fact)
    wrong["constant"] = "2"
    fields["wrong"] = str(directory / "zmod_add6-wrong.json")
    pathlib.Path(fields["wrong"]).write_text(json.dumps(wrong, indent=2))
    return fields


def rendered(name, json_mode, fields):
    """One request's exit code, stdout and stderr as one text."""
    argv = [a.format(**fields) for a in REQUESTS[name]]
    code, out, err = run_cli(argv + (["--json"] if json_mode else []))
    return f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}"


def golden_file(name, json_mode):
    return GOLDEN / (name + (".json" if json_mode else "") + ".txt")


@pytest.fixture(scope="module")
def fields(tmp_path_factory):
    return make_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_golden_output(name, json_mode, fields):
    assert rendered(name, json_mode, fields) == \
        golden_file(name, json_mode).read_text()


def test_every_golden_file_is_a_request():
    expected = {golden_file(n, j).name for n in REQUESTS
                for j in (False, True)}
    assert {p.name for p in GOLDEN.glob("*.txt")} == expected


def record():
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        fields = make_inputs(pathlib.Path(tmp))
        for name in REQUESTS:
            for json_mode in (False, True):
                golden_file(name, json_mode).write_text(
                    rendered(name, json_mode, fields))


if __name__ == "__main__":
    record()
