"""Seeded fuzzing of the command line: mutated ring files, S-matrix files and argv.

Every case runs in process through cli.main and must end as the CLI promises:
exit 0; exit 1 with exactly one line `error: <FusionRingError subclass>: ...` on
stderr; exit 1 with nothing on stderr when validate reports an invalid ring, or
analyze a failed check under an --epsilon other than the default; or argparse's
exit 2. The loader validates every ring before analyze runs, so at the default
tolerance a failed check means the library's theorem checks disagree with it. A traceback, an exception that
escapes main, a second stderr line or any other exit code fails the test and
names the case. The seed fixes the corpus; MUTATIONS, TOKENS, VALUES and
EXTREMES list what is tried, so a new reader or option inherits them.
"""

import contextlib
import io
import json
import random
import re

import pytest

from conftest import entry, ring_of
from fusionring import cli, errors, save_ring, save_smatrix
from fusionring.spectral import DEFAULT_EPS

TYPED = {name for name, value in vars(errors).items()
         if isinstance(value, type) and issubclass(value, errors.FusionRingError)}
ERROR_LINE = re.compile(r"error: (\w+): [^\n]*\n")

# rings with modular data (an S-matrix file), a noncommutative ring and a rank-1 ring
RINGS = ["fibonacci", "ising", "pointed_zn(4)", "su2_k(3)", "rep_s3", "vec_s3", "trivial"]
SUBCOMMANDS = ["validate", "analyze", "characters", "kernel", "grading", "brauer", "modular"]

# text inserted into a file: JSON tokens a reader must refuse or take, and bytes outside UTF-8
TOKENS = [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1", b"null", b"true", b"0.5",
          b"12345678901234567890", b'"x"', b"[]", b"{}", b",", b"]", b"[", b"}", b'"\\ud800"',
          b"\xff", b"\xc3", b"\xe9", b"\x00", b"2", b"9"]
# values a key of the file is set to
VALUES = [2**70, -2**70, 2**63, -1, 0, 1, 2, 1.5, float("nan"), True, None, "x", "", [], [[]],
          {}, [0], ["a", "a"], [[[1]]], [[[1, 0], [0, 1]]]]
# option values at and beyond the edges of what the parsers accept
EXTREMES = {
    "--epsilon": ["5e-324", "1e-300", "1e-20", "1e-4", "0.5", "1.5", "1e300",
                  "1.7976931348623157e308", "inf", "nan", "0", "-1e-9", "x"],
    "--seed": ["0", "1", "4294967296", "9223372036854775808", str(10**30), "-1", "x"],
    "--cap": ["1", "2", "1000", str(2**63), str(10**30), "0", "-1", "x"],
}


def flip_byte(rng, data):
    k = rng.randrange(len(data))
    return data[:k] + bytes([rng.randrange(256)]) + data[k + 1:]


def delete_bytes(rng, data):
    k = rng.randrange(len(data))
    return data[:k] + data[k + rng.randrange(1, 8):]


def insert_token(rng, data):
    k = rng.randrange(len(data) + 1)
    return data[:k] + rng.choice(TOKENS) + data[k:]


def truncate(rng, data):
    return data[:rng.randrange(len(data))]


def set_key(rng, data):
    obj = json.loads(data)
    obj[rng.choice(sorted(obj))] = rng.choice(VALUES)
    return json.dumps(obj).encode()


def delete_key(rng, data):
    obj = json.loads(data)
    del obj[rng.choice(sorted(obj))]
    return json.dumps(obj).encode()


def set_entry(rng, data):
    """One entry of the first nested list of numbers of the file set to a value or a token."""
    obj = json.loads(data)
    key = "N" if "N" in obj else "S"
    node = obj[key]
    while isinstance(node[0], list) and isinstance(node[0][0], list):
        node = node[rng.randrange(len(node))]
    row = node[rng.randrange(len(node))]
    row[rng.randrange(len(row))] = rng.choice(VALUES)
    return json.dumps(obj).encode()


MUTATIONS = [flip_byte, delete_bytes, insert_token, truncate, set_key, delete_key, set_entry]


def outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv); an argparse exit is ("argparse", code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


def reported_failure(argv, out):
    """Whether stdout is a report of an invalid ring (validate), or of a failed check
    (analyze) under an --epsilon other than the default."""
    if argv[0] == "validate":
        return "valid: False" in out or '"valid": false' in out
    eps = float(argv[argv.index("--epsilon") + 1]) if "--epsilon" in argv else DEFAULT_EPS
    return (argv[0] == "analyze" and not eps == DEFAULT_EPS
            and ("FAIL (" in out or '"passed": false' in out))


def check(argv):
    code, out, err = outcome(argv)
    if code == 0 and not err:
        return
    if code == 1:
        match = ERROR_LINE.fullmatch(err)
        if match and match.group(1) in TYPED or not err and reported_failure(argv, out):
            return
    if code == ("argparse", 2) and err.endswith("\n") and "Traceback" not in err:
        return
    pytest.fail(f"{argv}: exit {code}, stderr {err!r}")


def write_files(tmp_path):
    """Per ring, the text of its ring file and of its S-matrix file (None without one)."""
    files = {}
    for name in RINGS:
        ring_path = tmp_path / "ring.json"
        save_ring(ring_of(name), ring_path)
        s_text = None
        if entry(name).smatrix is not None:
            save_smatrix(entry(name).smatrix, tmp_path / "s.json")
            s_text = (tmp_path / "s.json").read_bytes()
        files[name] = ring_path.read_bytes(), s_text
    return files


def command_argv(rng, command, ring_path, s_path, labels):
    argv = [command, "--ring", str(ring_path)]
    if command in ("kernel", "grading", "brauer"):
        argv += ["--object", rng.choice(list(labels) + ["", "no such label"])]
    if command == "modular" and s_path is not None:
        argv += ["--smatrix", str(s_path)]
    if rng.random() < 0.5:
        argv += ["--format", rng.choice(["json", "text"])]
    options = ["--epsilon", "--seed"] + (["--cap"] if command == "brauer" else [])
    for option in rng.sample(options, rng.randrange(len(options) + 1)):
        argv += [option, rng.choice(EXTREMES[option])]
    return argv


@pytest.mark.parametrize("seed", range(4))
def test_fuzzed_files_and_argv_end_in_an_exit_the_cli_promises(tmp_path, seed):
    rng = random.Random(seed)
    files = write_files(tmp_path)
    ring_path, s_path = tmp_path / "fuzz.json", tmp_path / "fuzz.S.json"
    for _ in range(60):
        name = rng.choice(RINGS)
        ring_text, s_text = files[name]
        command = rng.choice(SUBCOMMANDS if s_text is not None else SUBCOMMANDS[:-1])
        target = rng.choice(["ring", "smatrix", "argv"] if command == "modular" else
                            ["ring", "argv"])
        ring_path.write_bytes(rng.choice(MUTATIONS)(rng, ring_text) if target == "ring"
                              else ring_text)
        if s_text is not None:
            s_path.write_bytes(rng.choice(MUTATIONS)(rng, s_text) if target == "smatrix"
                               else s_text)
        argv = command_argv(rng, command, ring_path, s_path if s_text else None,
                            ring_of(name).labels)
        check(argv)


def test_the_corpus_holds_a_file_that_is_not_utf8(tmp_path):
    # the reader's UnicodeDecodeError clause is what makes such a file a ParseError
    rng = random.Random(0)
    text = write_files(tmp_path)["ising"][0]
    for _ in range(200):
        mutated = rng.choice(MUTATIONS)(rng, text)
        try:
            mutated.decode("utf-8")
        except UnicodeDecodeError:
            break
    else:
        pytest.fail("no mutation left UTF-8")
    path = tmp_path / "bad.json"
    path.write_bytes(mutated)
    code, _, err = outcome(["analyze", "--ring", str(path)])
    assert code == 1 and err.startswith("error: ParseError:") and "not UTF-8" in err


def test_extreme_options_on_builtins_end_in_an_exit_the_cli_promises():
    rng = random.Random(7)
    for _ in range(60):
        name = rng.choice(RINGS)
        command = rng.choice(SUBCOMMANDS[:-1])
        check(command_argv(rng, command, name, None, ring_of(name).labels))
