"""Malformed text inputs must fail with ParseError, never anything else, and
the command line must answer any argv with a documented exit code."""

import random
import string
from collections import Counter

import pytest

from bredim import cli
from bredim.errors import ParseError
from bredim.gog import parse_gog
from bredim.homology import read_chain_complex
from bredim.lattice import read_lattice, read_matrix
from bredim.raag import parse_dimacs, parse_graph, read_graph

READERS = [
    read_lattice,
    read_matrix,
    read_chain_complex,
    parse_graph,
    parse_dimacs,
    read_graph,
    parse_gog,
]

ALPHABET = string.digits + string.ascii_lowercase + " -\n\t#=."


def _garbage(rng: random.Random) -> str:
    length = rng.randint(0, 120)
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def _mangled_valid(rng: random.Random) -> str:
    seeds = [
        "2 1\n2 4\n",
        "3 2\n0 1\n1 2\n",
        "degrees 2\n1 2 1\n# boundary 1\n0 0\n# boundary 2\n0\n0\n",
        "vertex A rank=2\nvertex B rank=3\nedge A B finite\nacylindrical = true\n",
        "p edge 3 2\ne 1 2\ne 2 3\n",
    ]
    text = list(rng.choice(seeds))
    for _ in range(rng.randint(1, 5)):
        action = rng.randrange(3)
        if action == 0 and text:
            text.pop(rng.randrange(len(text)))
        elif action == 1:
            text.insert(rng.randrange(len(text) + 1), rng.choice(ALPHABET))
        elif text:
            text[rng.randrange(len(text))] = rng.choice(ALPHABET)
    return "".join(text)


@pytest.mark.parametrize("reader", READERS)
def test_fuzz_random_garbage(reader):
    rng = random.Random(20240)
    for _ in range(400):
        payload = _garbage(rng)
        try:
            reader(payload)
        except ParseError:
            pass


@pytest.mark.parametrize("reader", READERS)
def test_fuzz_mangled_valid_inputs(reader):
    rng = random.Random(20241)
    for _ in range(400):
        payload = _mangled_valid(rng)
        try:
            reader(payload)
        except ParseError:
            pass


def test_parse_errors_carry_line_numbers():
    rng = random.Random(20242)
    seen = 0
    for _ in range(200):
        payload = _mangled_valid(rng)
        for reader in READERS:
            try:
                reader(payload)
            except ParseError as exc:
                assert exc.line_number >= 1
                seen += 1
    assert seen > 100


# ---------------------------------------------------------------------------
# The command line: random argv built from real subcommand and flag tokens
# plus garbage, over random input files, must end in a documented exit code
# with at most one line on stderr, and never hang: a replay of 7 * 2^39 - 6
# derivation nodes must answer at once.  Input numbers stay small so every
# other command is quick; ``verify lattice`` and ``verify all`` (about ten
# seconds each) are skipped, and -h, --help and --version, which argparse
# ends with SystemExit by design, are never drawn.
# ---------------------------------------------------------------------------

CLI_TEMPLATES = [
    "lattice hnf F",
    "lattice snf F",
    "lattice saturate F",
    "lattice complement F",
    "lattice index F F",
    "lattice commensurable F F",
    "lattice map-auto F F",
    "raag cliques F --list",
    "raag cd F",
    "raag gd F --k 1",
    "raag salvetti F --cohomology",
    "dims vab --n 3 --k 1",
    "dims vab --n 2 --k 2",
    "dims braid --n 4 --k 1 --pure",
    "dims out-fn --n 3 --k 1",
    "dims out-diamonds --d 2 --k 1",
    "dims derive-zn --n 4 --k 2 --tree",
    "dims derive-zn --n 40 --k 39",
    "gog gd --k 2 F",
    "gog bounds --k 1 F",
    "gog census --k 1 F",
    "gog census --k 0 F",
    "verify dims --seed 3",
    "verify homology",
]

CLI_TOKENS = (
    "lattice raag dims gog verify hnf snf saturate complement index commensurable "
    "map-auto cliques cd gd salvetti vab braid out-fn out-diamonds derive-zn bounds "
    "census homology --list --tree --pure --cohomology --format human structured "
    "--seed --k --n --d -1 0 1 2 3 5 12 39 40 F F F"
).split()

CLI_GARBAGE = [""] + "--bogus -q --k= --n=3 --format=xml x 3.5 1e3 -- = //".split()

VALID_FILES = [
    "3 3\n2 4 4\n-6 6 12\n10 -4 -16\n",
    "2 1\n2 4\n",
    "3 2\n1 2 3\n0 1 1\n",
    "3 2\n2 0 0\n0 1 0\n",
    "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    "p edge 3 2\ne 1 2\ne 2 3\n",
    "vertex A rank=2\nvertex B rank=3\nedge A B finite\nacylindrical = true\n",
    "vertex A rank=2\nvertex B rank=2\nedge A B rank=2\nacylindrical = true\n",
]

FILE_TOKENS = (
    "0 1 2 3 4 -1 -6 # c p e edge col vertex A B C rank=0 rank=1 rank=2 rank=x "
    "finite acylindrical = true false x"
).split()


def _cli_file(rng: random.Random) -> str:
    """A valid input, a token-level mutation of one, or lines of loose tokens."""
    roll = rng.random()
    if roll < 1 / 3:
        return rng.choice(VALID_FILES)
    if roll < 2 / 3:
        lines = [line.split() for line in rng.choice(VALID_FILES).splitlines()]
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(lines)
            action = rng.randrange(3)
            if action == 0 and row:
                row.pop(rng.randrange(len(row)))
            elif action == 1:
                lines.insert(rng.randrange(len(lines) + 1), list(row))
            elif row:
                row[rng.randrange(len(row))] = rng.choice(FILE_TOKENS)
    else:
        lines = [
            [rng.choice(FILE_TOKENS) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 5))
        ]
    return "".join(" ".join(row) + "\n" for row in lines)


def _cli_argv(rng: random.Random, files: list[str]) -> list[str]:
    argv = rng.choice(CLI_TEMPLATES).split()
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        token = rng.choice(CLI_TOKENS + CLI_GARBAGE)
        action = rng.randrange(3)
        if action == 0 and argv:
            argv.pop(rng.randrange(len(argv)))
        elif action == 1:
            argv.insert(rng.randrange(len(argv) + 1), token)
        elif argv:
            argv[rng.randrange(len(argv))] = token
    return [rng.choice(files) if token == "F" else token for token in argv]


def test_fuzz_cli_exit_codes(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BREDIM_SEED", raising=False)
    rng = random.Random(20243)
    files = []
    for i in range(40):
        path = tmp_path / f"input{i}.txt"
        path.write_text(_cli_file(rng))
        files.append(str(path))
    files.append(str(tmp_path / "missing.txt"))
    codes = Counter()
    for _ in range(1000):
        argv = _cli_argv(rng, files)
        if "verify" in argv and {"lattice", "all"} & set(argv):
            continue
        code, _ = cli.run(argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 64, 70), argv
        assert "Traceback" not in err, argv
        assert (err == "") == (code == 0), argv
        assert err.count("\n") <= 1, argv
        codes[code] += 1
    # The draws reach the handlers, not only the argument parser.
    assert codes[0] and codes[2] and codes[3] and codes[64]
