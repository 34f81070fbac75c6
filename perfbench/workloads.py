"""The four seeded workloads: request generators and their answer checks.

A workload turns a seed into a deterministic stream of :class:`Request`
objects.  Generating a request (drawing numbers, writing input files) and
checking its answer both happen outside the timed region; only
``Request.run`` is timed.

Each workload repeats a fixed cycle of (kind, size) pairs, and a run ends
on a whole number of cycles.  Every seed therefore sends exactly the same
mix of kinds and sizes; the seed changes only the random content.  That
keeps the run-to-run spread down.
"""

from __future__ import annotations

import io
import itertools
import random
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from bredim import cli, lattice as L

import checks
from checks import CheckError, Rows, require

MIN_REQUESTS = 100
TINY_MIN_REQUESTS = 10


@dataclass
class Request:
    kind: str
    key: str  # the full input, for counting repeats
    run: Callable[[], object]
    check: Callable[[object], None]


def output_text(output: object) -> str:
    """Canonical text of a response, for the golden digest."""
    if isinstance(output, tuple):
        code, stdout, stderr = output
        return f"exit {code}\n{stdout}\x00{stderr}"
    if isinstance(output, L.Sublattice):
        return f"lattice {output.ambient_dim} {output.basis.to_rows()}"
    if isinstance(output, L.IntMatrix):
        return f"matrix {output.to_rows()}"
    return f"{type(output).__name__} {output}"


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Input generation.
# ---------------------------------------------------------------------------


def rand_rows(rng: random.Random, rows: int, cols: int, bound: int) -> Rows:
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def independent_rows(rng: random.Random, rows: int, cols: int, bound: int) -> Rows:
    while True:
        out = rand_rows(rng, rows, cols, bound)
        if checks.rank(out) == rows:
            return out


def nonsingular(rng: random.Random, n: int, bound: int, diag=(1, 2, 3)) -> Rows:
    """Lower unitriangular times upper triangular: determinant is known."""
    lower = [[1 if i == j else (rng.randint(-bound, bound) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[rng.choice(diag) if i == j else (rng.randint(-bound, bound) if j > i else 0) for j in range(n)] for i in range(n)]
    return checks.matmul(lower, upper)


def unimodular(rng: random.Random, n: int) -> Rows:
    return nonsingular(rng, n, 2, diag=(1, -1))


def write_matrix_file(path: Path, rows: Rows, cols: int) -> None:
    lines = [f"{cols} {len(rows)}"] + [" ".join(map(str, r)) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def random_graph(rng: random.Random, vertices: int, density: float) -> list[tuple[int, int]]:
    """A uniform graph with exactly ``round(density * V(V-1)/2)`` edges."""
    pairs = list(itertools.combinations(range(vertices), 2))
    return sorted(rng.sample(pairs, round(density * len(pairs))))


def write_graph_file(path: Path, vertices: int, edges) -> None:
    lines = [f"{vertices} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class Workload:
    """Base class: a seeded request stream plus its warm-up request."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool, part: int = 0) -> None:
        """``part`` k > 0 draws its own stream from the same seed, for the
        k-th process of a run split into parts."""
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.stream_key = f"{self.name}:{seed}" + (f":part{part}" if part else "")
        self.check_rng = random.Random(f"{self.name}:check:{seed}" + (f":part{part}" if part else ""))
        self._files = 0

    def path(self, kind: str) -> Path:
        self._files += 1
        return self.workdir / f"{self._files:06d}-{kind}.txt"

    def cycle(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def make(self, kind: str, size, rng: random.Random) -> Request:
        raise NotImplementedError

    def requests(self) -> Iterator[Request]:
        rng = random.Random(self.stream_key)
        for kind, size in itertools.cycle(self.cycle()):
            yield self.make(kind, size, rng)

    def warmup(self) -> Request:
        return self.make(*self.cycle()[0], random.Random(f"{self.name}:warmup:{self.seed}"))


# ---------------------------------------------------------------------------
# lattice-stream: library calls into bredim.lattice.
# ---------------------------------------------------------------------------


class LatticeStream(Workload):
    name = "lattice-stream"
    ops = (
        "saturation",
        "intersect",
        "lattice_sum",
        "index",
        "commensurable",
        "direct_complement",
        "mapping_automorphism",
    )

    def __init__(self, seed: int, workdir: Path, tiny: bool, part: int = 0) -> None:
        super().__init__(seed, workdir, tiny, part)
        self.seen: set[int] = set()

    dims = (4, 4, 5, 5, 6, 6, 7, 7, 8, 9, 10, 11, 12, 14, 16)  # weighted toward small n

    def cycle(self):
        return [(op, n) for n in ((3, 4, 5, 6) if self.tiny else self.dims) for op in self.ops]

    def make(self, kind: str, size, rng: random.Random) -> Request:
        while True:
            request = getattr(self, "_" + kind)(rng, size)
            key = hash(request.key)
            if key not in self.seen:  # no input repeats
                self.seen.add(key)
                return request

    def _saturation(self, rng, n):
        r = rng.randint(1, n - 1)
        base = unimodular(rng, n)[:r]
        gens = checks.matmul(nonsingular(rng, r, 2), base)

        def check(out):
            checks.check_same_lattice(base, out.basis.to_rows(), "saturation")

        return Request("saturation", f"sat {gens}", lambda: L.saturation(L.sublattice_from_generators(n, gens)), check)

    def _intersect(self, rng, n):
        ra = rng.randint(1, n - 1)
        a = independent_rows(rng, ra, n, 5)
        inner = None
        if rng.random() < 2 / 3:
            # b = k @ a plus rows independent of a over Q, so a cap b is
            # exactly the lattice spanned by k @ a.
            extra = rng.randint(0, n - ra)
            while True:
                inner = checks.matmul(nonsingular(rng, ra, 2), a)
                b = inner + rand_rows(rng, extra, n, 5)
                if checks.rank(b) == len(b):
                    break
        else:
            b = independent_rows(rng, rng.randint(1, n - 1), n, 5)

        def check(out):
            got = out.basis.to_rows()
            if inner is not None:
                checks.check_same_lattice(inner, got, "intersect")
            else:
                checks.check_intersect(a, b, got)

        return Request(
            "intersect",
            f"int {a} {b}",
            lambda: L.intersect(L.sublattice_from_generators(n, a), L.sublattice_from_generators(n, b)),
            check,
        )

    def _lattice_sum(self, rng, n):
        a = rand_rows(rng, rng.randint(1, n - 1), n, 5)
        if rng.random() < 0.5:
            b = checks.matmul(rand_rows(rng, rng.randint(1, n), len(a), 2), a)
        else:
            b = rand_rows(rng, rng.randint(1, n - 1), n, 5)
        check_rng = self.check_rng

        def check(out):
            checks.check_sum(a, b, out.basis.to_rows(), check_rng)

        return Request(
            "lattice_sum",
            f"sum {a} {b}",
            lambda: L.lattice_sum(L.sublattice_from_generators(n, a), L.sublattice_from_generators(n, b)),
            check,
        )

    def _index(self, rng, n):
        r = rng.randint(1, n - 1)
        sup = independent_rows(rng, r, n, 5)
        if r > 1 and rng.random() < 0.2:
            coeffs = rand_rows(rng, rng.randint(1, r - 1), r, 3)
            expected = None
        else:
            coeffs = nonsingular(rng, r, 2)
            expected = abs(checks.int_det(coeffs))
        sub = checks.matmul(coeffs, sup)
        check_rng = self.check_rng

        def check(out):
            checks.check_index(expected, out, check_rng, coeffs)

        return Request(
            "index",
            f"idx {sub} {sup}",
            lambda: L.index(L.sublattice_from_generators(n, sub), L.sublattice_from_generators(n, sup)),
            check,
        )

    def _commensurable(self, rng, n):
        r = rng.randint(1, n - 1)
        a = independent_rows(rng, r, n, 5)
        b = checks.matmul(nonsingular(rng, r, 2), a)
        if rng.random() < 0.5:
            b[rng.randrange(r)] = rand_rows(rng, 1, n, 5)[0]

        def check(out):
            require(out is checks.commensurable(a, b), "commensurable: wrong answer")

        return Request(
            "commensurable",
            f"com {a} {b}",
            lambda: L.commensurable(L.sublattice_from_generators(n, a), L.sublattice_from_generators(n, b)),
            check,
        )

    def _direct_complement(self, rng, n):
        r = rng.randint(1, n - 1)
        base = unimodular(rng, n)[:r]
        gens = checks.matmul(unimodular(rng, r), base)

        def check(out):
            checks.check_complement(base, out.basis.to_rows())

        return Request(
            "direct_complement",
            f"cpl {gens}",
            lambda: L.direct_complement(L.sublattice_from_generators(n, gens)),
            check,
        )

    def _mapping_automorphism(self, rng, n):
        r = rng.randint(1, n - 1)
        src = unimodular(rng, n)[:r]
        dst = unimodular(rng, n)[:r]

        def check(out):
            checks.check_automorphism(src, dst, out.to_rows())

        return Request(
            "mapping_automorphism",
            f"aut {src} {dst}",
            lambda: L.mapping_automorphism(L.sublattice_from_generators(n, src), L.sublattice_from_generators(n, dst)),
            check,
        )


# ---------------------------------------------------------------------------
# normal-forms: `bredim lattice hnf|snf` through cli.main.
# ---------------------------------------------------------------------------


def expect_ok(out) -> tuple[dict[str, str], dict[str, Rows]]:
    code, stdout, stderr = out
    require(code == 0, f"exit code {code}: {stderr.strip()[:80]}")
    require(stderr == "", "unexpected stderr output")
    return checks.parse_report(stdout)


def expect_refusal(out) -> None:
    code, stdout, stderr = out
    require(code == 3, f"expected exit 3, got {code}")
    require(stdout == "" and stderr.startswith("error: "), "refusal output is malformed")


class NormalForms(Workload):
    name = "normal-forms"

    def cycle(self):
        """Per 5 requests: 3 square HNFs, 1 stacked HNF, 1 SNF."""
        if self.tiny:
            squares, stacks, snfs = (6, 7, 8, 9, 10, 11), (6, 8), (4, 5)
        else:
            squares, stacks, snfs = tuple(range(15, 27)), (14, 16, 18, 20), (8, 9, 10, 11)
        out = []
        for i, (stack, snf) in enumerate(zip(stacks, snfs)):
            a, b, c = squares[3 * i : 3 * i + 3]
            out += [("hnf-square", a), ("hnf-stack", stack), ("hnf-square", b), ("snf", snf), ("hnf-square", c)]
        return out

    def make(self, kind: str, size, rng: random.Random) -> Request:
        n = size
        if kind == "hnf-square":
            # Entries in [-9, 9] up to n = 18 and in [-1, 1] above: beyond
            # that, single HNFs take from milliseconds to seconds and one
            # request would decide a run (see NOTES.md).
            m = rand_rows(rng, n, n, 9 if n <= 18 else 1)
        elif kind == "hnf-stack":
            # The shape intersect hands to HNF: two canonical rank-r bases
            # of Z^n stacked.  Generators stay in [-1, 1]: larger ones give
            # transform entries past the 4300-digit limit on printing ints
            # (see NOTES.md).
            r = rng.randint(n // 2, n - 1)
            m = [
                row
                for _ in range(2)
                for row in L.sublattice_from_generators(n, rand_rows(rng, r, n, 1)).basis.to_rows()
            ]
        else:
            m = rand_rows(rng, n, n, 9)  # n <= 11 keeps S and T under the digit limit
        path = self.path(kind)
        write_matrix_file(path, m, n)
        op = "snf" if kind == "snf" else "hnf"

        def check(out):
            values, blocks = expect_ok(out)
            if op == "hnf":
                checks.check_hnf(m, blocks["H"], blocks["U"])
            else:
                d = blocks["D"]
                require(values["diagonal"].split() == [str(d[i][i]) for i in range(len(d))], "diagonal line disagrees with D")
                checks.check_snf(m, d, blocks["S"], blocks["T"])

        argv = ["lattice", op, str(path)]
        return Request(kind, f"{op} {m}", lambda: run_cli(argv), check)


# ---------------------------------------------------------------------------
# raag-complex: clique search and Salvetti cohomology through cli.main.
# ---------------------------------------------------------------------------


class RaagComplex(Workload):
    name = "raag-complex"
    # (vertices, density) for cliques/cd/gd.  The density cap falls as the
    # graph grows so the clique table, which every command materialises,
    # stays bounded.
    graphs = (
        (30, 0.2), (30, 0.45), (30, 0.7),
        (45, 0.2), (45, 0.4), (45, 0.6),
        (60, 0.2), (60, 0.35), (60, 0.5),
        (80, 0.25), (80, 0.4), (100, 0.3),
    )

    def cycle(self):
        """Each graph for cliques, cd and gd, with a Salvetti request (V = 9,
        10, 11 at density 0.8) after every fourth: 45 requests, 20% Salvetti."""
        if self.tiny:
            graphs, salvetti = ((8, 0.5), (10, 0.4), (12, 0.4), (14, 0.3)), iter((5, 6, 7))
        else:
            graphs, salvetti = self.graphs, iter((9, 10, 11) * 3)
        out = []
        for i, request in enumerate((op, graph) for graph in graphs for op in ("cliques", "cd", "gd")):
            out.append(request)
            if i % 4 == 3:
                out.append(("salvetti", (next(salvetti), 0.8)))
        return out

    def make(self, kind: str, size, rng: random.Random) -> Request:
        vertices, density = size
        edges = random_graph(rng, vertices, density)
        path = self.path(kind)
        write_graph_file(path, vertices, edges)
        argv = ["raag", kind, str(path)]
        k = 0
        if kind == "gd":
            k = rng.randint(0, 2)
            argv += ["--k", str(k)]
        elif kind == "salvetti":
            argv.append("--cohomology")

        def check(out):
            if kind == "salvetti":
                check_salvetti(out, checks.clique_counts_oracle(vertices, edges))
                return
            counts = checks.clique_counts(vertices, edges)
            check_raag_answer(kind, out, counts, k)

        return Request(kind, " ".join(argv[:2]) + f" {vertices} {edges} {k}", lambda: run_cli(argv), check)


def check_raag_answer(kind: str, out, counts: list[int], k: int) -> None:
    cd = len(counts) - 1
    if kind == "gd" and k >= cd:
        expect_refusal(out)
        return
    values, _ = expect_ok(out)
    if kind == "cliques":
        require(values["clique_number"] == str(cd), "wrong clique number")
        got = [int(values[f"count[{size}]"]) for size in range(cd + 1)]
        require(got == counts, "wrong clique counts")
    elif kind == "cd":
        require(values["cd"] == str(cd), "wrong cd")
    else:
        require(values["gd"] == str(cd + k) and values["cd"] == str(cd), "wrong gd")


def check_salvetti(out, counts: list[int]) -> None:
    code, stdout, stderr = out
    require(code == 0 and stderr == "", f"exit code {code}")
    lines = stdout.splitlines()
    top = len(counts) - 1
    for degree, count in enumerate(counts):
        require(lines[2 + degree] == f"H^{degree} = betti={count} torsion=-", f"wrong H^{degree}")
    body = lines[3 + top :]
    require(body[0] == f"degrees {top}", "wrong top degree")
    require(body[1].split() == [str(c) for c in counts], "cell counts differ from the clique counts")
    for line in body[2:]:
        require(line.startswith("# boundary ") or not line.replace("0", "").replace(" ", ""), "nonzero boundary entry")


# ---------------------------------------------------------------------------
# cli-session: desk-scale commands from every non-verify group.
# ---------------------------------------------------------------------------


def fk_dim(rank: int, k: int) -> int:
    return rank + k if k < rank else 0


def expected_gog(op: str, ranks: list[int], edges: list[tuple[int, int, int]], k: int) -> dict[str, str]:
    """The values `bredim gog` must print, from the formulas in its docs."""
    m = max(ranks)
    out = {"k": str(k), "max_rank": str(m)}
    if op == "census":
        return out
    exact = (
        op == "gd"
        and all(r >= 1 for r in ranks)
        and all(rank < min(ranks[a], ranks[b]) for a, b, rank in edges)
        and 1 <= k < m
    )
    if exact:
        out.update(exact="true", gd=str(m + k))
        return out
    out["exact"] = "false"
    if k == 0:
        out.update(gd_lower=str(max([r for r in ranks if r >= 1], default=0)), gd_upper="unknown")
        return out
    lower = max([fk_dim(r, k) for r in ranks] + [fk_dim(rank, k) for _, _, rank in edges])
    upper = max([2] + [fk_dim(r, k) for r in ranks] + [fk_dim(rank, k) + 1 for _, _, rank in edges])
    if lower == upper:
        out["gd"] = str(lower)
    else:
        out.update(gd_lower=str(lower), gd_upper=str(upper))
    return out


class CliSession(Workload):
    name = "cli-session"
    schedule = (
        "vab",
        "braid",
        "derive",
        "gog-gd",
        "lattice-hnf",
        "raag-cliques",
        "derive-tree",
        "out-fn",
        "refuse",
        "gog-bounds",
        "lattice-snf",
        "derive",
        "raag-cd",
        "out-diamonds",
        "lattice-saturate",
        "gog-census",
        "derive-tree",
        "lattice-index",
        "raag-gd",
        "refuse",
        "lattice-commensurable",
        "lattice-complement",
    )

    # (n, k) for derive-zn; the tree has 7 * 2^k - 6 nodes, which sets the cost.
    derive_plan = {"derive": ((3, 1), (6, 3), (9, 6), (12, 9)), "derive-tree": ((2, 1), (5, 3), (8, 6), (12, 10))}

    def cycle(self):
        """The schedule twice over; the four derive-zn slots of each kind
        take the four (n, k) pairs of its plan in turn."""
        out, seen = [], Counter()
        for kind in self.schedule * 2:
            size = None
            if kind in self.derive_plan:
                n, k = self.derive_plan[kind][seen[kind]]
                size = (min(n, 4), min(k, 3)) if self.tiny else (n, k)
                seen[kind] += 1
            out.append((kind, size))
        return out

    def make(self, kind: str, size, rng: random.Random) -> Request:
        group = kind.split("-")[0]
        if kind in ("vab", "braid", "out-fn", "out-diamonds", "derive", "derive-tree"):
            argv, check = self._dims(kind, size, rng, refuse=False)
            key = " ".join(argv)
        elif kind == "refuse":
            argv, check, key = self._refusal(rng)
        else:
            argv, check, key = getattr(self, "_" + group)(kind.split("-", 1)[1], rng)
        return Request(kind, key, lambda: run_cli(argv), check)

    def _dims(self, kind: str, size, rng: random.Random, refuse: bool):
        top = 6 if self.tiny else 12
        structured = kind not in ("derive", "derive-tree") and rng.random() < 1 / 3
        extra = rng.randint(0, 2)
        if kind == "vab":
            n = rng.randint(1, top)
            k = n + extra if refuse else rng.randint(0, n - 1)
            argv = ["dims", "vab", "--n", str(n), "--k", str(k)]
            want = {"n": str(n), "k": str(k), "gd": str(n + k), "cd": str(n + k)}
        elif kind == "braid":
            n = rng.randint(2, top)
            k = n - 1 + extra if refuse else rng.randint(0, n - 2)
            pure = rng.random() < 0.5
            argv = ["dims", "braid", "--n", str(n), "--k", str(k)] + (["--pure"] if pure else [])
            want = {"group": ("P" if pure else "B") + f"_{n}", "gd": str(n + k - 1), "vcd": str(n - 1)}
        elif kind == "out-fn":
            n = rng.randint(2, 10)
            k = 2 * n - 3 + extra if refuse else rng.randint(0, 2 * n - 4)
            argv = ["dims", "out-fn", "--n", str(n), "--k", str(k)]
            want = {"gd_lower": str(2 * n + k - 3), "gd_upper": "unknown"}
        elif kind == "out-diamonds":
            d = rng.randint(1, 5)
            k = 4 * d - 1 + extra if refuse else rng.randint(0, 4 * d - 2)
            argv = ["dims", "out-diamonds", "--d", str(d), "--k", str(k)]
            want = {"gd_lower": str(4 * d + k - 1)}
        else:
            if refuse:
                n = rng.randint(2, top)
                k = n + extra
            else:
                n, k = size
            argv = ["dims", "derive-zn", "--n", str(n), "--k", str(k)]
            if kind == "derive-tree":
                argv.append("--tree")
            # The replay adds 2 * nodes + 6 nodes and two levels per step.
            nodes = 7 * 2**k - 6
            want = {"upper": str(n + k), "nodes": str(nodes), "depth": str(2 * k)}
        if structured:
            argv += ["--format", "structured"]

        def check(out):
            if refuse:
                expect_refusal(out)
                return
            if structured:
                code, stdout, stderr = out
                require(code == 0 and stderr == "", f"exit code {code}")
                values = checks.parse_structured(stdout)
            else:
                values, _ = expect_ok(out)
            for key, value in want.items():
                require(values.get(key) == value, f"{argv[1]}: {key} = {values.get(key)}, expected {value}")
            if kind == "derive-tree":
                records = sum(1 for line in out[1].splitlines() if line.startswith("  node="))
                require(records == nodes, "derivation records do not match the node count")

        return argv, check

    def _refusal(self, rng: random.Random):
        kind = rng.choice(("vab", "braid", "out-fn", "out-diamonds", "derive", "raag-gd", "gog-gd"))
        if kind == "raag-gd":
            return self._raag("gd", rng, refuse=True)
        if kind == "gog-gd":
            return self._gog("gd", rng, refuse=True)
        argv, check = self._dims(kind, None, rng, refuse=True)
        return argv, check, " ".join(argv)

    def _gog(self, op: str, rng: random.Random, refuse: bool = False):
        count = rng.randint(1, 3 if self.tiny else 5)
        ranks = [0 if rng.random() < 0.15 else rng.randint(1, 6) for _ in range(count)]
        edges = []
        for v in range(1, count):
            u = rng.randrange(v)
            low = min(ranks[u], ranks[v])
            edges.append((u, v, 0 if rng.random() < 0.3 else rng.randint(0, low)))
        lines = [f"vertex v{i} rank={r}" for i, r in enumerate(ranks)]
        lines += [f"edge v{u} v{v} " + ("finite" if rank == 0 else f"rank={rank}") for u, v, rank in edges]
        lines.append("acylindrical = true")
        text = "\n".join(lines) + "\n"
        path = self.path(f"gog-{op}")
        path.write_text(text, encoding="utf-8")
        k = -1 if refuse else rng.randint(0 if op == "gd" else 1, 7)
        argv = ["gog", op, "--k", str(k), str(path)]

        def check(out):
            if refuse:
                expect_refusal(out)
                return
            values, _ = expect_ok(out)
            for key, value in expected_gog(op, ranks, edges, k).items():
                require(values.get(key) == value, f"gog {op}: {key} = {values.get(key)}, expected {value}")
            if op != "gd":
                census = [line for line in out[1].splitlines() if line.startswith("kind=")]
                require(len(census) == count + len(edges) + 3, "census has the wrong number of classes")

        return argv, check, f"gog {op} {k} {text}"

    def _raag(self, op: str, rng: random.Random, refuse: bool = False):
        vertices = rng.randint(5, 12)
        edges = random_graph(rng, vertices, rng.uniform(0.3, 0.7))
        counts = checks.clique_counts_oracle(vertices, edges)
        cd = len(counts) - 1
        path = self.path(f"raag-{op}")
        write_graph_file(path, vertices, edges)
        argv = ["raag", op, str(path)]
        k = 0
        if op == "gd":
            k = cd + rng.randint(0, 2) if refuse else rng.randint(0, cd - 1)
            argv += ["--k", str(k)]

        def check(out):
            check_raag_answer(op, out, counts, k)

        return argv, check, f"raag {op} {k} {vertices} {edges}"

    def _lattice(self, op: str, rng: random.Random):
        n = rng.randint(3, 6)
        check_rng = self.check_rng
        if op in ("hnf", "snf"):
            m = rand_rows(rng, n, n, 9)
            path = self.path(f"lattice-{op}")
            write_matrix_file(path, m, n)

            def check(out):
                values, blocks = expect_ok(out)
                if op == "hnf":
                    checks.check_hnf(m, blocks["H"], blocks["U"])
                else:
                    checks.check_snf(m, blocks["D"], blocks["S"], blocks["T"])

            return ["lattice", op, str(path)], check, f"{op} {m}"
        r = rng.randint(1, n - 1)
        if op in ("saturate", "complement"):
            base = unimodular(rng, n)[:r]
            gens = checks.matmul(nonsingular(rng, r, 2) if op == "saturate" else unimodular(rng, r), base)
            path = self.path(f"lattice-{op}")
            write_matrix_file(path, gens, n)

            def check(out):
                code, stdout, stderr = out
                require(code == 0 and stderr == "", f"exit code {code}")
                got = checks.parse_lattice_output(stdout)
                if op == "saturate":
                    checks.check_same_lattice(base, got, "saturate")
                else:
                    checks.check_complement(base, got)

            return ["lattice", op, str(path)], check, f"{op} {gens}"
        sup = independent_rows(rng, r, n, 5)
        if op == "index":
            coeffs = nonsingular(rng, r, 2)
            expected = abs(checks.int_det(coeffs))
            other = checks.matmul(coeffs, sup)
        else:
            other = checks.matmul(nonsingular(rng, r, 2), sup)
            if rng.random() < 0.5:
                other[rng.randrange(r)] = rand_rows(rng, 1, n, 5)[0]
        path_a, path_b = self.path(f"lattice-{op}"), self.path(f"lattice-{op}")
        write_matrix_file(path_a, other, n)
        write_matrix_file(path_b, sup, n)

        def check(out):
            values, _ = expect_ok(out)
            if op == "index":
                checks.check_index(expected, values["index"], check_rng, coeffs)
            else:
                want = "true" if checks.commensurable(other, sup) else "false"
                require(values["commensurable"] == want, "commensurable: wrong answer")

        return ["lattice", op, str(path_a), str(path_b)], check, f"{op} {other} {sup}"


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (LatticeStream, NormalForms, RaagComplex, CliSession)
}
