"""Command line front end.

One executable with subcommand groups::

    bredim lattice {hnf|snf|saturate|index|commensurable|complement|map-auto}
    bredim raag    {cliques|cd|gd|salvetti}
    bredim dims    {vab|braid|out-fn|out-diamonds|derive-zn}
    bredim gog     {gd|bounds|census}
    bredim verify  {lattice|raag|homology|dims|all}

Exit codes: 0 success, 1 failed verify suite, 2 invalid input, 3 request
outside a formula's established range, 64 usage error, 70 internal error (an
unexpected exception inside bredim, reported on one line without a traceback).
Every ``BredimError`` other than ``OutOfRangeError`` exits 2: the
``InputError`` family, ``IncompatibleBoundsError`` (two bounds exclude each
other), ``DerivationError`` (a derivation node does not follow from its
premises) and an unreadable input file.

``dims derive-zn`` visits each of the 5k + 1 distinct derivation nodes once,
and refuses with exit 2 above ``MAX_DERIVE_K`` = 10000 before building any.
``--tree`` prints one line per node of the unfolded derivation, 7 * 2^k - 6
of them, and refuses with exit 2 above ``MAX_TREE_NODES`` = 2^20 (k >= 18).

``raag cliques`` counts cliques without listing them.  ``--list`` prints
every clique and refuses with exit 2 above ``MAX_LISTED_CLIQUES`` = 2^18 of
them; ``raag salvetti`` prints every boundary entry and refuses with exit 2
above ``MAX_SALVETTI_ENTRIES`` = 4,000,000.  Both refuse after counting and
before building anything.

Output is deterministic for identical inputs and seed.  The default format
is human-readable ("key = value" lines, '#'-prefixed metadata); pass
``--format structured`` for one ``key=value`` pair per line.  Every value
that comes from a dimension formula is accompanied by at least one
``citation:`` line stating the fact it rests on.  The verify seed defaults
to a fixed constant and can be overridden with ``--seed`` or the
BREDIM_SEED environment variable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import __version__
from .errors import BredimError, InputError, OutOfRangeError

# Each handler imports the layers it runs, so a command loads only those.
if TYPE_CHECKING:
    from . import dims, gog, matrix

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_INPUT = 2
EXIT_RANGE = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# Largest k that ``dims derive-zn`` replays.  Its cost grows faster than k:
# about 1 s and 64 MB at the limit, 3.7 s and 231 MB at k = 30000 (2-vCPU VM).
MAX_DERIVE_K = 10_000
# Most derivation nodes ``dims derive-zn --tree`` renders.
MAX_TREE_NODES = 2**20
# Most cliques ``raag cliques --list`` prints, the empty clique included.
# At the limit (K18) it takes about 1 s and 120 MB; K20 took 5 s and 420 MB.
MAX_LISTED_CLIQUES = 2**18
# Most boundary entries ``raag salvetti`` builds and prints: one dense zero
# block per degree, sum(counts[k - 1] * counts[k]) entries in all.  At the
# limit ``--cohomology`` takes about 0.9 s and 77 MB and prints 8 MB.
MAX_SALVETTI_ENTRIES = 4_000_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _digest(label: str, payload: str) -> str:
    return f"{label}:sha256:{hashlib.sha256(payload.encode()).hexdigest()[:12]}"


def _read_input(path: str) -> tuple[str, str]:
    if path == "-":
        text = sys.stdin.read()
        return text, _digest("stdin", text)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise BredimError(f"cannot read {path}: {exc}") from exc
    return text, _digest("file", text)


@dataclass
class Report:
    """What a subcommand produces: echoed command, inputs digest, key-value
    results, raw payload blocks, citations, notes, optional derivation."""

    command: str
    input_digest: str = "params"
    results: list[tuple[str, str]] = field(default_factory=list)
    blocks: list[tuple[str, list[str]]] = field(default_factory=list)
    citations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    tree: dims.Derivation | None = None
    # commands whose stdout is itself a loadable file keep meta as comments
    comment_meta: bool = False
    format: str = "human"

    def add(self, key: str, value: object) -> None:
        self.results.append((key, str(value)))

    def add_bound(self, name: str, bound: dims.DimBound) -> None:
        if bound.is_exact:
            self.add(name, bound.lower)
        else:
            self.add(f"{name}_lower", bound.lower)
            self.add(f"{name}_upper", "unknown" if bound.upper is None else bound.upper)

    def add_matrix_block(self, label: str, block: matrix.IntMatrix) -> None:
        from . import lattice

        self.blocks.append((label, lattice.write_matrix(block).splitlines()))

    def render(self) -> str:
        lines: list[str] = []
        if self.format == "structured":
            lines.append(f"command={self.command}")
            lines.append(f"input={self.input_digest}")
            for key, value in self.results:
                lines.append(f"result.{key}={value}")
            for label, body in self.blocks:
                for i, row in enumerate(body):
                    lines.append(f"block.{label}.{i}={row}")
            for i, note in enumerate(self.notes):
                lines.append(f"note.{i}={note}")
            for i, cite in enumerate(self.citations):
                lines.append(f"citation.{i}={cite}")
            if self.tree is not None:
                for record in self.tree.render_records():
                    lines.append(f"tree.{record}")
            return "\n".join(lines) + "\n"
        lines.append(f"# command: {self.command}")
        lines.append(f"# input: {self.input_digest}")
        for key, value in self.results:
            lines.append(f"{key} = {value}")
        for label, body in self.blocks:
            if label:
                lines.append(f"{label}:")
            lines.extend(body)
        meta_prefix = "# " if self.comment_meta else ""
        for note in self.notes:
            lines.append(f"{meta_prefix}note: {note}")
        for cite in self.citations:
            lines.append(f"{meta_prefix}citation: {cite}")
        if self.tree is not None:
            lines.append("derivation:")
            lines.append(self.tree.render_text(indent=1))
            lines.append("derivation-records:")
            lines.extend("  " + record for record in self.tree.render_records())
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (exit_code, Report).
# ---------------------------------------------------------------------------


def _cmd_lattice(args: argparse.Namespace) -> tuple[int, Report]:
    from . import lattice, matrix

    op = args.lattice_op
    report = Report(command=f"lattice {op}")
    if op in ("hnf", "snf"):
        text, digest = _read_input(args.file)
        report.input_digest = digest
        mat = lattice.read_matrix(text)
        if op == "hnf":
            h, u = matrix.hermite_normal_form(mat)
            report.add_matrix_block("H", h)
            report.add_matrix_block("U", u)
        else:
            d, s, t = matrix.smith_normal_form(mat)
            report.add("diagonal", " ".join(str(x) for x in d.diagonal()))
            report.add_matrix_block("D", d)
            report.add_matrix_block("S", s)
            report.add_matrix_block("T", t)
        return EXIT_OK, report
    if op in ("saturate", "complement"):
        text, digest = _read_input(args.file)
        report.input_digest = digest
        report.comment_meta = True
        lat = lattice.read_lattice(text)
        if op == "saturate":
            result = lattice.saturation(lat)
            report.citations.append(
                "saturation is the unique maximal member of the commensurability "
                "class: the direct summand containing the lattice with finite index"
            )
        else:
            result = lattice.direct_complement(lat)
        report.blocks.append(("", lattice.write_lattice(result).splitlines()))
        return EXIT_OK, report
    if op in ("index", "commensurable", "map-auto"):
        text_a, digest_a = _read_input(args.file_a)
        text_b, digest_b = _read_input(args.file_b)
        report.input_digest = f"{digest_a} {digest_b}"
        lat_a = lattice.read_lattice(text_a)
        lat_b = lattice.read_lattice(text_b)
        if op == "index":
            report.add("index", lattice.index(lat_a, lat_b))
        elif op == "commensurable":
            value = lattice.commensurable(lat_a, lat_b)
            report.add("commensurable", "true" if value else "false")
        else:
            auto = lattice.mapping_automorphism(lat_a, lat_b)
            report.add_matrix_block("A", auto)
        return EXIT_OK, report
    raise _UsageError(f"unknown lattice operation {op!r}")


def _cmd_raag(args: argparse.Namespace) -> tuple[int, Report]:
    from . import raag

    op = args.raag_op
    report = Report(command=f"raag {op}")
    text, digest = _read_input(args.file)
    report.input_digest = digest
    graph = raag.read_graph(text)
    if op == "cliques":
        counts = raag.clique_counts(graph)
        if args.list and sum(counts) > MAX_LISTED_CLIQUES:
            raise InputError(
                f"--list prints at most {MAX_LISTED_CLIQUES} cliques; "
                f"this graph has {sum(counts)}"
            )
        report.add("clique_number", len(counts) - 1)
        for size, count in enumerate(counts):
            report.add(f"count[{size}]", count)
        if args.list:
            for size, group in enumerate(raag.cliques(graph).by_size):
                for members in group:
                    report.add(f"clique[{size}]", " ".join(map(str, members)) or "-")
        return EXIT_OK, report
    if op == "cd":
        report.add("cd", raag.cd_raag(graph))
        report.citations.append(raag.RAAG_CD_CITATION)
        return EXIT_OK, report
    if op == "gd":
        value = raag.gd_fk_raag(graph, args.k)
        report.add("k", args.k)
        report.add("gd", value)
        # gd = cd + k, so cd needs no second clique search.
        report.add("cd", value - args.k)
        report.notes.append(raag.RAAG_GD_EQUALS_CD_NOTE)
        report.citations.append(raag.RAAG_FK_EXACT_CITATION)
        report.citations.append(raag.RAAG_CD_CITATION)
        return EXIT_OK, report
    if op == "salvetti":
        from . import homology

        complex_ = raag.salvetti_complex(graph, max_entries=MAX_SALVETTI_ENTRIES)
        report.blocks.append(
            ("", homology.write_chain_complex(complex_).splitlines())
        )
        if args.cohomology:
            for k in range(complex_.top_degree + 1):
                group = homology.cohomology(complex_, k)
                torsion = ",".join(map(str, group.torsion)) or "-"
                report.add(f"H^{k}", f"betti={group.betti} torsion={torsion}")
        return EXIT_OK, report
    raise _UsageError(f"unknown raag operation {op!r}")


def _cmd_dims(args: argparse.Namespace) -> tuple[int, Report]:
    from . import dims

    op = args.dims_op
    report = Report(command=f"dims {op}")
    if op == "vab":
        report.input_digest = _digest("params", f"n={args.n} k={args.k}")
        bound = dims.virtually_abelian_gd(args.n, args.k)
        report.add("n", args.n)
        report.add("k", args.k)
        report.add_bound("gd", bound)
        report.add_bound("cd", bound)
        report.citations.append(dims.CITATIONS["virtually-abelian-exact"])
        return EXIT_OK, report
    if op == "braid":
        report.input_digest = _digest(
            "params", f"n={args.n} k={args.k} pure={args.pure}"
        )
        bound = dims.braid_gd(args.n, args.k, pure=args.pure)
        report.add("group", ("P" if args.pure else "B") + f"_{args.n}")
        report.add("k", args.k)
        report.add_bound("gd", bound)
        report.add_bound("cd", bound)
        report.add("vcd", args.n - 1)
        report.citations.append(dims.CITATIONS["braid-exact"])
        report.citations.append(dims.CITATIONS["braid-vcd"])
        return EXIT_OK, report
    if op == "out-fn":
        report.input_digest = _digest("params", f"n={args.n} k={args.k}")
        bound = dims.out_fn_lower(args.n, args.k)
        report.add("n", args.n)
        report.add("k", args.k)
        report.add_bound("gd", bound)
        report.citations.append(dims.CITATIONS["out-free-lower"])
        return EXIT_OK, report
    if op == "out-diamonds":
        report.input_digest = _digest("params", f"d={args.d} k={args.k}")
        bound = dims.out_diamonds_lower(args.d, args.k)
        report.add("d", args.d)
        report.add("k", args.k)
        report.add_bound("gd", bound)
        report.citations.append(dims.CITATIONS["out-diamond-lower"])
        return EXIT_OK, report
    if op == "derive-zn":
        report.input_digest = _digest("params", f"n={args.n} k={args.k}")
        if args.k > MAX_DERIVE_K:
            raise InputError(f"derive-zn replays at most k = {MAX_DERIVE_K}; got k = {args.k}")
        bound, tree = dims.derive_zn_upper(args.n, args.k)
        nodes = tree.node_count()
        if args.tree and nodes > MAX_TREE_NODES:
            raise InputError(
                f"--tree renders at most {MAX_TREE_NODES} derivation nodes; "
                f"this derivation has {nodes}"
            )
        tree.check()
        report.add("n", args.n)
        report.add("k", args.k)
        report.add("upper", bound.upper)
        report.add("nodes", nodes)
        report.add("depth", tree.depth())
        report.citations.append(tree.citation)
        if args.tree:
            report.tree = tree
        return EXIT_OK, report
    raise _UsageError(f"unknown dims operation {op!r}")


def _census_lines(census: gog.CellCensus) -> list[str]:
    lines = []
    for entry in census.entries:
        count = "-" if entry.count is None else str(entry.count)
        lines.append(
            f"kind={entry.kind} dim={entry.dimension} count={count} "
            f"term={entry.term} stabilizer={entry.stabilizer}"
        )
    return lines


def _cmd_gog(args: argparse.Namespace) -> tuple[int, Report]:
    from . import gog

    op = args.gog_op
    report = Report(command=f"gog {op}")
    text, digest = _read_input(args.file)
    report.input_digest = digest
    graph = gog.parse_gog(text)
    report.add("k", args.k)
    report.add("max_rank", gog.max_vertex_rank(graph))
    if op == "census":
        census = gog.build_census(graph, args.k)
        report.blocks.append(("census", _census_lines(census)))
        return EXIT_OK, report
    result = gog.gog_gd(graph, args.k) if op == "gd" else gog.bass_serre_bounds(graph, args.k)
    report.add("exact", "true" if result.exact else "false")
    report.add_bound("gd", result.bound)
    if result.census is not None and op == "bounds":
        report.blocks.append(("census", _census_lines(result.census)))
    report.notes.extend(result.notes)
    report.citations.extend(result.citations)
    return EXIT_OK, report


def _cmd_verify(args: argparse.Namespace) -> tuple[int, Report]:
    from . import verify

    seed = args.seed
    if seed is None:
        env = os.environ.get("BREDIM_SEED")
        seed = int(env) if env else verify.DEFAULT_SEED
    report = Report(
        command=f"verify {args.suite}", input_digest=_digest("params", f"seed={seed}")
    )
    report.add("seed", seed)
    results = verify.run_suite(args.suite, seed=seed)
    lines = []
    passed = 0
    for check in results:
        if check.ok:
            passed += 1
            lines.append(f"ok {check.name} instances={check.instances}")
        else:
            detail = check.failures[0] if check.failures else ""
            lines.append(
                f"FAIL {check.name} instances={check.instances} "
                f"failures={len(check.failures)} first={detail}"
            )
    report.blocks.append(("", lines))
    report.add("checks", len(results))
    report.add("passed", passed)
    report.add("instances", sum(c.instances for c in results))
    code = EXIT_OK if passed == len(results) else EXIT_SUITE_FAILED
    return code, report


# ---------------------------------------------------------------------------
# Parser assembly.
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later calls.

    Parsing does not mutate it: each call gets a fresh namespace, and no
    argument has a mutable default.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="output format (default: human)",
    )

    parser = _Parser(prog="bredim", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"bredim {__version__}")
    top = parser.add_subparsers(dest="group", required=True)

    lat = top.add_parser("lattice", help="sublattice arithmetic in Z^n")
    lat_sub = lat.add_subparsers(dest="lattice_op", required=True)
    for name in ("hnf", "snf", "saturate", "complement"):
        sub = lat_sub.add_parser(name, parents=[common])
        sub.add_argument("file", help="matrix/lattice file, '-' for stdin")
    for name in ("index", "commensurable", "map-auto"):
        sub = lat_sub.add_parser(name, parents=[common])
        sub.add_argument("file_a", help="first lattice file")
        sub.add_argument("file_b", help="second lattice file")
    lat.set_defaults(handler=_cmd_lattice)

    rg = top.add_parser("raag", help="graph groups: cliques and dimensions")
    rg_sub = rg.add_subparsers(dest="raag_op", required=True)
    sub = rg_sub.add_parser("cliques", parents=[common])
    sub.add_argument("file", help="graph file (edge list or DIMACS), '-' for stdin")
    sub.add_argument("--list", action="store_true", help="list every clique")
    sub = rg_sub.add_parser("cd", parents=[common])
    sub.add_argument("file")
    sub = rg_sub.add_parser("gd", parents=[common])
    sub.add_argument("file")
    sub.add_argument("--k", type=int, required=True)
    sub = rg_sub.add_parser("salvetti", parents=[common])
    sub.add_argument("file")
    sub.add_argument("--cohomology", action="store_true")
    rg.set_defaults(handler=_cmd_raag)

    dm = top.add_parser("dims", help="closed-form dimension values and bounds")
    dm_sub = dm.add_subparsers(dest="dims_op", required=True)
    sub = dm_sub.add_parser("vab", parents=[common])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub = dm_sub.add_parser("braid", parents=[common])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--pure", action="store_true")
    sub = dm_sub.add_parser("out-fn", parents=[common])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub = dm_sub.add_parser("out-diamonds", parents=[common])
    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub = dm_sub.add_parser("derive-zn", parents=[common])
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--k", type=int, required=True)
    sub.add_argument("--tree", action="store_true", help="print the derivation tree")
    dm.set_defaults(handler=_cmd_dims)

    gg = top.add_parser("gog", help="graphs of virtually abelian groups")
    gg_sub = gg.add_subparsers(dest="gog_op", required=True)
    for name in ("gd", "bounds", "census"):
        sub = gg_sub.add_parser(name, parents=[common])
        sub.add_argument("--k", type=int, required=True)
        sub.add_argument("file", help="graph-of-groups file, '-' for stdin")
    gg.set_defaults(handler=_cmd_gog)

    vf = top.add_parser("verify", parents=[common], help="run an oracle suite")
    vf.add_argument("suite", choices=("lattice", "raag", "homology", "dims", "all"))
    vf.add_argument("--seed", type=int, default=None, help="override the fixed seed")
    vf.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> tuple[int, Report | None]:
    """Dispatch one command line; returns the exit status and the report.

    Error text goes to stderr; the report, when one exists, is not printed
    here (see :func:`main`).
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, report = args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE, None
    except OutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE, None
    except BredimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT, None
    except Exception as exc:
        # A failed postcondition or any other bug: one line, no traceback.
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INTERNAL, None
    report.format = getattr(args, "format", "human")
    return code, report


def main(argv: list[str] | None = None) -> int:
    # Entries are exact at any size; normal-form transforms easily pass the
    # int/str digit limit that Python 3.11 (and 3.10.7+) imposes by default.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    code, report = run(argv)
    if report is not None:
        sys.stdout.write(report.render())
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
