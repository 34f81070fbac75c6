import hashlib
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from bredim import cli, dims, raag, verify
from bredim.lattice import read_matrix
from bredim.matrix import IntMatrix


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def k3_file(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text("3 3\n0 1\n0 2\n1 2\n")
    return str(path)


@pytest.fixture()
def gog_file(tmp_path):
    path = tmp_path / "example.gog"
    path.write_text("vertex A rank=2\nvertex B rank=3\nedge A B finite\nacylindrical = true\n")
    return str(path)


@pytest.fixture()
def lattice_file(tmp_path):
    path = tmp_path / "lat.txt"
    path.write_text("2 1\n2 4\n")
    return str(path)


def test_braid_command(capsys):
    code, out, err = run(capsys, "dims", "braid", "--n", "4", "--k", "1")
    assert code == 0
    assert "gd = 4" in out
    assert "citation:" in out
    assert err == ""


def test_vab_command(capsys):
    code, out, _ = run(capsys, "dims", "vab", "--n", "3", "--k", "1")
    assert code == 0
    assert "gd = 4" in out and "cd = 4" in out


def test_out_fn_lower_bound(capsys):
    code, out, _ = run(capsys, "dims", "out-fn", "--n", "3", "--k", "1")
    assert code == 0
    assert "gd_lower = 4" in out
    assert "gd_upper = unknown" in out


def test_out_diamonds(capsys):
    code, out, _ = run(capsys, "dims", "out-diamonds", "--d", "2", "--k", "1")
    assert code == 0
    assert "gd_lower = 8" in out


def test_derive_tree(capsys):
    code, out, _ = run(capsys, "dims", "derive-zn", "--n", "3", "--k", "1", "--tree")
    assert code == 0
    assert "upper = 4" in out
    assert "derivation:" in out
    assert "enlarge-family-pushout" in out
    assert "derivation-records:" in out
    assert "node=0 parent=-" in out


def test_derive_without_tree_is_linear_in_k(capsys):
    # The unfolded tree has 7 * 2^k - 6 nodes; only 5k + 1 of them are distinct.
    start = time.perf_counter()
    code, out, err = run(capsys, "dims", "derive-zn", "--n", "3000", "--k", "2999")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert f"nodes = {7 * 2**2999 - 6}" in lines
    assert "depth = 5998" in lines
    assert elapsed < 1.0


def test_derive_tree_size_is_bounded(capsys):
    _, tree17 = dims.derive_zn_upper(18, 17)
    _, tree18 = dims.derive_zn_upper(19, 18)
    assert tree17.node_count() <= cli.MAX_TREE_NODES < tree18.node_count()
    code, out, err = run(capsys, "dims", "derive-zn", "--n", "19", "--k", "18", "--tree")
    assert (code, out) == (2, "")
    assert err == (
        "error: --tree renders at most 1048576 derivation nodes; "
        "this derivation has 1835002\n"
    )


def test_raag_cd(capsys, k3_file):
    code, out, _ = run(capsys, "raag", "cd", k3_file)
    assert code == 0
    assert "cd = 3" in out


def test_raag_gd(capsys, k3_file):
    code, out, _ = run(capsys, "raag", "gd", k3_file, "--k", "1")
    assert code == 0
    assert "gd = 4" in out
    assert "note:" in out


def test_raag_cliques(capsys, k3_file):
    code, out, _ = run(capsys, "raag", "cliques", k3_file, "--list")
    assert code == 0
    assert "clique_number = 3" in out
    assert "count[2] = 3" in out
    assert "clique[3] = 0 1 2" in out


def test_raag_salvetti_cohomology(capsys, k3_file):
    code, out, _ = run(capsys, "raag", "salvetti", k3_file, "--cohomology")
    assert code == 0
    assert "degrees 3" in out
    assert "H^3 = betti=1 torsion=-" in out


def test_salvetti_output_feeds_chain_reader(capsys, k3_file):
    # without --cohomology the payload is exactly the chain-complex format
    from bredim.homology import cohomology, read_chain_complex
    from bredim.oracles import binomial

    code, out, _ = run(capsys, "raag", "salvetti", k3_file)
    assert code == 0
    payload = "\n".join(
        line for line in out.splitlines() if not line.startswith("# command") and not line.startswith("# input")
    )
    complex_ = read_chain_complex(payload)
    assert complex_.cell_counts == (1, 3, 3, 1)
    for k in range(4):
        assert cohomology(complex_, k).betti == binomial(3, k)


def test_lattice_saturate_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n2 4\n"))
    code, out, _ = run(capsys, "lattice", "saturate", "-")
    assert code == 0
    assert "2 1\n1 2\n" in out


def test_lattice_saturate_file(capsys, lattice_file):
    code, out, _ = run(capsys, "lattice", "saturate", lattice_file)
    assert code == 0
    assert "1 2" in out


def test_lattice_output_roundtrips(capsys, lattice_file, tmp_path):
    # lattice command stdout is itself in the lattice file format
    code, out, _ = run(capsys, "lattice", "saturate", lattice_file)
    assert code == 0
    echo = tmp_path / "echo.txt"
    echo.write_text(out)
    code, again, _ = run(capsys, "lattice", "saturate", str(echo))
    assert code == 0
    assert "2 1\n1 2\n" in again


def test_lattice_hnf(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n2 0\n3 0\n")
    code, out, _ = run(capsys, "lattice", "hnf", str(path))
    assert code == 0
    assert "H:" in out and "U:" in out
    assert "1 0\n0 0" in out


def test_lattice_snf(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2 2\n2 4\n6 8\n")
    code, out, _ = run(capsys, "lattice", "snf", str(path))
    assert code == 0
    assert "diagonal = 2 4" in out


def test_lattice_index(capsys, tmp_path):
    sub = tmp_path / "sub.txt"
    sub.write_text("2 2\n2 0\n1 3\n")
    sup = tmp_path / "sup.txt"
    sup.write_text("2 2\n1 0\n0 1\n")
    code, out, _ = run(capsys, "lattice", "index", str(sub), str(sup))
    assert code == 0
    assert "index = 6" in out


def test_lattice_commensurable(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("2 1\n2 2\n")
    b = tmp_path / "b.txt"
    b.write_text("2 1\n3 3\n")
    code, out, _ = run(capsys, "lattice", "commensurable", str(a), str(b))
    assert code == 0
    assert "commensurable = true" in out


def test_lattice_map_auto(capsys, tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("2 1\n1 0\n")
    b = tmp_path / "b.txt"
    b.write_text("2 1\n0 1\n")
    code, out, _ = run(capsys, "lattice", "map-auto", str(a), str(b))
    assert code == 0
    assert "A:" in out
    assert "0 1\n1 0" in out


def test_lattice_complement(capsys, tmp_path):
    path = tmp_path / "lat.txt"
    path.write_text("2 1\n1 2\n")
    code, out, _ = run(capsys, "lattice", "complement", str(path))
    assert code == 0
    assert "2 1\n0 1" in out


def test_gog_gd(capsys, gog_file):
    code, out, _ = run(capsys, "gog", "gd", "--k", "2", gog_file)
    assert code == 0
    assert "gd = 5" in out
    assert "exact = true" in out


def test_gog_bounds_census(capsys, gog_file):
    code, out, _ = run(capsys, "gog", "bounds", "--k", "1", gog_file)
    assert code == 0
    assert "gd = 4" in out
    assert "kind=cone-face dim=2" in out


def test_gog_census(capsys, gog_file):
    code, out, _ = run(capsys, "gog", "census", "--k", "1", gog_file)
    assert code == 0
    assert out.count("kind=tree-vertex") == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_usage_unknown_group(capsys):
    code, _, err = run(capsys, "nonsense")
    assert code == 64
    assert "usage error" in err


def test_exit_usage_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "lattice", "frobnicate", "x")
    assert code == 64


def test_exit_range_braid(capsys):
    code, _, err = run(capsys, "dims", "braid", "--n", "3", "--k", "2")
    assert code == 3
    assert "error:" in err


def test_exit_range_raag_gd(capsys, k3_file):
    code, _, _ = run(capsys, "raag", "gd", k3_file, "--k", "3")
    assert code == 3


def test_exit_input_loop_edge(capsys, tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, "raag", "cd", str(path))
    assert code == 2
    assert "loop" in err


def test_exit_input_gog_rank_violation(capsys, tmp_path):
    path = tmp_path / "bad.gog"
    path.write_text("vertex A rank=2\nvertex B rank=2\nedge A B rank=4\n")
    code, _, err = run(capsys, "gog", "gd", "--k", "1", str(path))
    assert code == 2
    assert "exceeds endpoint rank" in err


def test_exit_input_missing_file(capsys):
    code, _, _ = run(capsys, "raag", "cd", "/nonexistent/file.graph")
    assert code == 2


def test_exit_internal_error_has_no_traceback(capsys, monkeypatch):
    # An exception that is not a BredimError is a bug inside bredim; it must
    # not surface as a traceback or reuse another exit code's meaning.
    def broken(n, k):
        raise KeyError("injected")

    monkeypatch.setattr(cli.dims, "virtually_abelian_gd", broken)
    code, out, err = run(capsys, "dims", "vab", "--n", "3", "--k", "1")
    assert code == 70
    assert out == ""
    assert err == "internal error: KeyError: 'injected'\n"


def test_exit_internal_error_postcondition(capsys, monkeypatch, k3_file):
    def broken(graph):
        raise AssertionError("postcondition\nspans lines")

    monkeypatch.setattr(cli.raag, "cd_raag", broken)
    code, _, err = run(capsys, "raag", "cd", k3_file)
    assert code == 70
    assert err == "internal error: AssertionError: postcondition spans lines\n"


def test_raag_cd_complete_graph_1100(capsys, tmp_path):
    # The clique search keeps an explicit stack, so a 1100-clique is no
    # deeper for it than a triangle.
    path = tmp_path / "k1100.graph"
    path.write_text(raag.write_graph(raag.complete_graph(1100)))
    code, out, err = run(capsys, "raag", "cd", str(path))
    assert (code, err) == (0, "")
    assert "cd = 1100" in out.splitlines()


# Runs ``bredim`` in a child process whose address space is capped, so an
# allocation the limits fail to stop shows as a MemoryError (exit 70).
CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path.insert(0, sys.argv[1])
from bredim import cli
sys.exit(cli.main(sys.argv[2:]))
"""
SRC = str(Path(raag.__file__).resolve().parents[1])


def _run_capped(*argv):
    done = subprocess.run(
        [sys.executable, "-c", CAPPED, SRC, *argv],
        capture_output=True, text=True, timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def _run_raag_capped(tmp_path, graph, command, *flags):
    path = tmp_path / "graph.txt"
    path.write_text(raag.write_graph(graph))
    return _run_capped("raag", command, str(path), *flags)


def test_derive_k_is_bounded():
    limit = cli.MAX_DERIVE_K
    code, out, err = _run_capped("dims", "derive-zn", "--n", str(limit + 2), "--k", str(limit))
    assert (code, err) == (0, "")
    assert f"upper = {2 * limit + 2}" in out.splitlines()
    code, out, err = _run_capped("dims", "derive-zn", "--n", str(limit + 2), "--k", str(limit + 1))
    assert (code, out) == (2, "")
    assert err == f"error: derive-zn replays at most k = {limit}; got k = {limit + 1}\n"


def _seeded_graph(seed, vertices, density):
    pairs = list(combinations(range(vertices), 2))
    edges = random.Random(seed).sample(pairs, round(density * len(pairs)))
    return raag.SimpleGraph.from_edges(vertices, edges)


@pytest.mark.parametrize(
    "graph",
    [raag.complete_graph(60), _seeded_graph(60, 60, 0.8)],
    ids=["K60", "G(60, 0.8)"],
)
def test_raag_cliques_counts_without_listing(tmp_path, graph):
    # K60 has 2^60 cliques and the dense graph about 2 * 10^7; counting
    # follows the pivot search tree, not the cliques.
    start = time.perf_counter()
    code, out, err = _run_raag_capped(tmp_path, graph, "cliques")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    values = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
    masks = [0] * graph.vertex_count
    for u, v in graph.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    triangles = sum((masks[u] & masks[v]).bit_count() for u, v in graph.edges) // 3
    assert values["clique_number"] == str(raag.clique_number(graph))
    assert values["count[1]"] == str(graph.vertex_count)
    assert values["count[2]"] == str(len(graph.edges))
    assert values["count[3]"] == str(triangles)
    assert elapsed < 3.0


def _with_isolated(graph, extra):
    return raag.SimpleGraph.from_edges(graph.vertex_count + extra, graph.edges)


def test_cliques_list_limit(tmp_path):
    # K_n has 2^n cliques; each isolated vertex adds one more.
    n = cli.MAX_LISTED_CLIQUES.bit_length() - 1
    at_limit = raag.complete_graph(n)
    assert sum(raag.clique_counts(at_limit)) == cli.MAX_LISTED_CLIQUES
    code, out, err = _run_raag_capped(tmp_path, at_limit, "cliques", "--list")
    assert (code, err) == (0, "")
    assert out.count("\nclique[") == cli.MAX_LISTED_CLIQUES
    code, out, err = _run_raag_capped(tmp_path, _with_isolated(at_limit, 1), "cliques", "--list")
    assert (code, out) == (2, "")
    assert err == (
        f"error: --list prints at most {cli.MAX_LISTED_CLIQUES} cliques; "
        f"this graph has {cli.MAX_LISTED_CLIQUES + 1}\n"
    )


def _salvetti_entries(graph):
    counts = raag.clique_counts(graph)
    return sum(a * b for a, b in zip(counts, counts[1:]))


def test_salvetti_entry_limit(tmp_path):
    # K12 with a vertex joined to ten of its vertices has just under 4 * 10^6
    # boundary entries; each isolated vertex adds 1 + count[2] more.
    limit = cli.MAX_SALVETTI_ENTRIES
    base = raag.SimpleGraph.from_edges(
        13, [*combinations(range(12), 2), *((v, 12) for v in range(10))]
    )
    step = 1 + raag.clique_counts(base)[2]
    under = _with_isolated(base, (limit - _salvetti_entries(base)) // step)
    over = _with_isolated(under, 1)
    assert _salvetti_entries(under) <= limit < _salvetti_entries(over)
    code, out, err = _run_raag_capped(tmp_path, under, "salvetti", "--cohomology")
    assert (code, err) == (0, "")
    assert out.startswith("# command: raag salvetti\n")
    assert "H^0 = betti=1 torsion=-" in out.splitlines()
    for graph in (over, raag.complete_graph(16)):
        code, out, err = _run_raag_capped(tmp_path, graph, "salvetti", "--cohomology")
        assert (code, out) == (2, "")
        assert err == (
            f"error: the Salvetti complex is built with at most {limit} boundary "
            f"entries; this graph's has {_salvetti_entries(graph)}\n"
        )


def test_exit_input_nonmaximal_complement(capsys, tmp_path):
    path = tmp_path / "lat.txt"
    path.write_text("2 1\n2 0\n")
    code, _, err = run(capsys, "lattice", "complement", str(path))
    assert code == 2
    assert "saturated" in err


# ---------------------------------------------------------------------------
# formats and determinism
# ---------------------------------------------------------------------------


def test_structured_format(capsys, gog_file):
    code, out, _ = run(capsys, "gog", "gd", "--k", "1", gog_file, "--format", "structured")
    assert code == 0
    assert "command=gog gd" in out
    assert "result.gd=4" in out
    assert "citation.0=" in out
    assert all("=" in line for line in out.strip().splitlines())


def test_output_is_deterministic(capsys, k3_file, gog_file):
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "raag", "cliques", k3_file, "--list")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "gog", "bounds", "--k", "1", gog_file)
        runs.append(out)
    assert runs[0] == runs[1]


def test_formula_results_carry_citations(capsys, k3_file, gog_file):
    for argv in (
        ["dims", "vab", "--n", "3", "--k", "1"],
        ["dims", "braid", "--n", "4", "--k", "1"],
        ["dims", "out-fn", "--n", "3", "--k", "1"],
        ["dims", "out-diamonds", "--d", "1", "--k", "0"],
        ["dims", "derive-zn", "--n", "3", "--k", "1"],
        ["raag", "cd", k3_file],
        ["raag", "gd", k3_file, "--k", "1"],
        ["gog", "gd", "--k", "1", gog_file],
        ["gog", "bounds", "--k", "1", gog_file],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert "citation" in out, argv


# ---------------------------------------------------------------------------
# verify plumbing
# ---------------------------------------------------------------------------


def test_verify_dims_suite(capsys):
    code, out, _ = run(capsys, "verify", "dims")
    assert code == 0
    assert "ok dims.virtually-abelian-table" in out
    assert "instances=" in out
    assert f"seed = {verify.DEFAULT_SEED}" in out


def test_verify_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BREDIM_SEED", "12345")
    code, out, _ = run(capsys, "verify", "dims")
    assert code == 0
    assert "seed = 12345" in out


def test_verify_seed_flag_wins(capsys, monkeypatch):
    monkeypatch.setenv("BREDIM_SEED", "12345")
    code, out, _ = run(capsys, "verify", "dims", "--seed", "777")
    assert code == 0
    assert "seed = 777" in out


def test_verify_reports_failures_nonzero(capsys, monkeypatch):
    # negative control: a corrupted suite result must flip the exit code
    def broken(name, seed):
        result = verify.CheckResult("dims.injected")
        result.record(False, "injected defect")
        return [result]

    monkeypatch.setattr(cli.verify, "run_suite", broken)
    code, out, _ = run(capsys, "verify", "dims")
    assert code == 1
    assert "FAIL dims.injected" in out


def test_verify_unknown_suite_usage(capsys):
    code, _, _ = run(capsys, "verify", "everything")
    assert code == 64


def test_run_returns_status_and_report(capsys):
    code, report = cli.run(["dims", "vab", "--n", "3", "--k", "1"])
    assert code == 0
    assert report is not None
    assert ("gd", "4") in report.results
    assert report.citations
    code, report = cli.run(["dims", "vab", "--n", "3", "--k", "9"])
    assert code == 3
    assert report is None
    capsys.readouterr()


# sha256 of ``bredim verify all`` stdout at the default seed.  A change that
# moves it changes a verify answer or its rendering.
VERIFY_ALL_SHA256 = "af220ad3cb8b1e480c2ec50b311963b12ab3afb9a8ac57427983ca4e18ae187d"


def test_verify_all_stdout_is_pinned(monkeypatch):
    monkeypatch.delenv("BREDIM_SEED", raising=False)
    code, report = cli.run(["verify", "all"])
    assert code == 0
    out = report.render(report.format)
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


def test_verify_output_is_deterministic(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "dims", "--seed", "5")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_dimacs_file_accepted(capsys, tmp_path):
    path = tmp_path / "triangle.col"
    path.write_text("c a triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
    code, out, _ = run(capsys, "raag", "cd", str(path))
    assert code == 0
    assert "cd = 3" in out


def test_snf_prints_transforms_past_the_int_str_digit_limit(capsys, tmp_path):
    rng = random.Random(24)
    rows = [[rng.randint(-9, 9) for _ in range(24)] for _ in range(24)]
    path = tmp_path / "m24.txt"
    path.write_text("24 24\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n")
    code, out, err = run(capsys, "lattice", "snf", str(path))
    assert code == 0, err
    lines = out.splitlines()

    def block(label):
        start = lines.index(f"{label}:") + 1
        return read_matrix("\n".join(lines[start : start + 25]))

    d, s, t = block("D"), block("S"), block("T")
    assert max(len(str(x)) for x in s.entries + t.entries) > 4300
    assert s @ IntMatrix.from_rows(rows) @ t == d
