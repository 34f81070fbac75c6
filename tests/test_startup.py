"""Start-up cost and the package surface.

``import bredim`` and ``import bredim.cli`` run no layer module, and a
command runs only the modules of its group.  Each check runs in a fresh
interpreter, where an audit hook records which bredim module bodies
executed: a module bound in ``sys.modules`` but not yet run does not count.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bredim

SRC = Path(bredim.__file__).resolve().parents[1]

# Records the name of every bredim module whose body runs, then runs the
# statements given in argv[1]; prints the names as JSON.
PROBE = """
import os
import sys

ran = []


def hook(event, args):
    code = args[0] if event == "exec" else None
    if code is not None and code.co_name == "<module>":
        folder, name = os.path.split(code.co_filename)
        if os.path.basename(folder) == "bredim":
            ran.append(name[:-3])


sys.addaudithook(hook)
exec(sys.argv[1])
print(__import__("json").dumps(ran))
"""

GRAPH = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
LATTICE = "2 2\n1 0\n0 1\n"
GOG = "vertex A rank=2\nvertex B rank=3\nedge A B finite\nacylindrical = true\n"


def _bodies_run(statements, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, statements],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_import_runs_no_layer(tmp_path):
    assert _bodies_run("import bredim", tmp_path) == ["__init__"]
    assert _bodies_run("import bredim.cli", tmp_path) == ["__init__", "cli", "errors"]
    # Nor does it bind a layer to run later: nothing else is in sys.modules.
    loaded = (
        "import sys, bredim.cli\n"
        "names = sorted(n for n in sys.modules if n.partition('.')[0] == 'bredim')\n"
        "assert names == ['bredim', 'bredim.cli', 'bredim.errors'], names\n"
    )
    assert _bodies_run(loaded, tmp_path) == ["__init__", "cli", "errors"]


@pytest.mark.parametrize(
    "argv,layers",
    [
        (["dims", "vab", "--n", "3", "--k", "1"], {"dims"}),
        (["raag", "cd", "k4.graph"], {"raag"}),
        (["lattice", "index", "z2.txt", "z2.txt"], {"lattice", "matrix"}),
        (["gog", "gd", "--k", "2", "split.gog"], {"gog", "dims"}),
    ],
    ids=lambda value: " ".join(value[:2]) if isinstance(value, list) else None,
)
def test_command_runs_only_its_layers(tmp_path, argv, layers):
    (tmp_path / "k4.graph").write_text(GRAPH)
    (tmp_path / "z2.txt").write_text(LATTICE)
    (tmp_path / "split.gog").write_text(GOG)
    statements = f"import bredim.cli; assert bredim.cli.main({argv!r}) == 0"
    ran = _bodies_run(statements, tmp_path)
    assert ran[:3] == ["__init__", "cli", "errors"]
    assert sorted(ran[3:]) == sorted(layers)


# Every name ``bredim/__init__.py`` re-exported when it imported its layers
# eagerly, by home module.
EXPORTS = {
    "errors": [
        "AcylindricityError", "AmbientMismatchError", "BredimError",
        "ChainComplexError", "ContainmentError", "DerivationError",
        "DimensionMismatchError", "IncompatibleBoundsError", "InputError",
        "MaximalityRequiredError", "OutOfRangeError", "ParseError",
        "RankMismatchError",
    ],
    "matrix": ["IntMatrix", "hermite_normal_form", "smith_normal_form"],
    "lattice": [
        "IndexResult", "Sublattice", "commensurable", "direct_complement",
        "index", "intersect", "is_maximal", "lattice_sum",
        "mapping_automorphism", "saturation", "sublattice_from_generators",
    ],
    "homology": ["ChainComplex", "CohomologyGroup"],
    "raag": ["SimpleGraph", "CliqueTable", "cd_raag", "cliques", "gd_fk_raag", "salvetti_complex"],
    "dims": ["Derivation", "DimBound", "FamilyTag", "derive_zn_upper"],
    "gog": ["GraphOfGroups", "bass_serre_bounds", "gog_gd"],
}
SUBMODULES = ["cli", "dims", "errors", "gog", "homology", "lattice", "matrix", "oracles", "raag", "verify"]


def test_package_names_resolve_to_their_home_objects():
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"bredim.{home}")
        assert getattr(bredim, home) is module
        for name in names:
            assert getattr(bredim, name) is getattr(module, name), name
            assert name in dir(bredim)
    assert bredim.__version__ == "0.1.0"
    namespace = {}
    exec("from bredim import *", namespace)
    assert set(namespace) - {"__builtins__"} == {*EXPORTS, *(n for names in EXPORTS.values() for n in names)}


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bredim.no_such_name
    assert not hasattr(bredim, "cli_main")


def test_submodules_resolve_after_importing_the_cli(tmp_path):
    # In a fresh interpreter, after the command line, the package hands out
    # each submodule as the one object in sys.modules, ready to use.
    statements = (
        "import sys, bredim.cli, bredim\n"
        f"for name in {SUBMODULES!r}:\n"
        "    module = getattr(bredim, name)\n"
        "    assert module is sys.modules['bredim.' + name], name\n"
        "    assert module.__name__ == 'bredim.' + name, name\n"
        "assert bredim.Sublattice is bredim.lattice.Sublattice\n"
        "assert bredim.lattice.index(bredim.sublattice_from_generators(1, [[2]]),"
        " bredim.sublattice_from_generators(1, [[1]])).value == 2\n"
    )
    ran = _bodies_run(statements, tmp_path)
    assert sorted(ran) == sorted(["__init__", *SUBMODULES])
