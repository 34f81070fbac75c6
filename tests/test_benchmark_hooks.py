"""The traced benchmark in perfbench/ wraps bredim functions by module and
name; installing and detaching its span hooks here fails as soon as a
refactor deletes or moves one of them."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import bredim
from bredim import cli, dims, homology, lattice, matrix, raag

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC = Path(bredim.__file__).resolve().parents[1]


def _hooked():
    # The entry points whose spans show where the RAAG, lattice, derivation
    # and command-line time goes.
    return (
        lattice._canonical_basis,
        raag.cliques,
        raag.clique_number,
        raag.salvetti_complex,
        homology.ChainComplex.__init__,
        homology.cohomology,
        matrix.IntMatrix.__matmul__,
        dims.Derivation.check,
        dims.Derivation.depth,
        dims.Derivation.iter_nodes,
        dims.Derivation.render_text,
        dims.Derivation.render_records,
        dims.derive_zn_upper,
        cli.main,
        cli.Report.render,
    )


def test_span_hooks_install_and_detach():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = _hooked()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        wrapped = _hooked()
    finally:
        tracer.detach()
    for original, hooked in zip(originals, wrapped):
        assert hooked is not original, original.__qualname__
    assert _hooked() == originals


# Imports the command line as the benchmark workloads do, installs and
# detaches the span hooks, and prints the names of the bredim modules loaded
# and of every module attribute still bound to one of the tracer's wrappers.
LEFTOVERS = """
import importlib.util
import json
import sys

import bredim.cli

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
tracer.detach()
wrappers = {id(patch[3]) for patch in tracer._patches}
modules = {key: m for key, m in sys.modules.items() if key.partition(".")[0] == "bredim"}
held = [
    f"{key}.{attr}"
    for key, module in sorted(modules.items())
    for attr, value in vars(module).items()
    if id(value) in wrappers
]
print(json.dumps({"loaded": sorted(modules), "held": held}))
"""


def test_detached_hooks_leave_no_wrapper_behind(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", LEFTOVERS, str(SPANS)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60, check=True,
    )
    found = json.loads(done.stdout.splitlines()[-1])
    assert "bredim.verify" not in found["loaded"]
    assert found["held"] == []
