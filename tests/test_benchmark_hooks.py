"""The traced benchmark in perfbench/ wraps bredim functions by module and
name; installing and detaching its span hooks here fails as soon as a
refactor deletes or moves one of them."""

import importlib.util
from pathlib import Path

from bredim import cli, dims, homology, lattice, matrix, raag

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
