"""The traced benchmark in perfbench/ wraps bredim functions by module and
name; installing and detaching its span hooks here fails as soon as a
refactor deletes or moves one of them."""

import importlib.util
from pathlib import Path

from bredim import dims, homology, lattice, raag

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_span_hooks_install_and_detach():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (
        lattice._canonical_basis,
        raag.clique_number,
        homology.ChainComplex.__init__,
        dims.Derivation.check,
    )
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert lattice._canonical_basis is not originals[0]
    finally:
        tracer.detach()
    assert (
        lattice._canonical_basis,
        raag.clique_number,
        homology.ChainComplex.__init__,
        dims.Derivation.check,
    ) == originals
