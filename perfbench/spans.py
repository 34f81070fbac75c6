"""In-memory span recorder and the wrappers that attach it to bredim.

Spans are recorded from the benchmark's side only: each public function of
a layer is replaced, for the duration of a traced run, by a wrapper that
opens a span, calls the original and closes the span.  Every module that
bound the function under its own name gets the wrapper too (for example
``bredim.lattice.hermite_normal_form`` and ``bredim.cli.hermite_normal_form``),
so nested calls are attributed to the layer that does the work.

A span is ``(id, parent_id, name, start, end)``.  Self time is a span's
duration minus the durations of its direct children.  Counters (bit sizes,
cells, nodes, bytes) are taken by the wrapper after the span closes; that
bookkeeping is recorded as a ``trace.bookkeeping`` span, which belongs to no
layer and so ends up in ``trace.unattributed_s``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "matrix", "lattice", "homology", "raag", "dims", "gog")

LATTICE_OPS = (
    "saturation",
    "intersect",
    "lattice_sum",
    "index",
    "commensurable",
    "direct_complement",
    "mapping_automorphism",
)


class Tracer:
    """Span stack plus counters; inert until ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stack: list[tuple[int, str, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self._next_id = 1
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span called ``name``.

        A call made while a span of the same name is innermost (recursion,
        or one public function of a group calling another) stays inside
        that span instead of opening a new one.  ``after(args, result)``
        updates counters once the span has closed.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (tracer.stack and tracer.stack[-1][1] == name):
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else 0
            tracer.stack.append((span_id, name, time.perf_counter()))
            try:
                result = fn(*args, **kwargs)
            finally:
                _, _, start = tracer.stack.pop()
                tracer.spans.append((span_id, parent, name, start, time.perf_counter()))
            if after is not None:
                # Counting runs outside the span but inside the parent's
                # interval; a span of its own keeps it out of every layer.
                mark = time.perf_counter()
                after(args, result)
                tracer.spans.append((tracer._next_id, parent, "trace.bookkeeping", mark, time.perf_counter()))
                tracer._next_id += 1
            return result

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] += amount

    def record_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr], replacement))
        setattr(owner, attr, replacement)

    def patch_function(self, modules, original, name: str, after=None) -> None:
        """Replace ``original`` in every module that binds it."""
        wrapped = self.wrap(name, original, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapped)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        self._patch(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def detach(self) -> None:
        """Put the original functions back; ``attach`` swaps the wrappers in again."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def attach(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _bits(matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for x in m.entries),
        default=0,
    )


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every bredim layer (left attached)."""
    from bredim import cli, dims, gog, homology, lattice, matrix, raag

    modules = [m for key, m in sorted(sys.modules.items()) if key == "bredim" or key.startswith("bredim.")]

    def normal_form_after(args, result):
        m = args[0]
        tracer.count("matrix.input_cells", m.rows * m.cols)
        tracer.record_max("matrix.out_bits_max", _bits(result))

    def snf_after(args, result):
        normal_form_after(args, result)
        if args[0].is_zero():
            tracer.count("matrix.snf.zero_inputs")

    tracer.patch_function(modules, matrix.hermite_normal_form, "matrix.hnf", normal_form_after)
    tracer.patch_function(modules, matrix.smith_normal_form, "matrix.snf", snf_after)
    tracer.patch_function(modules, matrix.determinant, "matrix.det")
    tracer.patch_method(matrix.IntMatrix, "__matmul__", "matrix.matmul")

    for op in LATTICE_OPS:
        tracer.patch_function(modules, getattr(lattice, op), f"lattice.{op}")
    tracer.patch_function(modules, lattice.sublattice_from_generators, "lattice.construct")
    tracer.patch_function(modules, lattice._canonical_basis, "lattice.canonical")
    for fn in (lattice.read_matrix, lattice.read_lattice, lattice.write_matrix, lattice.write_lattice):
        tracer.patch_function(modules, fn, "lattice.io")

    def complex_after(args, result):
        tracer.count("homology.cells", sum(args[0].cell_counts))

    tracer.patch_method(homology.ChainComplex, "__init__", "homology.complex", complex_after)
    tracer.patch_function(modules, homology.cohomology, "homology.cohomology")
    tracer.patch_function(modules, homology.homology, "homology.homology")
    tracer.patch_function(modules, homology.write_chain_complex, "homology.write")

    def cliques_after(args, result):
        tracer.count("raag.cliques_total", sum(result.counts))

    tracer.patch_function(modules, raag.cliques, "raag.clique_search", cliques_after)
    tracer.patch_function(modules, raag.clique_number, "raag.clique_search")
    tracer.patch_function(modules, raag.salvetti_complex, "raag.salvetti")
    tracer.patch_function(modules, raag.read_graph, "raag.parse")

    def nodes(tree) -> int:
        return 1 + sum(nodes(p) for p in tree.premises)

    def derive_after(args, result):
        tracer.count("dims.nodes", nodes(result[1]))

    tracer.patch_function(modules, dims.derive_zn_upper, "dims.derive", derive_after)
    tracer.patch_method(dims.Derivation, "check", "dims.check")
    for fn in (dims.virtually_abelian_gd, dims.braid_gd, dims.out_fn_lower, dims.out_diamonds_lower):
        tracer.patch_function(modules, fn, "dims.formula")
    tracer.patch_method(dims.Derivation, "render_text", "dims.render")
    tracer.patch_method(dims.Derivation, "render_records", "dims.render")
    tracer.patch_method(dims.Derivation, "depth", "dims.tree")
    _patch_generator_method(tracer, dims.Derivation, "iter_nodes", "dims.tree")

    tracer.patch_function(modules, gog.parse_gog, "gog.parse")
    for fn in (gog.gog_gd, gog.bass_serre_bounds, gog.build_census, gog.max_vertex_rank):
        tracer.patch_function(modules, fn, "gog.bounds")

    def render_after(args, result):
        tracer.count("cli.output_bytes", len(result.encode()))

    tracer.patch_function(modules, cli.main, "cli")
    tracer.patch_method(cli.Report, "render", "cli.render", render_after)


def _patch_generator_method(tracer: Tracer, cls, attr: str, name: str) -> None:
    # A generator does its work while it is consumed, so the traced version
    # consumes it inside the span and hands back an iterator over the items.
    original = cls.__dict__[attr]

    def eager(*args, **kwargs):
        return iter(list(original(*args, **kwargs)))

    wrapped = tracer.wrap(name, eager)

    @functools.wraps(original)
    def dispatch(*args, **kwargs):
        if tracer.stack and tracer.stack[-1][1] == name:
            return original(*args, **kwargs)
        return wrapped(*args, **kwargs)

    tracer._patch(cls, attr, dispatch)


def per_layer_metrics(tracer: Tracer, wall_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Aggregate spans and counters into the named per-layer metrics.

    ``wall_s`` is the traced time of the requests; ``untraced_s`` the time
    the same requests took with tracing off.
    """
    child_time: dict[int, float] = defaultdict(float)
    parent_of: dict[int, int] = {}
    name_of: dict[int, str] = {}
    for span_id, parent, name, start, end in tracer.spans:
        child_time[parent] += end - start
        parent_of[span_id] = parent
        name_of[span_id] = name
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span_id, parent, name, start, end in tracer.spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[span_id]

    lattice_names = {f"lattice.{op}" for op in LATTICE_OPS}

    def outer_lattice_op(span_id: int) -> int:
        found = 0
        while span_id:
            if name_of[span_id] in lattice_names:
                found = span_id
            span_id = parent_of[span_id]
        return found

    outer_ops = sum(
        1 for span_id, name in name_of.items()
        if name in lattice_names and outer_lattice_op(parent_of[span_id]) == 0
    )
    nested_hnf = sum(
        1 for span_id, name in name_of.items() if name == "matrix.hnf" and outer_lattice_op(span_id)
    )

    out: dict[str, tuple[float, str]] = {}

    def seconds(key: str, span_name: str | None = None) -> None:
        out[key] = (self_s.get(span_name or key[: -len(".self_s")], 0.0), "s")

    def count(key: str, value: float) -> None:
        out[key] = (value, "count")

    for layer in LAYERS:
        if layer == "cli":
            continue
        out[f"{layer}.self_s"] = (
            sum(t for name, t in self_s.items() if name.split(".")[0] == layer),
            "s",
        )
    for kind in ("hnf", "snf", "matmul", "det"):
        count(f"matrix.{kind}.calls", calls.get(f"matrix.{kind}", 0))
        seconds(f"matrix.{kind}.self_s")
    out["matrix.out_bits_max"] = (tracer.maxima.get("matrix.out_bits_max", 0), "bits")
    count("matrix.input_cells", tracer.counters.get("matrix.input_cells", 0))
    snf_calls = calls.get("matrix.snf", 0)
    out["matrix.snf.zero_input_share"] = (
        tracer.counters.get("matrix.snf.zero_inputs", 0) / snf_calls if snf_calls else 0.0,
        "ratio",
    )
    for op in LATTICE_OPS + ("construct", "canonical"):
        count(f"lattice.{op}.calls", calls.get(f"lattice.{op}", 0))
        seconds(f"lattice.{op}.self_s")
    seconds("lattice.io.self_s")
    out["lattice.hnf_per_op"] = (nested_hnf / outer_ops if outer_ops else 0.0, "ratio")
    count("homology.complex.calls", calls.get("homology.complex", 0))
    seconds("homology.complex.self_s")
    count("homology.cohomology.calls", calls.get("homology.cohomology", 0))
    seconds("homology.cohomology.self_s")
    count("homology.cells", tracer.counters.get("homology.cells", 0))
    seconds("homology.write.self_s")
    count("raag.clique_search.calls", calls.get("raag.clique_search", 0))
    seconds("raag.clique_search.self_s")
    count("raag.cliques_total", tracer.counters.get("raag.cliques_total", 0))
    count("raag.salvetti.calls", calls.get("raag.salvetti", 0))
    seconds("raag.salvetti.self_s")
    seconds("raag.parse.self_s")
    count("dims.derive.calls", calls.get("dims.derive", 0))
    seconds("dims.derive.self_s")
    seconds("dims.check.self_s")
    count("dims.nodes", tracer.counters.get("dims.nodes", 0))
    seconds("dims.formula.self_s")
    seconds("dims.render.self_s")
    seconds("dims.tree.self_s")
    seconds("gog.parse.self_s")
    seconds("gog.bounds.self_s")
    count("cli.calls", calls.get("cli", 0))
    seconds("cli.self_s", "cli")
    seconds("cli.render.self_s")
    out["cli.output_bytes"] = (tracer.counters.get("cli.output_bytes", 0), "bytes")
    attributed = sum(t for name, t in self_s.items() if name.split(".")[0] in LAYERS)
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.bookkeeping_s"] = (self_s.get("trace.bookkeeping", 0.0), "s")
    out["trace.unattributed_s"] = (wall_s - attributed, "s")
    out["trace.overhead_share"] = (1.0 - untraced_s / wall_s if wall_s else 0.0, "ratio")
    count("trace.spans", len(tracer.spans))
    return out
