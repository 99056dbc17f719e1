"""Span tracing of the rank1spec layers, installed from outside the package.

Each wrapped public function records a span (name, start, end, parent) in
memory; the spans are written out once, when the run ends.  A layer's self
time is its spans' durations minus the time their child spans cover.

Wrappers are installed where the caller looks a name up: ``direct`` binds
``compute_Keps``, ``CharacteristicFunction`` and ``winding_number`` as
module globals, so patching ``charfn.compute_Keps`` alone would miss the
solver's calls, and ``CharacteristicFunction`` methods are patched on the
class.  The benchmark itself calls every entry point through its module
attribute (``direct.solve_direct``, ``inverse.solve_inverse``, ...).
"""

from array import array
import functools
import json
import time

# windings on disks wider than this share of the gap are the per-index
# disks of localize (radii d/2, d/2 - d/100, d/2 - d/50); smaller circles
# confirm a zero's order (refine_zero, _try_multiple)
LOCALIZE_DISK_MIN = 0.46


class Tracer:
    """In-memory span recorder with per-span counters."""

    def __init__(self):
        self.name_ids = {}
        self.names = []
        self.kind = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = []
        self.counts = {}
        self.k_prime = None  # K' of the solve in progress, from compute_Keps
        self.clock = time.perf_counter
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name):
        kind = self.name_ids.get(name)
        if kind is None:
            kind = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx):
        self.end[idx] = self.clock()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError("spans closed out of order")

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a spanned wrapper.

        ``name`` is a span name or a callable ``name(args)`` that picks one
        per call; ``after(args, result)`` runs once the call returned.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- results -------------------------------------------------------------

    def totals(self):
        """{name: [calls, inclusive seconds, self seconds]} over all spans."""
        n = len(self.kind)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(self.names[self.kind[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def dump(self, path):
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent"],
            "spans": [
                [self.kind[i], self.start[i], self.end[i], self.parent[i]]
                for i in range(len(self.kind))
            ],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def install(tracer, base_quad):
    """Wrap the public functions of model, charfn, direct, inverse and oracle.

    ``base_quad`` is the quadrature size the workload's options start from;
    a winding with more nodes is an escalation.
    """
    from rank1spec import direct, inverse, model, oracle
    from rank1spec.direct import Disk

    for attr in ("validate_base", "validate_coefficients", "validate_target"):
        tracer.wrap(model, attr, "model.validate")
    for attr in (
        "load_json",
        "dump_json",
        "base_from_json",
        "base_to_json",
        "coefficients_from_json",
        "coefficients_to_json",
        "target_from_json",
        "target_to_json",
        "spectrum_to_json",
    ):
        tracer.wrap(model, attr, "model.json")

    def keps_done(args, result):
        tracer.k_prime = result[1]

    tracer.wrap(direct, "compute_Keps", "charfn.keps", after=keps_done)

    cf_class = direct.CharacteristicFunction
    tracer.wrap(cf_class, "build", "charfn.build")

    def eval_done(args, result):
        tracer.count("charfn.eval_calls")
        tracer.count("charfn.term_nodes", len(args[0].c1) * len(result))

    tracer.wrap(cf_class, "values", "charfn.eval", after=eval_done)
    tracer.wrap(cf_class, "derivative_values", "charfn.eval", after=eval_done)
    tracer.wrap(cf_class, "shifted_values", "charfn.eval", after=eval_done)
    tracer.wrap(cf_class, "tail_bound_at", "charfn.tail_bound")

    def winding_begin(args):
        # counted on entry: a winding that raises still cost a call
        cf, region, q = args
        q = max(16, int(q))
        tracer.count("direct.winding_calls")
        tracer.count("direct.quad_nodes", q + max(8, q // 2))
        if q > base_quad:
            tracer.count("direct.quad_escalations")
        if not isinstance(region, Disk):
            return "direct.winding.rect"
        spec = cf.spec
        if region.radius < LOCALIZE_DISK_MIN * spec.gap:
            return "direct.winding.confirm"
        k = round((region.center.real - spec.tail.intercept) / spec.tail.slope)
        if tracer.k_prime is not None and abs(k) <= tracer.k_prime:
            return "direct.winding.central"
        return "direct.winding.outer"

    def winding_done(args, result):
        if result.certified:
            tracer.count("direct.winding_certified")

    tracer.wrap(direct, "winding_number", winding_begin, after=winding_done)
    tracer.wrap(direct, "localize_spectrum", "direct.localize")
    tracer.wrap(direct, "assemble_spectrum", "direct.assemble")
    tracer.wrap(inverse, "solve_inverse", "inverse.solve")
    tracer.wrap(inverse, "check_F_equals_product", "inverse.check")
    tracer.wrap(oracle, "build_truncation", "oracle.dense")
    tracer.wrap(oracle, "dense_eigenvalues", "oracle.dense")
