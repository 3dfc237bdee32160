"""Outside-in tracer: spans around augvar's public entry points.

Nothing inside augvar is edited.  Each traced function is replaced by a
wrapper in every augvar module that holds a reference to it (a function
imported by name lives in several module namespaces), and each traced
method is replaced on its class.  ``uninstall`` puts the originals back.

Spans (name, start, end, parent, job id) go into flat arrays in memory and
are reduced to per-span metrics once, at the end:

* ``<span>.calls``: every call, nested ones included;
* ``<span>.busy_ms``: inclusive time of outermost calls only;
* ``<span>.self_ms``: span time minus the time covered by child spans.
"""

import sys
from array import array
from time import perf_counter

# (span name, module, attribute path) -- "Class.method" replaces a method
SPANS = [
    ("cli.run", "augvar.cli", "run"),
    ("potentials.build", "augvar.potentials", "clifford_relation"),
    ("potentials.build", "augvar.potentials", "product_spheres_relation"),
    ("potentials.build", "augvar.potentials", "toric_relation"),
    ("potentials.build", "augvar.potentials", "user_relation"),
    ("augment.solve_formal", "augvar.augment", "solve_formal_augmentation"),
    ("augment.solve_nilpotent", "augvar.augment", "solve_nilpotent_augmentation"),
    ("augment.find_transverse_root", "augvar.augment", "find_transverse_root"),
    ("augment.dga_relation_check", "augvar.augment", "dga_relation_check"),
    ("localization.verify_multicover_identity", "augvar.localization",
     "verify_multicover_identity"),
    ("polytope.hull", "augvar.polytope", "LatticePolytope.from_points"),
    ("polytope.normalized_volume", "augvar.polytope", "LatticePolytope.normalized_volume"),
    ("polytope.lattice_point_count", "augvar.polytope", "LatticePolytope.lattice_point_count"),
    ("polytope.edges", "augvar.polytope", "LatticePolytope.edges"),
    ("polytope.indecomposable_2d", "augvar.polytope", "indecomposable_2d"),
    ("polytope.irreducibility_certificate", "augvar.polytope", "irreducibility_certificate"),
    ("polytope.certify_distinct", "augvar.polytope", "certify_distinct"),
    ("laurent.mul", "augvar.laurent", "LaurentPoly.__mul__"),
    ("laurent.evaluate", "augvar.laurent", "LaurentPoly.evaluate"),
    ("laurent.clear_to_vertex", "augvar.laurent", "clear_to_vertex"),
    ("laurent.clear_to_vertex", "augvar.laurent", "clear_to_vertex_fitted"),
    ("intlin.phase1_feasible", "augvar.intlin", "phase1_feasible"),
    ("intlin.rref", "augvar.intlin", "rref"),
    ("rings.series_mul", "augvar.rings", "TruncatedSeries.__mul__"),
    ("rings.series_exp", "augvar.rings", "series_exp"),
    ("rings.series_log", "augvar.rings", "series_log"),
    ("rings.series_invert", "augvar.rings", "TruncatedSeries.invert"),
    ("rings.unipoly_divmod", "augvar.rings", "UniPoly.__divmod__"),
    ("rings.rational_roots", "augvar.rings", "rational_roots"),
]

SPAN_NAMES = list(dict.fromkeys(name for name, _, _ in SPANS))
SOLVERS = ("augment.solve_formal", "augment.solve_nilpotent")


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("l")
        self.job = array("l")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.depth = [0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(["cli.report_bytes", "augment.newton_steps",
                                     "polytope.hull.points_in", "polytope.hull.vertices_out",
                                     "rings.rational_roots.candidates"], 0)
        self.job_id = -1
        self._patches = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, span, fn, after=None, before=None):
        nid = self.ids[span]
        name, parent, job, outer = self.name, self.parent, self.job, self.outer
        start, end, stack, depth = self.start, self.end, self.stack, self.depth

        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            outer.append(depth[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                depth[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrap(self, fn, when, key):
        counts, depth = self.counts, self.depth

        def wrapper(*args, **kwargs):
            if depth[when]:
                counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, original, replacement):
        """Replace ``original`` wherever an augvar module namespace holds it."""
        for modname, mod in list(sys.modules.items()):
            if modname != "augvar" and not modname.startswith("augvar."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _replace_method(self, cls, method, replacement_for):
        """Replace a method and every class attribute aliasing it
        (``__rmul__ = __mul__``); classmethods are rewrapped."""
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            wrapped = classmethod(replacement_for(raw.__func__))
        else:
            wrapped = replacement_for(raw)
        for attr, value in list(cls.__dict__.items()):
            if value is raw:
                self._patches.append((cls, attr, value))
                setattr(cls, attr, wrapped)

    def install(self):
        counts = self.counts
        solver_ids = [self.ids[s] for s in SOLVERS]
        depth = self.depth

        def newton_step():
            if any(depth[i] for i in solver_ids):
                counts["augment.newton_steps"] += 1

        def residual_check(args, result):
            # the solver's own final residual substitution is not a step
            if not any(depth[i] for i in solver_ids):
                counts["augment.newton_steps"] -= 1

        def hull_sizes(args, result):
            counts["polytope.hull.points_in"] += len({tuple(p) for p in args[-1]})
            counts["polytope.hull.vertices_out"] += len(result.vertices)

        hooks = {
            "laurent.evaluate": dict(before=newton_step),
            "augment.solve_formal": dict(after=residual_check),
            "augment.solve_nilpotent": dict(after=residual_check),
            "polytope.hull": dict(after=hull_sizes),
        }
        for span, modname, path in SPANS:
            mod = sys.modules[modname]
            hook = hooks.get(span, {})
            if "." in path:
                cls_name, method = path.split(".")
                self._replace_method(getattr(mod, cls_name), method,
                                     lambda fn, s=span, h=hook: self._wrap(s, fn, **h))
            else:
                original = getattr(mod, path)
                self._rebind(original, self._wrap(span, original, **hook))
        rings = sys.modules["augvar.rings"]
        self._replace_method(
            rings.UniPoly, "evaluate",
            lambda fn: self._count_wrap(fn, self.ids["rings.rational_roots"],
                                        "rings.rational_roots.candidates"))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    # -- reduction ------------------------------------------------------------

    def count(self, key, n):
        self.counts[key] += n

    def metrics(self):
        """Per-span calls, busy and self time, plus the extra counts."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(SPAN_NAMES)
        busy = [0.0] * len(SPAN_NAMES)
        own = [0.0] * len(SPAN_NAMES)
        for i in range(n):
            nid = self.name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            if self.outer[i]:
                busy[nid] += dur
            own[nid] += dur - child[i]
        out = {}
        for nid, span in enumerate(SPAN_NAMES):
            out[span + ".calls"] = (calls[nid], "count")
            out[span + ".busy_ms"] = (busy[nid] * 1000.0, "ms")
            out[span + ".self_ms"] = (own[nid] * 1000.0, "ms")
        c = self.counts
        out["cli.report_bytes"] = (c["cli.report_bytes"], "bytes")
        out["augment.newton_steps"] = (c["augment.newton_steps"], "count")
        out["polytope.hull.points_in"] = (c["polytope.hull.points_in"], "count")
        points = c["polytope.hull.points_in"]
        out["polytope.hull.vertex_yield"] = (
            c["polytope.hull.vertices_out"] / points if points else 0.0, "ratio")
        out["rings.rational_roots.candidates"] = (c["rings.rational_roots.candidates"], "count")
        return out

    def span_count(self):
        return len(self.start)
