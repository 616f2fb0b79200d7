"""A per-layer trace of cmcalc, installed from outside the package.

``Tracer.install`` wraps the public functions in TARGETS.  A function is
rebound in every cmcalc module that holds it by name, and a method is
rebound on its class; nothing under src/ changes.  Coarse calls record a
span each (name, start, end, parent).  The hot leaves, called up to
millions of times a pass, only count calls and time, so the trace fits in
memory.  A span's self time is its duration minus that of its child spans;
a leaf's self time is its duration minus the spans inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer prefix, module, attribute, records spans)
TARGETS = (
    ("intlinalg.snf", "cmcalc.intlinalg", "smith_normal_form", True),
    ("intlinalg.hnf", "cmcalc.intlinalg", "hermite_normal_form", True),
    ("intlinalg.solve", "cmcalc.intlinalg", "solve_integer", True),
    ("intlinalg.kernel", "cmcalc.intlinalg", "integer_kernel", True),
    ("groups.make_group", "cmcalc.groups", "make_group", True),
    ("groups.coset_of", "cmcalc.groups", "coset_of", False),
    ("groups.abelianization", "cmcalc.groups", "abelianization", True),
    ("groups.transfer", "cmcalc.groups", "transfer", True),
    ("cmtypes.act", "cmcalc.cmtypes", "CMFieldHandle.act", False),
    ("cmtypes.enumerate", "cmcalc.cmtypes", "enumerate_cm_types", True),
    ("serre.lattice", "cmcalc.serre", "serre_character_lattice", True),
    ("serre.reflex_norm", "cmcalc.serre", "reflex_norm_map", True),
    ("serre.report", "cmcalc.serre", "serre_report", True),
    ("cocycle.taniyama", "cmcalc.cocycle", "taniyama_cocycle", False),
    ("cocycle.report", "cmcalc.cocycle", "cocycle_report", True),
    ("quadratic.ideal", "cmcalc.quadratic", "ideal_from_elements", False),
    ("quadratic.factor", "cmcalc.quadratic", "factor_rational_prime", True),
    ("quadratic.primary", "cmcalc.quadratic", "primary_generator", True),
    ("quadratic.rayclass", "cmcalc.quadratic", "ray_class_group", True),
    ("zeta.count_fp", "cmcalc.zeta", "count_points", True),
    ("zeta.count_fp2", "cmcalc.zeta", "count_points_quadratic_extension", True),
    ("zeta.euler_hecke", "cmcalc.zeta", "euler_from_hecke", True),
    ("zeta.sweep", "cmcalc.zeta", "verify_cm_zeta", True),
    ("zeta.res_scalars", "cmcalc.zeta", "verify_res_scalars", True),
)


class Tracer:
    def __init__(self):
        # open frames, innermost last: [child span ns, is span, span index]
        self.frames = [[0, True, -1]]
        self.spans: list = []
        self.stats = {name: [0, 0, 0] for name, *_ in TARGETS}  # calls, total ns, self ns
        self.max_rows = {"intlinalg.snf": 0, "intlinalg.hnf": 0}
        self.transform_cells = 0

    @classmethod
    def install(cls) -> "Tracer":
        tracer = cls()
        for name, module, attr, spans in TARGETS:
            owner = importlib.import_module(module)
            if "." in attr:
                klass, attr = attr.split(".")
                owner = getattr(owner, klass)
                setattr(owner, attr, tracer._wrap(name, owner.__dict__[attr], spans))
                continue
            original = getattr(owner, attr)
            wrapper = tracer._wrap(name, original, spans)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "cmcalc" or mod_name.startswith("cmcalc."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        return tracer

    def _wrap(self, name, fn, record_span):
        stats, frames, spans = self.stats[name], self.frames, self.spans
        clock = time.perf_counter_ns
        shape = {"intlinalg.snf": self._snf_shape, "intlinalg.hnf": self._hnf_shape}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0, record_span, -1]
            if record_span:
                parent = next(f[2] for f in reversed(frames) if f[1])
                frame[2] = index = len(spans)
                spans.append(None)
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if record_span:
                    spans[index] = (name, start, end, parent)
                    for outer in reversed(frames):  # up to the enclosing span
                        outer[0] += dur
                        if outer[1]:
                            break
            if shape:
                shape(args[0], result)
            return result

        return wrapper

    def _snf_shape(self, m, result):
        self.max_rows["intlinalg.snf"] = max(self.max_rows["intlinalg.snf"], len(m))
        _, u, v = result
        self.transform_cells += len(u) ** 2 + len(v) ** 2

    def _hnf_shape(self, m, result):
        self.max_rows["intlinalg.hnf"] = max(self.max_rows["intlinalg.hnf"], len(m))

    def metrics(self) -> dict:
        out = {}
        for name, (calls, total, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total / 1e9
            out[f"{name}.self_s"] = own / 1e9
        for name, rows in self.max_rows.items():
            out[f"{name}.max_rows"] = rows
        out["intlinalg.snf.transform_cells"] = self.transform_cells
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent}) + "\n")
