"""Spans and counts at the layer boundaries of ``hermicone``, from outside.

``Tracer.install`` replaces each traced function with a wrapper at every
module that binds it (a name imported with ``from .x import f`` is a second
binding that a patch of ``x.f`` alone would miss) and each traced method on
its class; ``restore`` puts the originals back.  The package itself is not
edited.

Each call becomes a span (id, parent id, label, start, end, job id).  Self
time, the span's duration minus the time its child spans cover, is summed
per label as the spans close, so the metrics are exact even when the span
list is capped.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (label, module, attribute); "Class.method" names a method
TARGETS = (
    ("cli.main", "hermicone.cli", "main"),
    ("model.validate", "hermicone.model", "validate_model"),
    ("exterior.d_build", "hermicone.exterior", "ExteriorAlgebra.d_total"),
    ("exterior.d_build", "hermicone.exterior", "ExteriorAlgebra.d_blocks"),
    ("exterior.d_build", "hermicone.exterior", "ExteriorAlgebra.d_monomial"),
    ("exterior.wedge", "hermicone.exterior", "wedge"),
    ("metric.bundle", "hermicone.metric", "OperatorBundle.__init__"),
    ("metric.gram", "hermicone.metric", "OperatorBundle.gram"),
    ("metric.gram", "hermicone.metric", "OperatorBundle.gram_total"),
    ("metric.star", "hermicone.metric", "OperatorBundle.star_block"),
    ("metric.star", "hermicone.metric", "OperatorBundle.star"),
    ("metric.star", "hermicone.metric", "OperatorBundle.star_total"),
    ("metric.adjoint", "hermicone.metric", "OperatorBundle.trace_block"),
    ("metric.adjoint", "hermicone.metric", "OperatorBundle.mult_adjoint_block"),
    ("metric.adjoint", "hermicone.metric", "OperatorBundle.del_star_block"),
    ("metric.adjoint", "hermicone.metric", "OperatorBundle.dbar_star_block"),
    ("metric.adjoint", "hermicone.metric", "OperatorBundle.d_star_total"),
    ("metric.laplacian", "hermicone.metric", "OperatorBundle.laplacian"),
    ("metric.spectral", "hermicone.metric", "OperatorBundle.spectral"),
    ("metric.eigh", "scipy.linalg", "eigh"),
    ("metric.identity_suite", "hermicone.metric", "identity_suite"),
    ("hodge.projector", "hermicone.hodge", "harmonic_projector"),
    ("hodge.projector", "hermicone.hodge", "green_operator"),
    ("hodge.projector", "hermicone.hodge", "image_projector_d"),
    ("hodge.projector", "hermicone.hodge", "image_projector_d_star"),
    ("hodge.projector", "hermicone.hodge", "image_projector_dbar"),
    ("hodge.projector", "hermicone.hodge", "image_projector_dbar_star"),
    ("hodge.projector", "hermicone.hodge", "three_space_residuals"),
    ("hodge.potential", "hermicone.hodge", "d_potential"),
    ("hodge.potential", "hermicone.hodge", "dbar_potential"),
    ("hodge.torsion", "hermicone.hodge", "torsion_rho"),
    ("hodge.torsion", "hermicone.hodge", "torsion_gamma"),
    ("hodge.predicates", "hermicone.hodge", "predicates"),
    ("hodge.root", "hermicone.hodge", "root_n_minus_1"),
    ("functionals.eval", "hermicone.functionals", "eval_F"),
    ("functionals.eval", "hermicone.functionals", "eval_F_tilde"),
    ("functionals.eval", "hermicone.functionals", "eval_G"),
    ("functionals.eval", "hermicone.functionals", "eval_H"),
    ("variation.battery", "hermicone.variation", "variation_battery"),
    ("variation.fd", "hermicone.variation", "fd_derivative"),
    ("optimizer.constraint_basis", "hermicone.optimizer", "constraint_basis"),
    ("optimizer.descend", "hermicone.optimizer", "descend"),
)

SPAN_CAP = 100_000


class Tracer:
    """Installs wrappers, keeps spans and per-label totals, restores."""

    def __init__(self, targets=TARGETS, package="hermicone"):
        self.targets = targets
        self.package = package
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self.calls = Counter()
        self.outer_calls = Counter()
        self.extra = defaultdict(float)
        self.spans = []
        self.dropped = 0
        self.job = None
        self._depth = Counter()
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._hooks = {
            "metric.spectral": (_spectral_enter, _spectral_leave),
            "metric.eigh": (None, _eigh_leave),
            "variation.battery": (_battery_enter, _battery_leave),
            "optimizer.descend": (_descend_enter, _descend_leave),
        }

    # ----- install / restore ------------------------------------------------

    def _binding_modules(self, owner_name, name, original):
        out = [sys.modules[owner_name]]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name == owner_name:
                continue
            if mod_name != self.package and not mod_name.startswith(self.package + "."):
                continue
            if vars(mod).get(name) is original:
                out.append(mod)
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for label, mod_name, attr in self.targets:
                module = importlib.import_module(mod_name)
                enter, leave = self._hooks.get(label, (None, None))
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = vars(cls)[meth]
                    self._patch(cls, meth, original, self._wrap(label, original, enter, leave))
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(label, original, enter, leave)
                    for site in self._binding_modules(mod_name, attr, original):
                        self._patch(site, attr, original, wrapper)
        except Exception:
            self.restore()
            raise

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def restore(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # ----- spans ----------------------------------------------------------------

    def _wrap(self, label, fn, enter, leave):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = enter(tracer) if enter else None
            outer = tracer._depth[label] == 0
            tracer._depth[label] += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [tracer._next_id, perf_counter(), 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer._depth[label] -= 1
                duration = end - frame[1]
                tracer.self_s[label] += duration - frame[2]
                tracer.calls[label] += 1
                if outer:
                    tracer.outer_s[label] += duration
                    tracer.outer_calls[label] += 1
                if tracer._stack:
                    tracer._stack[-1][2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((frame[0], parent, label, frame[1], end, tracer.job))
                else:
                    tracer.dropped += 1
            if leave:
                leave(tracer, args, result, state)
            return result

        return wrapper

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tjob\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


# ----- counts kept at the same boundaries ----------------------------------------


def _spectral_enter(tracer):
    return tracer.calls["metric.eigh"]


def _spectral_leave(tracer, args, result, eigh_before):
    if tracer.calls["metric.eigh"] == eigh_before:
        tracer.extra["spectral_hits"] += 1


def _eigh_leave(tracer, args, result, state):
    dim = getattr(args[0], "shape", (0,))[0] if args else 0
    tracer.extra["eigh_dim_max"] = max(tracer.extra["eigh_dim_max"], dim)


def _battery_enter(tracer):
    return tracer.calls["metric.bundle"]


def _battery_leave(tracer, args, rows, bundles_before):
    tracer.extra["battery_bundles"] += tracer.calls["metric.bundle"] - bundles_before
    tracer.extra["battery_rows"] += len(rows)


def _descend_enter(tracer):
    return tracer.outer_calls["functionals.eval"]


def _descend_leave(tracer, args, trace, evals_before):
    tracer.extra["objective_evals"] += tracer.outer_calls["functionals.eval"] - evals_before
    tracer.extra["iterations"] += len(trace.records)
    tracer.extra["accepted"] += sum(1 for r in trace.records if r.step_size > 0)
    tracer.extra["backtracks"] += sum(r.backtracks for r in trace.records)


# ----- per-layer metrics -----------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, passes, overhead_s):
    """Per-layer metrics: totals per traced pass, ratios over the whole run."""
    self_s, calls, extra = tracer.self_s, tracer.calls, tracer.extra

    def per(x):
        return x / passes

    values = {
        "model.validate_s": (per(self_s["model.validate"]), "s"),
        "model.validate_calls": (per(calls["model.validate"]), "count"),
        "exterior.d_build_s": (per(tracer.outer_s["exterior.d_build"]), "s"),
        "exterior.wedge_calls": (per(calls["exterior.wedge"]), "count"),
        "exterior.wedge_s": (per(self_s["exterior.wedge"]), "s"),
        "metric.bundles_built": (per(calls["metric.bundle"]), "count"),
        "metric.gram_s": (per(self_s["metric.gram"]), "s"),
        "metric.gram_calls": (per(calls["metric.gram"]), "count"),
        "metric.star_s": (per(self_s["metric.star"]), "s"),
        "metric.adjoint_s": (per(self_s["metric.adjoint"]), "s"),
        "metric.laplacian_s": (per(self_s["metric.laplacian"]), "s"),
        "metric.eigh_s": (per(self_s["metric.eigh"]), "s"),
        "metric.eigh_calls": (per(calls["metric.eigh"]), "count"),
        "metric.eigh_dim_max": (extra["eigh_dim_max"], "rows"),
        "metric.spectral_hit_ratio": (
            _ratio(extra["spectral_hits"], calls["metric.spectral"]), "ratio"),
        "metric.identity_suite_s": (per(self_s["metric.identity_suite"]), "s"),
        "hodge.projector_s": (per(self_s["hodge.projector"]), "s"),
        "hodge.potential_s": (per(self_s["hodge.potential"]), "s"),
        "hodge.torsion_s": (per(self_s["hodge.torsion"]), "s"),
        "hodge.predicates_s": (per(self_s["hodge.predicates"]), "s"),
        "hodge.root_s": (per(self_s["hodge.root"]), "s"),
        "functionals.evals": (per(tracer.outer_calls["functionals.eval"]), "count"),
        "functionals.eval_s": (per(self_s["functionals.eval"]), "s"),
        "variation.battery_s": (per(self_s["variation.battery"]), "s"),
        "variation.fd_calls": (per(calls["variation.fd"]), "count"),
        "variation.bundles_per_row": (
            _ratio(extra["battery_bundles"], extra["battery_rows"]), "ratio"),
        "optimizer.constraint_basis_s": (per(self_s["optimizer.constraint_basis"]), "s"),
        "optimizer.iterations": (per(extra["iterations"]), "count"),
        "optimizer.objective_evals": (per(extra["objective_evals"]), "count"),
        "optimizer.evals_per_iter": (
            _ratio(extra["objective_evals"], extra["iterations"]), "ratio"),
        "optimizer.backtracks": (per(extra["backtracks"]), "count"),
        "optimizer.accept_ratio": (
            _ratio(extra["accepted"], extra["accepted"] + extra["backtracks"]), "ratio"),
        "cli.self_s": (per(self_s["cli.main"]), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return values
