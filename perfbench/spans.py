"""Spans around the public entry points of each beclab module.

The traced worker has imported every ``beclab`` module at set-up.  It
then replaces each entry point below with a wrapper that records a span
(name, parent, start, end and a few counts taken from the arguments or
the result).
Names imported with ``from x import f`` live on in several modules, so a
wrapper is bound in every ``beclab`` module whose namespace holds the
original object, and ``check_bindings`` fails if any module still holds
one.  The two numerical kernels (``scipy.fft.dstn`` as called from
``beclab.gp`` and ``numpy.fft.rfftn`` as called from the tensor module)
only record a span when the innermost open span is their owning layer,
so a DST inside the mode-basis accuracy check stays in the basis layer's
self time.

Spans stay in memory; ``layer_metrics`` folds them into the per-layer
metrics once a pass is over.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, span name, counter(args, result) -> {key: number})
FUNCTIONS = (
    ("beclab.cli", "execute", "cli.execute", None),
    ("beclab.cli", "verify", "cli.verify", None),
    ("beclab.cli", "_atomic_write", "cli.write", lambda a, r: {"bytes": len(a[1])}),
    ("beclab.scattering", "solve_zero_energy", "scattering.solve",
     lambda a, r: {"ode_steps": r.ode_steps}),
    ("beclab.gp", "minimize_gp", "gp.minimize", lambda a, r: {"iterations": r.iterations}),
    ("beclab.manybody.basis", "build_mode_basis", "basis.mode_build", None),
    ("beclab.manybody.tensor", "interaction_tensor", "tensor.build",
     lambda a, r: {"pairs": r.n_pairs, "entries": r.pair_matrix.size,
                   "nonzero": _nonzero(r.pair_matrix)}),
    ("beclab.manybody.ground", "ground_state", "ground.solve", None),
    ("beclab.manybody.ground", "hartree_energy", "metrics.reference", None),
    ("beclab.manybody.metrics", "expand_reference", "metrics.reference", None),
    ("beclab.manybody.metrics", "condensate_metrics", "metrics.condensate", None),
    ("beclab.manybody.localization", "localization_profile", "localization.profile", None),
    ("beclab.poincare", "estimate_constant", "poincare.estimate",
     lambda a, r: {"trials": r.trials}),
    ("beclab.poincare", "weighted_check", "poincare.weighted", None),
    ("beclab.poincare", "masked_gradient_sq", "poincare.gradient", None),
)

# (module, class, method, span name, counter); "build" is a classmethod
METHODS = (
    ("beclab.manybody.basis", "FockBasis", "build", "basis.fock_build",
     lambda a, r: {"states": r.size}),
    ("beclab.manybody.tensor", "InteractionTensor", "fold_hamiltonian_pairs",
     "tensor.fold", None),
    ("beclab.manybody.ground", "PairOpHamiltonian", "__init__", "ground.ham_build",
     lambda a, r: {"fock_dim": a[0].fock.size}),
    ("beclab.manybody.ground", "PairOpHamiltonian", "matvec", "ground.matvec", None),
    ("beclab.manybody.ground", "PairOpHamiltonian", "one_body_matrix", "ground.gamma", None),
)

# (module, attribute, span name, owning span, counter)
KERNELS = (
    ("beclab.gp", "dstn", "gp.dst", "gp.minimize", lambda a, r: {"points": a[0].size}),
    ("numpy.fft", "rfftn", "tensor.rfftn", "tensor.build", None),
)

# Layers every workload must show; a missed binding would otherwise read 0 s.
EXPECTED_SPANS = {
    "gp_dump_weighted": ("cli.execute", "cli.runner", "cli.write", "cli.verify",
                         "gp.minimize", "gp.dst", "poincare.estimate",
                         "poincare.weighted", "poincare.gradient"),
    "fixed_g_sweep": ("cli.execute", "cli.runner", "cli.write", "cli.verify",
                      "scattering.solve", "gp.minimize", "gp.dst", "basis.mode_build",
                      "basis.fock_build", "tensor.build", "tensor.rfftn", "tensor.fold",
                      "ground.solve", "ground.ham_build", "ground.matvec", "ground.gamma",
                      "metrics.condensate", "metrics.reference"),
    "pair_localization": ("cli.execute", "cli.runner", "cli.write", "cli.verify",
                          "scattering.solve", "gp.minimize", "gp.dst", "basis.mode_build",
                          "basis.fock_build", "tensor.build", "tensor.rfftn", "tensor.fold",
                          "ground.solve", "ground.ham_build", "ground.matvec",
                          "ground.gamma", "metrics.condensate", "metrics.reference",
                          "localization.profile"),
}

LAYERS = ("cli", "scattering", "gp", "basis", "tensor", "ground", "metrics",
          "localization", "poincare")

# Counts that must repeat exactly between runs of the same code.
REPEAT_COUNTS = ("gp.iterations", "gp.dst_calls", "tensor.rfftn_calls",
                 "ground.matvecs", "ground.ham_builds")


def _nonzero(b) -> int:
    import numpy as np

    scale = float(np.abs(b).max()) if b.size else 0.0
    return int(np.count_nonzero(np.abs(b) > 1e-12 * scale)) if scale > 0 else 0


class Tracer:
    """In-memory span recorder; a span is [name, parent, start, end, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counter=None, owner=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if owner is not None and (not stack or spans[stack[-1]][0] != owner):
                return fn(*args, **kwargs)
            span = [name, stack[-1] if stack else None, time.perf_counter(), None, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, result)
            return result

        return traced

    def reset(self):
        self.spans.clear()


def _beclab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "beclab" or name.startswith("beclab."))]


def _rebind(original, wrapper):
    for module in _beclab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> list:
    """Bind wrappers everywhere; returns the original objects for the check."""
    originals = []
    for mod, attr, name, counter in FUNCTIONS:
        fn = getattr(importlib.import_module(mod), attr)
        originals.append(fn)
        _rebind(fn, tracer.wrap(name, fn, counter))
    for mod, cls_name, attr, name, counter in METHODS:
        cls = getattr(importlib.import_module(mod), cls_name)
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__, counter)))
        else:
            setattr(cls, attr, tracer.wrap(name, raw, counter))
    for mod, attr, name, owner, counter in KERNELS:
        module = importlib.import_module(mod)
        fn = getattr(module, attr)
        originals.append(fn)
        wrapper = tracer.wrap(name, fn, counter, owner=owner)
        setattr(module, attr, wrapper)
        _rebind(fn, wrapper)
    cli = importlib.import_module("beclab.cli")
    for kind, runner in list(cli._RUNNERS.items()):
        originals.append(runner)
        wrapper = tracer.wrap("cli.runner", runner)
        cli._RUNNERS[kind] = wrapper
        _rebind(runner, wrapper)
    return originals


def check_bindings(originals) -> list:
    """Names of beclab module attributes that still hold an unwrapped original."""
    ids = {id(fn) for fn in originals}
    left = [f"{m.__name__}.{attr}" for m in _beclab_modules()
            for attr, value in vars(m).items() if id(value) in ids]
    cli = sys.modules["beclab.cli"]
    left += [f"beclab.cli._RUNNERS[{k!r}]" for k, v in cli._RUNNERS.items() if id(v) in ids]
    if any(id(getattr(sys.modules[m], a)) in ids for m, a, *_ in KERNELS):
        left.append("kernel module attribute")
    return left


def missing_spans(spans, workload: str) -> list:
    seen = {s[0] for s in spans}
    return [name for name in EXPECTED_SPANS[workload] if name not in seen]


def layer_metrics(spans) -> dict:
    """Fold one pass's spans into the per-layer metrics."""
    dur, calls, extra = {}, {}, {}
    child = [0.0] * len(spans)
    for name, parent, t0, t1, counts in spans:
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        for key, val in (counts or {}).items():
            k = f"{name}:{key}"
            extra[k] = max(extra.get(k, 0), val) if key == "fock_dim" else extra.get(k, 0) + val
        if parent is not None:
            child[parent] += t1 - t0
    self_s = dict.fromkeys(LAYERS, 0.0)
    for (name, _, t0, t1, _), kids in zip(spans, child):
        if name != "cli.verify":
            self_s[name.split(".")[0]] += (t1 - t0) - kids

    def d(name):
        return dur.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def x(key):
        return extra.get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.execute_s": d("cli.execute"),
        "cli.runner_s": d("cli.runner"),
        "cli.io_s": d("cli.execute") - d("cli.runner"),
        "cli.bytes_written": x("cli.write:bytes"),
        "cli.verify_s": d("cli.verify"),
        "scattering.solve_s": d("scattering.solve"),
        "scattering.calls": n("scattering.solve"),
        "scattering.ode_steps": x("scattering.solve:ode_steps"),
        "gp.minimize_s": d("gp.minimize"),
        "gp.calls": n("gp.minimize"),
        "gp.iterations": x("gp.minimize:iterations"),
        "gp.dst_calls": n("gp.dst"),
        "gp.dst_s": d("gp.dst"),
        "gp.dst_points": x("gp.dst:points"),
        "gp.dst_ns_per_point": ratio(1e9 * d("gp.dst"), x("gp.dst:points")),
        "gp.flow_self_s": d("gp.minimize") - d("gp.dst"),
        "basis.mode_build_s": d("basis.mode_build"),
        "basis.fock_build_s": d("basis.fock_build"),
        "basis.fock_states": x("basis.fock_build:states"),
        "tensor.build_s": d("tensor.build"),
        "tensor.builds": n("tensor.build"),
        "tensor.pairs": x("tensor.build:pairs"),
        "tensor.rfftn_calls": n("tensor.rfftn"),
        "tensor.rfftn_s": d("tensor.rfftn"),
        "tensor.contract_s": d("tensor.build") - d("tensor.rfftn"),
        "tensor.rfftn_per_pair": ratio(n("tensor.rfftn"), x("tensor.build:pairs")),
        "tensor.nonzero_frac": ratio(x("tensor.build:nonzero"), x("tensor.build:entries")),
        "tensor.fold_s": d("tensor.fold"),
        "ground.solve_s": d("ground.solve"),
        "ground.ham_builds": n("ground.ham_build"),
        "ground.ham_build_s": d("ground.ham_build"),
        "ground.ham_builds_per_solve": ratio(n("ground.ham_build"), n("ground.solve")),
        "ground.matvecs": n("ground.matvec"),
        "ground.matvec_s": d("ground.matvec"),
        "ground.gamma_s": d("ground.gamma"),
        "ground.fock_dim": x("ground.ham_build:fock_dim"),
        "metrics.condensate_s": d("metrics.condensate"),
        "metrics.reference_s": d("metrics.reference"),
        "localization.profile_s": d("localization.profile"),
        "poincare.estimate_s": d("poincare.estimate"),
        "poincare.trials": x("poincare.estimate:trials"),
        "poincare.weighted_s": d("poincare.weighted"),
        "poincare.weighted_checks": n("poincare.weighted"),
        "poincare.gradient_calls": n("poincare.gradient"),
        "poincare.gradient_s": d("poincare.gradient"),
    }
    m.update({f"{layer}.self_s": val for layer, val in self_s.items()})
    m["trace.self_sum_s"] = sum(self_s.values())
    m["trace.spans"] = len(spans)
    return m


_RATIOS = ("tensor.rfftn_per_pair", "tensor.nonzero_frac", "ground.ham_builds_per_solve")


def layer_units(metrics) -> dict:
    def unit(name):
        if name.endswith("_s"):
            return "s"
        if name in _RATIOS:
            return "ratio"
        return {"cli.bytes_written": "bytes", "gp.dst_ns_per_point": "ns/point"}.get(name, "count")

    return {name: unit(name) for name in metrics}
