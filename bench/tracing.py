"""Span tracer that wraps modkit's layers from outside the program.

Each layer is one modkit module. :func:`install` replaces every public
function of a layer module with a recording wrapper, in the module itself
and in every other modkit namespace (including module-level dicts such as
the campaign suite table) that holds a ``from .x import f`` copy of it. A
few named class methods and ``numpy.linalg.eigh``/``eigvalsh``/``svd`` are
wrapped too. The program's source is never modified.

A span records name, start, end, parent span, operation id, whether it
raised, and an extra note (matrix size for eigh, bytes for a dense
superoperator). Spans stay in memory until the run ends. A span's self time is its duration minus the
time its child spans cover; numpy spans are children of the modkit span
that called them, so layer self time excludes time inside eigh and svd,
which is reported under ``numpy.*``.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "cli",
    "campaigns",
    "sampling",
    "vecops",
    "linalg",
    "states",
    "schmidt",
    "modular",
    "kms",
    "cone",
    "inequalities",
)

# (module, class, method) -> span name
METHODS = {
    ("vecops", "SuperOperator", "__init__"): "vecops.SuperOperator.init",
    ("vecops", "SuperOperator", "compose"): "vecops.SuperOperator.compose",
    ("vecops", "SuperOperator", "apply"): "vecops.SuperOperator.apply",
    ("vecops", "SuperOperator", "distance"): "vecops.SuperOperator.distance",
    ("states", "PositiveFunctional", "__init__"): "states.PositiveFunctional.init",
    ("states", "PositiveFunctional", "power"): "states.PositiveFunctional.power",
}

# spans whose inclusive time is reported as "<name>.ms"
TIMED_SPANS = (
    "modular.relative_s_matrix",
    "modular.relative_f_matrix",
    "modular.relative_modular_power",
    "modular.relative_modular_unitary",
    "modular.modular_flow",
    "modular.connes_cocycle",
    "modular.verify_tomita_takesaki",
    "vecops.SuperOperator.compose",
    "vecops.SuperOperator.apply",
    "vecops.SuperOperator.distance",
    "vecops.swap_operator",
    "inequalities.ogata_modular",
    "inequalities.ozawa_s",
    "inequalities.hoa_generalized",
    "inequalities.phillips",
    "inequalities.default_registry",
    "linalg.spectral_decomposition",
    "linalg.psd_power",
    "linalg.check_psd",
    "linalg.schatten_norm",
    "states.PositiveFunctional.init",
    "states.PositiveFunctional.power",
    "kms.kms_function",
    "kms.heisenberg_evolve",
    "kms.centralizer_basis",
    "cli.load_matrix",
)

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "error", "extra")
_MIB = 1024.0 * 1024.0


class Tracer:
    """Records spans in compact parallel arrays; one instance per traced phase.

    Span ``i`` is ``(names[name[i]], start[i], end[i], parent[i], op[i],
    error[i], extra.get(i))``.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.error = array("b")
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._seen_eigh: set = set()
        self.op = -1
        self.missing: list[str] = []

    def __len__(self) -> int:
        return len(self.start)

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen_eigh.clear()

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped in a span; ``note`` computes ``extra`` first."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        ops, errors, extras, stack = self.op_of, self.error, self.extra, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            extra = note(args, kwargs) if note is not None else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            errors.append(0)
            ends.append(0.0)
            if extra is not None:
                extras[idx] = extra
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def _eigh_note(self, args, kwargs):
        """(n, repeated): repeated if byte-identical input was seen this op."""
        a = np.ascontiguousarray(args[0] if args else kwargs["a"])
        key = (a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
        repeated = key in self._seen_eigh
        self._seen_eigh.add(key)
        return (a.shape[-1], repeated)

    @staticmethod
    def _superop_note(args, kwargs):
        """Computed bytes of the d^2 x d^2 complex128 matrix."""
        d = args[1] if len(args) > 1 else kwargs["d"]
        return 16 * int(d) ** 4


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions, the named methods and numpy."""
    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        try:
            mod = importlib.import_module(f"modkit.{layer}")
        except ImportError:
            tracer.missing.append(layer)
            continue
        for name, obj in list(vars(mod).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ):
                wrappers[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)

    for (layer, cls_name, meth), span in METHODS.items():
        cls = getattr(sys.modules.get(f"modkit.{layer}"), cls_name, None)
        fn = vars(cls).get(meth) if cls is not None else None
        if fn is None:
            tracer.missing.append(span)
            continue
        note = tracer._superop_note if span == "vecops.SuperOperator.init" else None
        setattr(cls, meth, tracer.wrap(span, fn, note))

    # rebind the module attribute and every copy held elsewhere in modkit
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "modkit" or mod_name.startswith("modkit.")):
            continue
        for name, obj in list(vars(mod).items()):
            if callable(obj) and id(obj) in wrappers:
                setattr(mod, name, wrappers[id(obj)])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if callable(value) and id(value) in wrappers:
                        obj[key] = wrappers[id(value)]

    np.linalg.eigh = tracer.wrap("numpy.eigh", np.linalg.eigh, tracer._eigh_note)
    np.linalg.eigvalsh = tracer.wrap(
        "numpy.eigh", np.linalg.eigvalsh, tracer._eigh_note
    )
    np.linalg.svd = tracer.wrap("numpy.svd", np.linalg.svd)


def per_layer_metrics(tracer: Tracer, ops: int, count_ops: int) -> dict[str, float]:
    """Per-operation layer metrics from a finished traced phase.

    Times (``*.self_ms``, ``*.ms``, ``numpy.*_ms``) are means over all
    ``ops`` traced operations. Counts are means over operations
    ``0 .. count_ops-1`` only, whose inputs are fixed by the seed, so they
    repeat exactly between two traced runs with the same seed.
    """
    names, parent = tracer.names, tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    errors = {layer: 0 for layer in LAYERS}
    inclusive = {name: 0.0 for name in TIMED_SPANS}
    eigh_calls = eigh_repeat = eigh_n3 = svd_calls = 0
    eigh_s = svd_s = 0.0
    superops = superop_bytes = 0

    for i, nid in enumerate(tracer.name):
        name = names[nid]
        layer = name.split(".", 1)[0]
        counted = 0 <= tracer.op_of[i] < count_ops
        if layer in self_s:
            self_s[layer] += dur[i] - child[i]
            if counted:
                calls[layer] += 1
                errors[layer] += tracer.error[i]
        if name in inclusive and not _inside_same(tracer, i):
            inclusive[name] += dur[i]
        if name == "numpy.eigh":
            eigh_s += dur[i]
            if counted:
                n, repeated = tracer.extra[i]
                eigh_calls += 1
                eigh_n3 += n**3
                eigh_repeat += int(repeated)
        elif name == "numpy.svd":
            svd_s += dur[i]
            svd_calls += int(counted)
        elif name == "vecops.SuperOperator.init" and counted:
            superops += 1
            superop_bytes += tracer.extra[i]

    n = max(ops, 1)
    k = max(min(count_ops, ops), 1)
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 1e3 * self_s[layer] / n
        out[f"{layer}.calls"] = calls[layer] / k
        out[f"{layer}.errors"] = errors[layer] / k
    for name in TIMED_SPANS:
        out[f"{name}.ms"] = 1e3 * inclusive[name] / n
    out["vecops.dense_superops"] = superops / k
    out["vecops.dense_superop_mb"] = superop_bytes / _MIB / k
    out["numpy.eigh_calls"] = eigh_calls / k
    out["numpy.eigh_ms"] = 1e3 * eigh_s / n
    out["numpy.eigh_n3"] = eigh_n3 / k
    out["numpy.eigh_repeat_ratio"] = eigh_repeat / eigh_calls if eigh_calls else 0.0
    out["numpy.svd_calls"] = svd_calls / k
    out["numpy.svd_ms"] = 1e3 * svd_s / n
    return out


def _inside_same(tracer: Tracer, i: int) -> bool:
    """True if span i runs inside another span of the same name."""
    nid, p = tracer.name[i], tracer.parent[i]
    while p >= 0:
        if tracer.name[p] == nid:
            return True
        p = tracer.parent[p]
    return False


def write_spans(tracer: Tracer, path) -> None:
    """Write spans as gzipped tab-separated rows, times in microseconds."""
    origin = tracer.start[0] if len(tracer) else 0.0
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("\t".join(SPAN_FIELDS) + "\n")
        for i, nid in enumerate(tracer.name):
            extra = tracer.extra.get(i, "")
            fh.write(
                f"{tracer.names[nid]}\t{1e6 * (tracer.start[i] - origin):.1f}"
                f"\t{1e6 * (tracer.end[i] - origin):.1f}\t{tracer.parent[i]}"
                f"\t{tracer.op_of[i]}\t{tracer.error[i]}\t{extra}\n"
            )
