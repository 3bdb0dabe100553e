"""Span recorder that times the library's layers from outside.

``Tracer.install`` replaces each public function of the ``schmidt_norms``
modules, and the ``numpy.linalg`` solvers the library calls, with a timing
wrapper.  The wrapper is bound in every module namespace that bound the
original (``compress_tensor`` lives in ``optim``, ``norms`` and ``cones``), and
function-local imports read the module attribute at call time, so every call
into a layer is seen.  No file of the library changes.

Spans (name, start, end, parent, instance id) stay in compact arrays in memory
and are written out when the run ends.  ``layer_metrics`` turns them into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from harness import ratio, self_times

# Public functions per layer, plus the kernel entry points the optimizers
# import across modules (``_numerical_radius_attain``, ``_truncate_vec``,
# ``_frame_gradient``).
LAYER_FUNCTIONS = {
    "linalg": ["operator_norm", "trace_norm", "min_eig_hermitian",
               "numerical_radius", "schmidt_decompose", "schmidt_rank",
               "truncate_schmidt", "_numerical_radius_attain", "_truncate_vec"],
    "rand": ["complex_gaussian", "random_unit_vector", "random_unitary",
             "random_isometry", "random_frame", "random_sr_k_vector",
             "random_hermitian", "random_cptp", "RandomConfig.generator"],
    "optim": ["run_restarts", "frame_ascent", "compress_tensor",
              "lift_from_frame", "_frame_gradient"],
    "norms": ["sk_norm", "compress", "omin_norm", "min_order_norm",
              "max_order_norm_upper", "block_positive_decomposition",
              "dec_norm_value", "maxk_space_norm_bounds"],
    "cones": ["k_block_positivity", "sn_upper_verify", "witness_check",
              "reduction_witness", "random_schmidt_ensemble"],
    "maps": ["identity_map", "transpose_map", "depolarizing_map",
             "reduction_map", "apply", "idk_apply", "idk_pairing_matrix",
             "k_positivity", "k_peb_certify", "k_peb_refute", "idk_op_norm",
             "hermitian_trace_norm", "detection_map", "sn_contraction_test"],
    "oracle": ["brute_sk_norm", "brute_block_min", "brute_min_order",
               "brute_omin", "brute_idk_norm"],
    "matio": ["load_matrix", "load_bipartite", "load_map", "load_ensemble",
              "read_json", "dump_matrix", "dump_bipartite", "dump_map",
              "dump_state", "dump_ensemble", "write_json"],
    "cli": ["main"],
}
LAPACK_FUNCTIONS = ["eigh", "eigvalsh", "svd", "qr"]
HIT_TOL = 1e-6  # a restart "hits" when it ends this close to the best

NORMS_SELF = ["min_order_norm", "omin_norm", "block_positive_decomposition",
              "dec_norm_value", "max_order_norm_upper", "sk_norm",
              "maxk_space_norm_bounds"]
MAPS_FUNCS = ["idk_apply", "idk_pairing_matrix", "idk_op_norm",
              "hermitian_trace_norm", "detection_map", "sn_contraction_test"]
ORACLE_SELF = ["brute_sk_norm", "brute_min_order", "brute_block_min", "brute_omin"]


def span_name(layer: str, func: str) -> str:
    func = func.split(".")[-1].lstrip("_")
    if layer == "matio":
        return "matio.%s.%s" % ("load" if func.startswith(("load", "read")) else "dump",
                                func)
    return "%s.%s" % (layer, func)


def oracle_bytes(func: str, dims, k: int, samples: int) -> int:
    """Bytes of the sampled complex arrays an oracle call builds, computed
    from their shapes (16 bytes per complex entry), not measured."""
    m, n = dims
    if func in ("brute_omin", "brute_idk_norm"):
        count = max(1, samples // 100)
        return 16 * count * (n * k + 2 * (m * k) ** 2)
    per_vector = m * k + n * k + m * n
    pairs = 2 if func == "brute_sk_norm" else 1
    return 16 * samples * pairs * per_vector


class Tracer:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_instance = -1
        self.counters = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, on_return=None):
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def adopt(self, record: dict, parent_sid: int) -> None:
        """Append the spans and counters recorded by another process (a CLI
        child, see :meth:`export`), hanging its root spans under
        ``parent_sid``."""
        for name, value in record["counters"].items():
            self.counters[name] += value
        spans = record["spans"]
        offset = len(self.start)
        for name, start, end, parent in spans:
            self.name_id.append(self._intern(name))
            self.parent.append(parent_sid if parent < 0 else parent + offset)
            self.instance.append(self.current_instance)
            self.start.append(start)
            self.end.append(end)

    def export(self) -> dict:
        """Spans as (name, start, end, parent) rows plus the counters, for
        :meth:`adopt` in the parent process."""
        spans = [(self.names[self.name_id[i]], self.start[i], self.end[i],
                  self.parent[i]) for i in range(len(self.start))]
        return {"spans": spans, "counters": dict(self.counters)}

    def write(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=np.frombuffer(self.name_id, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            instance=np.frombuffer(self.instance, dtype=np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    # -- counters fed from return values ------------------------------------

    def _on_frame_ascent(self, _args, _kwargs, outcome):
        self.counters["accepted_steps"] += len(outcome.history) - 1

    def _on_run_restarts(self, _args, _kwargs, result):
        best, outcomes = result
        self.counters["restarts"] += len(outcomes)
        self.counters["restart_hits"] += sum(
            abs(o.value - best.value) <= HIT_TOL for o in outcomes)

    def _oracle_hook(self, func: str):
        from schmidt_norms.oracle import OracleConfig

        def hook(args, kwargs, _result):
            target, k = args[0], args[1]
            cfg = (args[2] if len(args) > 2 else kwargs.get("cfg")) or OracleConfig()
            samples = cfg.samples
            dims = getattr(target, "dims", None) or (target.in_dim, target.out_dim)
            self.counters["oracle_samples"] += samples
            self.counters["oracle_bytes"] += oracle_bytes(func, dims, k, samples)
        return hook

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function in every ``schmidt_norms`` namespace
        that bound it, and the ``numpy.linalg`` solvers."""
        import schmidt_norms  # noqa: F401  (loads every submodule)
        import schmidt_norms.cli  # noqa: F401

        namespaces = [mod for name, mod in list(sys.modules.items())
                      if name == "schmidt_norms" or name.startswith("schmidt_norms.")]
        hooks = {"frame_ascent": self._on_frame_ascent,
                 "run_restarts": self._on_run_restarts}
        for layer, funcs in LAYER_FUNCTIONS.items():
            module = sys.modules["schmidt_norms." + layer]
            for func in funcs:
                name = span_name(layer, func)
                hook = hooks.get(func)
                if layer == "oracle":
                    hook = self._oracle_hook(func)
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._patches.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(name, orig, hook))
                    continue
                orig = getattr(module, func)
                wrapped = self.wrap(name, orig, hook)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is orig:
                            self._patches.append((ns, attr, orig))
                            setattr(ns, attr, wrapped)
        for func in LAPACK_FUNCTIONS:
            orig = getattr(np.linalg, func)
            self._patches.append((np.linalg, func, orig))
            setattr(np.linalg, func, self.wrap("lapack." + func, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, instances: int) -> dict:
        """Per-layer metrics over every span recorded so far, as
        {name: (value, unit)}."""
        names = [self.names[i] for i in self.name_id]
        selfs = self_times(self.start, self.end, self.parent)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        in_ascent = [False] * len(names)
        eigh_in_ascent = evals_in_ascent = 0
        startup = []
        oracle_time = 0.0
        for i, name in enumerate(names):
            p = self.parent[i]
            if p >= 0:
                in_ascent[i] = in_ascent[p] or names[p] == "optim.frame_ascent"
            layer = name.split(".")[0]
            if layer == "lapack" and p < 0:
                continue  # the benchmark's own checks, not a library call
            calls[name] += 1
            self_s[name] += selfs[i]
            layer_self[layer] += selfs[i]
            if in_ascent[i]:
                if name == "lapack.eigh":
                    eigh_in_ascent += 1
                elif name == "optim.compress_tensor":
                    evals_in_ascent += 1
            if name == "cli.main" and p >= 0:
                startup.append(self.start[i] - self.start[p])
            if layer == "oracle":
                oracle_time += self.end[i] - self.start[i]

        def group(prefix):
            return sum(v for k, v in self_s.items() if k.startswith(prefix))

        out = {}
        for func in LAPACK_FUNCTIONS:
            out["lapack.%s.calls" % func] = (calls["lapack." + func], "count")
        out["lapack.self_s"] = (layer_self["lapack"], "s")
        out["lapack.eigh_per_eval"] = (ratio(eigh_in_ascent, evals_in_ascent), "ratio")
        out["linalg.self_s"] = (layer_self["linalg"], "s")
        out["linalg.numerical_radius_attain.calls"] = (
            calls["linalg.numerical_radius_attain"], "count")
        out["linalg.truncate_vec.calls"] = (calls["linalg.truncate_vec"], "count")
        for func in NORMS_SELF:
            out["norms.%s.self_s" % func] = (self_s["norms." + func], "s")
        out["cones.k_block_positivity.calls_per_instance"] = (
            ratio(calls["cones.k_block_positivity"], instances), "count/instance")
        out["cones.k_block_positivity.self_s"] = (self_s["cones.k_block_positivity"], "s")
        out["cones.witness_check.self_s"] = (self_s["cones.witness_check"], "s")
        for func in ("run_restarts", "frame_ascent", "compress_tensor"):
            out["optim.%s.calls" % func] = (calls["optim." + func], "count")
            out["optim.%s.self_s" % func] = (self_s["optim." + func], "s")
        out["optim.accept_ratio"] = (
            ratio(self.counters["accepted_steps"], evals_in_ascent), "ratio")
        out["optim.restart_hit_ratio"] = (
            ratio(self.counters["restart_hits"], self.counters["restarts"]), "ratio")
        for func in MAPS_FUNCS:
            out["maps.%s.calls" % func] = (calls["maps." + func], "count")
            out["maps.%s.self_s" % func] = (self_s["maps." + func], "s")
        for func in ORACLE_SELF:
            out["oracle.%s.self_s" % func] = (self_s["oracle." + func], "s")
        out["oracle.samples_per_s"] = (
            ratio(self.counters["oracle_samples"], oracle_time), "1/s")
        out["oracle.bytes"] = (int(self.counters["oracle_bytes"]), "bytes.computed")
        out["rand.self_s"] = (layer_self["rand"], "s")
        out["matio.load.self_s"] = (group("matio.load."), "s")
        out["matio.dump.self_s"] = (group("matio.dump."), "s")
        out["cli.startup_s"] = (float(np.median(startup)) if startup else 0.0, "s")
        out["cli.main.self_s"] = (self_s["cli.main"], "s")
        return out

