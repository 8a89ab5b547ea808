"""Span recorder that times calls into pcgl's modules from outside the program.

`install` replaces each traced function with a wrapper on every module (and
class) that binds it, so a call recorded under ``poly.substitute`` is caught
whether it goes through ``pcgl.poly``, ``pcgl.cluster`` or ``pcgl.symmetric``.
Spans are kept in memory as flat lists and summarised when the run ends; no
file under ``src/pcgl`` is touched.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

# Layer name -> (module, attribute).  "Class.attr" patches a class attribute,
# together with every alias of it in the class (``__rmul__ = __mul__``).
TARGETS = {
    "linalg.solve": ("pcgl.linalg", "solve"),
    "linalg.rank": ("pcgl.linalg", "rank"),
    "presentation.bracket": ("pcgl.presentation", "bracket"),
    "presentation.lam": ("pcgl.presentation", "PoissonPresentation.lam"),
    "presentation.validate_algebra": ("pcgl.presentation", "validate_algebra"),
    "cgl.compute_eta_and_primes": ("pcgl.cgl", "compute_eta_and_primes"),
    "cgl.certify_prime_sequence": ("pcgl.cgl", "certify_prime_sequence"),
    "poly.mul": ("pcgl.poly", "MvLaurent.__mul__"),
    "poly.add": ("pcgl.poly", "MvLaurent.__add__"),
    "poly.substitute": ("pcgl.poly", "substitute"),
    "poly.exact_divide": ("pcgl.poly", "exact_divide"),
    "poly.apply_derivation": ("pcgl.poly", "apply_derivation"),
    "cluster.seed_for_tau": ("pcgl.cluster", "seed_for_tau"),
    "cluster.solve_btilde": ("pcgl.cluster", "solve_btilde"),
    "cluster.r_matrix_for_tau": ("pcgl.cluster", "r_matrix_for_tau"),
    "cluster.mutate_r": ("pcgl.cluster", "mutate_r"),
    "cluster.verify_one_step": ("pcgl.cluster", "verify_one_step"),
    "cluster.cluster_expressions": ("pcgl.cluster", "cluster_expressions"),
    "cluster.express_in_cluster": ("pcgl.cluster", "express_in_cluster"),
    "cluster.build": ("pcgl.cluster", "ClusterContext.build"),
    "symmetric.interval_prime": ("pcgl.symmetric", "interval_prime"),
    "symmetric.validate_symmetric": ("pcgl.symmetric", "validate_symmetric"),
    "symmetric.rescale_generators": ("pcgl.symmetric", "rescale_generators"),
    "serialize.presentation_from_doc": ("pcgl.serialize", "presentation_from_doc"),
    "serialize.poly_report": ("pcgl.serialize", "poly_report"),
    "serialize.dump_json": ("pcgl.serialize", "dump_json"),
    "cli.main": ("pcgl.cli", "main"),
}

# Spans whose first interesting argument is kept, to count distinct permutations.
_KEYS: Dict[str, Callable] = {
    "cluster.seed_for_tau": lambda args: tuple(args[1]),
}


class Recorder:
    """Spans as parallel lists: name, start, end, parent index, operation id,
    key and the name of the exception that ended the call (or None)."""

    def __init__(self) -> None:
        self.name: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self.key: List[object] = []
        self.error: List[Optional[str]] = []
        self.current_op = 0
        self._stack: List[int] = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        ops, keys, errors, stack = self.op, self.key, self.error, self._stack
        key_of = _KEYS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.current_op)
            keys.append(key_of(args) if key_of else None)
            starts.append(0.0)
            ends.append(0.0)
            errors.append(None)
            stack.append(idx)
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target on every loaded pcgl module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "pcgl" or n.startswith("pcgl."))]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in attr:
                clsname, meth = attr.split(".")
                cls = getattr(owner, clsname)
                raw = vars(cls)[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw)
                for k, v in list(vars(cls).items()):
                    if v is raw:
                        setattr(cls, k, new)
                continue
            orig = getattr(owner, attr)
            new = self.wrap(name, orig)
            for mod in modules:
                for k, v in list(vars(mod).items()):
                    if v is orig:
                        setattr(mod, k, new)

    def summary(self) -> Dict[str, dict]:
        """Per layer: calls, self time, errors by type and distinct keys."""
        n = len(self.name)
        child_time = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child_time[par] += self.end[i] - self.start[i]
        out: Dict[str, dict] = {name: {"calls": 0, "self_s": 0.0, "errors": {}, "distinct": 0}
                                for name in TARGETS}
        distinct: Dict[str, set] = {name: set() for name in TARGETS}
        for i in range(n):
            rec = out[self.name[i]]
            rec["calls"] += 1
            rec["self_s"] += (self.end[i] - self.start[i]) - child_time[i]
            if self.error[i] is not None:
                rec["errors"][self.error[i]] = rec["errors"].get(self.error[i], 0) + 1
            if self.key[i] is not None:
                distinct[self.name[i]].add((self.op[i], self.key[i]))
        for name, keys in distinct.items():
            out[name]["distinct"] = len(keys)
        return out
