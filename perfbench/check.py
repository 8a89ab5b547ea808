"""Per-operation correctness checks on pcgl reports.

Each check returns None when the report is mathematically right, else a
one-line reason.  The expected values follow from the inputs: Gamma_N has
N(N-1)/2 links and 1 + N(N-1)/2 clusters, the m x n matrix algebra has rank
m + n - 1, and the polynomial algebra equals the upper cluster algebra, so a
polynomial in the generators is certified while y_a^-1 * y_b (a prime y_a not
dividing y_b) is not.
"""

from __future__ import annotations

import json
from typing import Optional


def _report(stdout: bytes):
    try:
        return json.loads(stdout.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def check(op: dict, code: int, stdout: bytes) -> Optional[str]:
    """Judge one pcgl run of operation `op` (see inputs.make_workload)."""
    kind = op["check"]
    want_code = 1 if kind == "y_probe" else 0
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    doc = _report(stdout)
    if not isinstance(doc, dict):
        return "stdout is not a JSON report"
    if doc.get("command") != op["argv"][0]:
        return f"report is for command {doc.get('command')!r}"
    n = op["n"]
    if kind == "chain":
        links = doc.get("links", [])
        if len(links) != n * (n - 1) // 2 or doc.get("summary", {}).get("links") != len(links):
            return f"{len(links)} links, expected {n * (n - 1) // 2}"
        if not all(link.get("verified") is True for link in links):
            return "a link is not verified"
        if doc["summary"].get("all_verified") is not True:
            return "summary says not all verified"
        if "gamma_applied" not in doc:
            return "the rescale-and-rebuild path was not taken"
        return None
    if kind == "analyze":
        if doc.get("certified") is not True:
            return "prime sequence not certified"
        rank = doc.get("eta", {}).get("rank")
        if rank != op["rank"]:
            return f"rank {rank}, expected {op['rank']}"
        return None
    witnesses = doc.get("witnesses", [])
    if len(witnesses) != 1 + n * (n - 1) // 2:
        return f"{len(witnesses)} clusters, expected {1 + n * (n - 1) // 2}"
    if kind == "x_probe":
        if doc.get("certified") is not True or not all(w.get("ok") is True for w in witnesses):
            return "polynomial in the generators not certified"
        return None
    if kind == "y_probe":
        if doc.get("certified") is not False:
            return "non-polynomial element certified"
        return None
    return f"unknown check {kind!r}"
