"""Bring one workload's inputs to a ready state in a fresh interpreter, then exit.

Usage: python3 setup_probe.py context|validate FILE...

Covers what every pcgl command pays before its own work: importing
``pcgl.cli``, loading each presentation through ``serialize.presentation_from_doc``
and either building the cluster context as the CLI does (``ClusterContext.build``,
falling back to ``build_normalizing`` on ``ClusterError``) or, for ``analyze``,
validating the algebra.  The caller times the process from spawn to exit.
"""

import json
import sys

import pcgl.cli  # noqa: F401  (the import is part of the measured set-up)
from pcgl import cluster, serialize
from pcgl.presentation import validate_algebra


def main() -> int:
    mode, paths = sys.argv[1], sys.argv[2:]
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            p, _names = serialize.presentation_from_doc(json.load(fh))
        if mode == "validate":
            if not validate_algebra(p).passed:
                return 1
        else:
            try:
                cluster.ClusterContext.build(p)
            except cluster.ClusterError:
                cluster.ClusterContext.build_normalizing(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
