"""Replay pcgl command lines through ``pcgl.cli.main`` with every layer traced.

Usage: python3 traced.py OPS_JSON RESULT_JSON

OPS_JSON holds a list of argv lists.  Run in the directory the argv paths are
relative to.  The stdout of operation i is written to ``traced-<i>.out`` so it
can be compared byte for byte with the untraced run; RESULT_JSON receives the
exit codes and the per-layer summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pcgl  # noqa: E402  (loads every module before patching)
import pcgl.cli  # noqa: E402

from tracer import Recorder  # noqa: E402


def main() -> int:
    ops_path, result_path = sys.argv[1], sys.argv[2]
    with open(ops_path, encoding="utf-8") as fh:
        ops = json.load(fh)
    rec = Recorder()
    rec.install()
    codes = []
    for i, argv in enumerate(ops):
        rec.current_op = i
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(pcgl.cli.main(argv))
        with open(f"traced-{i}.out", "wb") as fh:
            fh.write(out.getvalue().encode("utf-8"))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"codes": codes, "layers": rec.summary()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
