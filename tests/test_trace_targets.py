"""Every function the benchmark's tracer wraps must exist on pcgl.

perfbench/tracer.py names its targets as (module, attribute) pairs, and
"Class.attr" names a class attribute.  A rename in pcgl would otherwise
surface only when a traced benchmark run fails.
"""

import importlib
import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_trace_target_resolves():
    missing = []
    for layer, (modname, attr) in sorted(_targets().items()):
        owner = importlib.import_module(modname)
        if "." in attr:
            clsname, meth = attr.split(".")
            cls = getattr(owner, clsname, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append(f"{layer}: {modname}.{attr}")
    assert not missing, missing
