import importlib.util
import os

import gfdmsim

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def test_traced_names_resolve():
    # the benchmark's tracer wraps these module attributes; a missing one
    # makes every traced benchmark run fail
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in tracer.TRACED
        if not callable(getattr(getattr(gfdmsim, mod, None), attr, None))
    ]
    assert not missing, f"traced names missing from gfdmsim: {missing}"
