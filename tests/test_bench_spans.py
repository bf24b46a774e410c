"""The benchmark's tracer wraps library functions by name; each of them
must still exist, or a traced run breaks where no other test looks."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    # bench/ is no package; spans.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves():
    missing = []
    for modname, attrs in _spans_module().GROUPS.values():
        module = importlib.import_module(modname)
        for attr in attrs:
            owner = module
            for part in attr.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{modname}.{attr}")
    assert missing == []
