"""The names the benchmark's tracer wraps exist in the package.

`perfbench/tracer.py` resolves each (module, attribute) of SPAN_TARGETS
and OP_TARGETS only when a traced run starts, and the warm-up check of
the benchmark clears three module-level caches by name.  Reading those
lists here makes a deleted or renamed target fail the test suite, not
only `perfbench/run.py --trace 1`.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


def _resolves(module, path):
    owner = importlib.import_module(f"g2trac.{module}")
    *head, name = path.split(".")
    for part in head:
        owner = getattr(owner, part, None)
    # the tracer reads the owner's own namespace, so inherited names do not count
    return callable(vars(owner).get(name)) if owner is not None else False


def test_every_traced_target_resolves():
    targets = tracer.SPAN_TARGETS + tracer.OP_TARGETS
    missing = [f"g2trac.{m}.{p}" for m, p, _ in targets if not _resolves(m, p)]
    assert targets and not missing


@pytest.mark.parametrize("module, name", [
    ("tractor", "_psr_cache"), ("octonions", "_STRUCTURE_CACHE"),
    ("octonions", "_SIGN_CACHE")])
def test_cache_the_warmup_check_clears_exists(module, name):
    assert isinstance(getattr(importlib.import_module(f"g2trac.{module}"), name), dict)


@pytest.mark.parametrize("module, name, home, home_name", [
    ("frames", "inverse_laurent", "linalg", "inverse_laurent"),
    ("tensors", "matrix_signature", "linalg", "signature"),
    ("verify", "npk_extract", "geometry", "npk_extract"),
    ("verify", "npk_verify", "geometry", "npk_verify"),
    ("verify", "compactness_check", "geometry", "compactness_check"),
    ("verify", "stratify", "geometry", "stratify"),
    ("verify", "d_tractor_3form", "tractor", "d_tractor_3form"),
    ("verify", "tractor_metric_hhdef", "tractor", "tractor_metric_hhdef")])
def test_rebound_name_the_benchmark_wraps_is_the_defining_object(module, name, home, home_name):
    # perfbench/tests checks that the tracer wraps these module-level
    # bindings, so a dropped import must fail here too
    bound = vars(importlib.import_module(f"g2trac.{module}")).get(name)
    assert bound is getattr(importlib.import_module(f"g2trac.{home}"), home_name)
