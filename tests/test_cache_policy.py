"""Bounded caches: every memoized callable in noetherlab holds a finite number
of entries, so a long run at large spin cannot grow a cache without limit."""

import importlib
import inspect
import pkgutil

import noetherlab


def _cached_callables():
    """(dotted name, callable) for every ``cache_info()``-bearing function or
    class attribute defined in a noetherlab module."""
    for info in pkgutil.iter_modules(noetherlab.__path__):
        module = importlib.import_module(f"noetherlab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                member = getattr(member, "__func__", member)  # staticmethod, classmethod
                if hasattr(member, "cache_info"):
                    yield ".".join(filter(None, (info.name, name, attr))), member


def test_every_cache_has_a_finite_maxsize():
    unbounded = [where for where, fn in _cached_callables()
                 if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_the_scan_sees_the_caches():
    seen = dict(_cached_callables())
    for where in ("su2rep.clebsch_gordan", "su2rep.cg", "su2rep.spin_operators",
                  "su2rep._ito_basis_cached"):
        assert where in seen
