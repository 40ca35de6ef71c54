"""One tolerance policy: every check reads ``numkit.TOL`` when it runs, and no
public function or method lets a caller override a tolerance."""

import importlib
import inspect
import pkgutil

import noetherlab
from support import identity_channel

TOLERANCE_NAMES = {"tol", "slack", "floor"}


def _modules():
    return {info.name: importlib.import_module(f"noetherlab.{info.name}")
            for info in pkgutil.iter_modules(noetherlab.__path__)}


def _public_callables():
    """(dotted name, callable) for every function, class constructor and
    public method named in a module's ``__all__``."""
    for mod_name, module in _modules().items():
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                if callable(obj):
                    yield f"{mod_name}.{name}", obj
                continue
            for attr in vars(obj):
                member = getattr(obj, attr)
                if callable(member) and not inspect.isclass(member) and (
                        attr == "__init__" or not attr.startswith("_")):
                    yield f"{mod_name}.{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance():
    offenders = [f"{where}({p})" for where, fn in _public_callables()
                 for p in inspect.signature(fn).parameters
                 if p in TOLERANCE_NAMES]
    assert offenders == []


def test_the_scan_sees_methods_and_constructors():
    seen = dict(_public_callables())
    for where in ("chan.QuantumChannel.__init__", "chan.QuantumChannel.from_json_dict",
                  "bounds.BoundCheck.of", "mcoracle.McEstimate.within", "numkit.is_hermitian",
                  "bounds.BoundCheck.__init__", "cli.TradeoffSweep.__init__"):
        assert where in seen


def test_channels_carry_no_tolerance():
    ch = identity_channel(2)
    for derived in (ch, ch.complementary()):
        assert not hasattr(derived, "tol")


def test_tolerances_constructed_once_as_tol():
    sources = {name: inspect.getsource(module) for name, module in _modules().items()}
    counts = {name: src.count("Tolerances(") for name, src in sources.items()}
    assert {name: n for name, n in counts.items() if n} == {"numkit": 1}
    assert "TOL = Tolerances()" in sources["numkit"]
