import inspect

import hqmm
from hqmm import analysis, classical, cli, cluster, config, linalg, modelfile, mps, quantum

MODULES = (analysis, classical, cli, cluster, config, linalg, modelfile, mps, quantum)


def _public_callables():
    """Every public function and non-exception class defined in the package's
    modules, and every public method of those classes, by qualified name."""
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj) and issubclass(obj, BaseException):
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_callable_takes_tolerances():
    public = dict(_public_callables())
    for name in ("hqmm.linalg.fixed_point", "hqmm.quantum.VnModel.to_hqmm", "hqmm.cli.main"):
        assert name in public
    takes_tols = [
        name for name, f in public.items() if "tols" in inspect.signature(f).parameters
    ]
    assert takes_tols == []


def test_tolerance_record_is_not_exported():
    assert "Tolerances" not in hqmm.__all__
    assert not hasattr(hqmm, "Tolerances")
