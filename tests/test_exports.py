"""Export hygiene: each public name of lnlab is defined once, in the submodule
whose ``__all__`` lists it."""

import importlib
import inspect
import pkgutil

import lnlab

SUBMODULES = [importlib.import_module(f"lnlab.{info.name}")
              for info in pkgutil.iter_modules(lnlab.__path__)]


def test_every_export_has_one_home():
    home: dict[str, str] = {}
    for mod in SUBMODULES:
        names = mod.__all__
        assert len(names) == len(set(names)), f"{mod.__name__} lists a name twice"
        for name in names:
            obj = getattr(mod, name)
            # type aliases such as matrix.Matrix are neither classes nor
            # functions, so they carry no defining module to check
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == mod.__name__, (
                    f"{mod.__name__} re-exports {name} from {obj.__module__}")
            assert name not in home, (
                f"{name} is exported from {home.get(name)} and {mod.__name__}")
            home[name] = mod.__name__
