"""The package's value types trust their values: a range check on outside
input lives in the reader that reads it, so only the two types whose checks
two readers share check themselves."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import gesturepoint


def test_only_plane_and_scenario_template_check_themselves():
    checked = set()
    for info in pkgutil.iter_modules(gesturepoint.__path__):
        module = importlib.import_module(f"gesturepoint.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            # a dataclass checks itself in __post_init__, a geometry.FrozenValue in _check
            if cls.__module__ == module.__name__ and {"__post_init__", "_check"} & vars(cls).keys():
                checked.add(f"{info.name}.{name}")
    assert checked == {"geometry.Plane", "evaluation.ScenarioTemplate"}
