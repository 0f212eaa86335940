"""The value rules every layer shares, and the order the layers import in."""

import ast
from pathlib import Path

import numpy as np
import pytest

from faultprint import explain, localize, netgen, optim, sensors, values

# Each module imports only modules before it; plots imports none.
LAYERS = (
    "values", "netgen", "sensors", "detector", "optim", "explain", "localize", "pipeline", "cli"
)


def _package_imports(path: Path) -> set[str]:
    """The faultprint modules a source file imports, at any depth of it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("faultprint.")
            )
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "faultprint":
                    continue
                module = module[len("faultprint"):].lstrip(".")
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_each_module_imports_only_the_layers_before_it():
    package = Path(values.__file__).parent
    imports = {path.stem: _package_imports(path) for path in package.glob("*.py")}
    assert set(imports) == set(LAYERS) | {"plots", "__init__"}
    assert imports["plots"] == set()
    for position, name in enumerate(LAYERS):
        assert imports[name] <= set(LAYERS[:position]) | {"plots"}, name
    # The solver stands on the value rules alone, and only the layers that
    # solve import it.
    assert imports["optim"] == {"values"}
    assert {name for name, found in imports.items() if "optim" in found} == {
        "explain", "pipeline", "__init__"
    }


def test_package_imports_reads_every_import_form(tmp_path):
    source = tmp_path / "module.py"
    source.write_text(
        "from . import optim, plots\nfrom .netgen import x\nfrom faultprint.sensors import y\n"
        "import faultprint.detector\nfrom faultprint import localize\nimport numpy\n"
        "def f():\n    from .values import z\n",
        encoding="utf-8",
    )
    assert _package_imports(source) == {
        "optim", "plots", "netgen", "sensors", "detector", "localize", "values"
    }


def _sites(panel, ensemble) -> dict:
    """Each call that checks an integer field, by site, with the field set
    to the value it is given and every other argument valid."""
    scenario = dict(n_pressure=12, n_flow=2, n_steps=2000, train_end=700, latent_dim=3, seed=0)
    fault = dict(kind=netgen.PowerFailure(), sensor=2, onset=800)
    model = dict(weights=np.ones(3), bias=0.0, target=1, window=3)
    lp = optim.ConvexProblem.linear(np.ones(1), np.eye(1), np.ones(1), np.full(1, np.inf))

    def with_field(make, given, name):
        return lambda value: make(**{**given, name: value})

    sites = {}
    for make, given, names in (
        (netgen.ScenarioConfig, scenario, scenario),
        (netgen.FaultSpec, fault, ("sensor", "onset")),
        (sensors.LinearModel, model, ("target", "window")),
    ):
        for name in names:
            sites[f"{make.__name__}.{name}"] = with_field(make, given, name)
    sites.update({
        "lagged_window_means.window": lambda v: sensors.lagged_window_means(np.ones((10, 2)), v),
        "fit_virtual_sensor.target": lambda v: sensors.fit_virtual_sensor(panel, v, 3, (3, 700)),
        "snapshot_at_alarm.t": lambda v: explain.snapshot_at_alarm(panel, ensemble, v),
        "aggregate_alarm_sequence.limit": lambda v: localize.aggregate_alarm_sequence([1, 2, 1], v),
        "solve.max_iters": lambda v: optim.solve(lp, max_iters=v),
    })
    return sites


# (site: a call and the field it checks, a valid value, the least value allowed or None)
CHECK_INTEGER_SITES = [
    ("ScenarioConfig.n_pressure", 12, 2),
    ("ScenarioConfig.n_flow", 2, 0),
    ("ScenarioConfig.n_steps", 2000, None),
    ("ScenarioConfig.train_end", 700, None),
    ("ScenarioConfig.latent_dim", 3, 1),
    ("ScenarioConfig.seed", 0, 0),
    ("FaultSpec.sensor", 2, 0),
    ("FaultSpec.onset", 800, 0),
    ("LinearModel.target", 1, None),
    ("LinearModel.window", 3, 1),
    ("lagged_window_means.window", 3, 1),
    ("fit_virtual_sensor.target", 0, None),
    ("snapshot_at_alarm.t", 900, None),
    ("aggregate_alarm_sequence.limit", 2, 1),
    ("solve.max_iters", 50, 1),
]


@pytest.mark.parametrize(
    "site, valid, least", CHECK_INTEGER_SITES, ids=[site[0] for site in CHECK_INTEGER_SITES]
)
def test_every_integer_field_keeps_one_rule(default_panel, default_ensemble, site, valid, least):
    call, name = _sites(default_panel, default_ensemble)[site], site.split(".")[1]
    call(np.int64(valid))  # a numpy integer is an integer
    call(np.uint16(valid))
    for refused in (True, False, float(valid), str(valid)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {refused!r}$"):
            call(refused)
    if least is not None:
        call(least)
        message = f"^{name} must be at least {least}, got {least - 1}$"
        for below in (least - 1, np.int64(least - 1)):
            with pytest.raises(ValueError, match=message):
                call(below)
