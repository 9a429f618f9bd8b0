"""The public API: aspill exports the kernel's way in, and README's library example runs on it."""

from __future__ import annotations

import ast
import importlib
import re
import warnings
from pathlib import Path

import numpy as np

import aspill
import aspill.decomposition as decomposition
import aspill.var_engine as var_engine
from aspill.panel import write_csv
from test_cli import SINGLE_MODEL
from varsim import make_panel, random_walk_matrix

PUBLIC = [
    "AspillError",
    "ConnectednessTable",
    "FevdResult",
    "NetMeasures",
    "Panel",
    "RollingConfig",
    "RollingTables",
    "RunConfig",
    "RunManifest",
    "ShockSide",
    "TrendSpec",
    "VarSpec",
    "__version__",
    "align",
    "compute_fevd",
    "config_from_manifest",
    "directional",
    "fetch_fred",
    "load_csv",
    "log_transform",
    "net_measures",
    "render_net_json",
    "render_plot",
    "render_rolling_csv",
    "render_svg",
    "render_table",
    "rolling_tables",
    "run_pipeline",
    "table_from_percent",
    "write_csv",
]

README = Path(__file__).resolve().parent.parent / "README.md"


class TestPublicApi:
    def test_all_names_the_kernel_api(self):
        assert sorted(aspill.__all__) == PUBLIC

    def test_single_model_path_lives_in_its_modules_only(self):
        # The benchmark verifier imports these from the modules that define them.
        modules = {"aspill.var_engine", "aspill.decomposition", "aspill.connectedness"}
        for item in (*SINGLE_MODEL, var_engine.VarFit, decomposition.DecomposedPanel, decomposition.TrendFit):
            assert not hasattr(aspill, item.__name__), item.__name__
            assert all(value is not item for value in vars(aspill).values()), item.__name__
            assert item.__module__ in modules
            assert getattr(importlib.import_module(item.__module__), item.__name__) is item


def library_block() -> str:
    """The first python code block of README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs_on_the_public_api(tmp_path, monkeypatch, capsys):
    values = random_walk_matrix(np.random.default_rng(5), 400, 3)
    write_csv(make_panel(values, ["us", "euro", "china"]), tmp_path / "vol.csv")
    assert (tmp_path / "vol.csv").read_text(encoding="utf-8").startswith("date,us,euro,china\n")
    code = library_block()
    imports = [node for node in ast.walk(ast.parse(code)) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert imports
    for node in imports:
        assert isinstance(node, ast.ImportFrom) and node.module == "aspill", ast.unparse(node)
        assert {alias.name for alias in node.names} <= set(aspill.__all__), ast.unparse(node)
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("total spillover: ")
