"""Import layering (DESIGN.md §3): lazy package exports, the CLI parser's
literal choices, and the modules each store command loads.

The diet checks assert module sets, not timings: a store check that
loads the crawler pays for it in every process, however fast the host.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.crawler.pool import BACKENDS, CrawlerPool
from repro.crawler.storage import CrawlStore
from repro.experiments.tables import ALL_EXPERIMENTS
from repro.synthweb.generator import SyntheticWeb
from repro.tools.header_generator import HeaderPreset

PACKAGES = ("repro", "repro.analysis", "repro.crawler", "repro.browser",
            "repro.policy", "repro.registry", "repro.synthweb",
            "repro.tools", "repro.experiments", "repro.service")


def export_table(package: str) -> dict[str, str]:
    """name -> defining module, read from the package's lazy_exports
    table in its source."""
    source = Path(importlib.import_module(package).__file__).read_text()
    call = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports")
    table = ast.literal_eval(call.args[1])
    return {name: module for module, names in table.items()
            for name in names}


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_name_is_its_defining_modules_object(self, package):
        pkg = importlib.import_module(package)
        table = export_table(package)
        assert sorted(pkg.__all__) == sorted(table)
        for name, module in table.items():
            assert getattr(pkg, name) is getattr(
                importlib.import_module(module), name), name

    @pytest.mark.parametrize("package", PACKAGES)
    def test_dir_star_import_and_unknown_names(self, package):
        pkg = importlib.import_module(package)
        assert set(pkg.__all__) <= set(dir(pkg))
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(pkg.__all__) <= set(namespace)
        with pytest.raises(AttributeError, match="no_such_export"):
            pkg.no_such_export  # noqa: B018
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_export", {})

    def test_name_shared_with_its_submodule_stays_the_function(self):
        module = importlib.import_module("repro.experiments.drift_study")
        from repro.experiments import drift_study
        assert drift_study is module.drift_study

    def test_package_version(self):
        assert repro.__version__ == "1.0.0"


def _choices(command: str, dest: str) -> list:
    parser = cli._build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return list(next(action for action in sub.choices[command]._actions
                     if action.dest == dest).choices)


class TestParserChoices:
    """The parser's choices are literals (so --help imports nothing);
    these pin them to the objects they name."""

    @pytest.mark.parametrize("command", ["crawl", "telemetry", "profile"])
    def test_backends(self, command):
        assert _choices(command, "backend") == list(BACKENDS)

    def test_experiments(self):
        assert _choices("experiment", "name") == [*ALL_EXPERIMENTS, "all"]

    def test_header_presets(self):
        assert _choices("generate-header", "preset") == [
            preset.value for preset in HeaderPreset]


_RUN_COMMAND = """\
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: Loaded by none of the store-read commands.
CRAWL_MODULES = {"repro.crawler.backends", "repro.crawler.supervisor",
                 "repro.synthweb.generator", "multiprocessing",
                 "concurrent.futures.process"}
#: Loaded by neither verify-store nor export-jsonl.
CRAWL_AND_BROWSER = CRAWL_MODULES | {"repro.crawler.pool",
                                     "repro.browser.page"}


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    root = tmp_path_factory.mktemp("diet")
    paths = []
    for seed in (3, 4):
        path = root / f"era-{seed}.sqlite"
        with CrawlStore(path) as store:
            CrawlerPool(SyntheticWeb(40, seed=seed), workers=1,
                        backend="serial").run(store=store, collect=False)
        paths.append(str(path))
    return paths


def _modules_loaded(argv: list[str]) -> set[str]:
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _RUN_COMMAND,
                           json.dumps(argv)], env=env, check=True,
                          capture_output=True, text=True)
    result = json.loads(done.stdout)
    assert result["code"] == 0, done.stderr
    return set(result["modules"])


class TestStoreCommandImports:
    def test_verify_store(self, stores):
        loaded = _modules_loaded(["verify-store", "--database", stores[0]])
        assert "repro.crawler.storage" in loaded
        assert not loaded & CRAWL_AND_BROWSER
        # Nor does the parser load the modules its choices come from.
        assert not loaded & {"repro.experiments.tables",
                             "repro.tools.header_generator"}

    def test_export_jsonl(self, stores, tmp_path):
        loaded = _modules_loaded(["export-jsonl", "--database", stores[0],
                                  "--output", str(tmp_path / "v.jsonl")])
        assert "repro.crawler.storage" in loaded
        assert not loaded & CRAWL_AND_BROWSER

    def test_analyze_database(self, stores):
        loaded = _modules_loaded(["analyze", "--database", stores[0]])
        assert "repro.analysis.summary" in loaded
        assert not loaded & CRAWL_MODULES

    def test_drift_report(self, stores):
        loaded = _modules_loaded(["drift-report", *stores])
        assert "repro.analysis.drift" in loaded
        assert not loaded & CRAWL_MODULES
