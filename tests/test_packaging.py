"""Packaging guard: every on-disk ``repro`` subpackage ships in the wheel.

``pyproject.toml`` discovers packages with setuptools' ``find_packages``
over ``src``; this test pins that discovery to the actual directory
tree, so adding a subpackage (as the store/service PR does with
``repro.store`` and ``repro.service``) without an ``__init__.py`` — or
with one that fails to import — breaks loudly here instead of silently
shipping an incomplete distribution.
"""

from __future__ import annotations

import importlib
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def on_disk_packages() -> set:
    """Every directory under ``src/repro`` that contains python modules."""
    found = set()
    for current, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        if any(name.endswith(".py") for name in files):
            relative = os.path.relpath(current, SRC)
            found.add(relative.replace(os.sep, "."))
    return found


def test_find_packages_matches_directory_tree():
    setuptools = pytest.importorskip("setuptools")
    discovered = {
        name
        for name in setuptools.find_packages(SRC)
        if name == "repro" or name.startswith("repro.")
    }
    assert discovered == on_disk_packages()


def test_new_subpackages_are_discovered_and_import():
    setuptools = pytest.importorskip("setuptools")
    discovered = set(setuptools.find_packages(SRC))
    for name in ("repro.store", "repro.service"):
        assert name in discovered, f"{name} missing from find_packages"
        importlib.import_module(name)


def test_every_package_has_init():
    for name in on_disk_packages():
        path = os.path.join(SRC, name.replace(".", os.sep), "__init__.py")
        assert os.path.exists(path), f"{name} lacks __init__.py"


def test_version_matches_pyproject():
    import re

    import repro

    with open(os.path.join(REPO_ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        declared = re.search(r'^version = "([^"]+)"', handle.read(), re.MULTILINE)
    assert declared is not None, "pyproject.toml declares no version"
    assert repro.__version__ == declared.group(1)
