"""Tests for spark_worker.release_zip_importers, run without Spark on a
zipped package of their own."""
from __future__ import annotations

import importlib
import sys
import zipfile
import zipimport
from importlib.machinery import FileFinder

import pytest

from repro.spark_worker import release_zip_importers

PKG = "_zipped_pkg_for_release_test"


def _importers(kind) -> dict:
    return {p: f for p, f in sys.path_importer_cache.items() if isinstance(f, kind)}


@pytest.fixture
def zipped_pkg(tmp_path, monkeypatch):
    """A package with one subpackage and two modules in a zip on
    ``sys.path``; its modules and importers are removed afterwards."""
    archive = tmp_path / "pkg.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr(f"{PKG}/__init__.py", "")
        z.writestr(f"{PKG}/sub/__init__.py", "")
        z.writestr(f"{PKG}/sub/first.py", "VALUE = 1\n")
        z.writestr(f"{PKG}/sub/second.py", "VALUE = 2\n")
    monkeypatch.syspath_prepend(str(archive))
    yield str(archive)
    for name in [m for m in sys.modules if m.split(".")[0] == PKG]:
        del sys.modules[name]
    for path in [p for p in sys.path_importer_cache if p.startswith(str(archive))]:
        del sys.path_importer_cache[path]


def test_drops_zip_importers_and_keeps_file_finders(zipped_pkg):
    assert importlib.import_module(f"{PKG}.sub.first").VALUE == 1
    # One importer for the archive and one per package directory in it.
    assert len([p for p in _importers(zipimport.zipimporter) if p.startswith(zipped_pkg)]) >= 3
    finders = _importers(FileFinder)
    assert finders

    release_zip_importers()

    assert _importers(zipimport.zipimporter) == {}
    after = _importers(FileFinder)
    assert after.keys() == finders.keys()
    assert all(after[p] is f for p, f in finders.items())


def test_later_imports_come_back_without_rereading(zipped_pkg):
    """A module not yet imported is still found in the zip; its new
    importer reuses zipimport's cached directory of the archive."""
    importlib.import_module(f"{PKG}.sub.first")
    directory = zipimport._zip_directory_cache[zipped_pkg]
    release_zip_importers()

    assert importlib.import_module(f"{PKG}.sub.second").VALUE == 2
    assert _importers(zipimport.zipimporter)
    assert zipimport._zip_directory_cache[zipped_pkg] is directory


def test_second_call_is_harmless(zipped_pkg):
    importlib.import_module(f"{PKG}.sub.first")
    release_zip_importers()
    release_zip_importers()
    assert _importers(zipimport.zipimporter) == {}
    assert importlib.import_module(f"{PKG}.sub.second").VALUE == 2
