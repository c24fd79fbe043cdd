"""Set-up for the one function this program runs in Spark's Python
workers, the harness's trial worker.

pyspark's worker calls ``importlib.invalidate_caches()`` at the start of
every task (``pyspark.worker_util.setup_spark_files``). On Python 3.11
that calls ``invalidate_caches`` on every importer in
``sys.path_importer_cache``, and a ``zipimport.zipimporter`` answers by
re-reading its archive's whole central directory. A worker that imported
pyspark from ``pyspark.zip`` holds one such importer per package
directory inside the archive, so each task re-reads the same directory
(about 1,300 entries in pyspark 4.1) a dozen times or more: tens of
milliseconds before any of the task's own code runs. Python 3.12 made
this re-read lazy.
"""
from __future__ import annotations

import sys
import zipimport


def release_zip_importers() -> None:
    """Drop the ``zipimporter`` entries from ``sys.path_importer_cache``,
    so the next task on this worker has no archive to re-read.

    Call it at the top of a function that runs on an executor. Then only
    a fresh worker's first tasks pay for the re-read: entries come back
    while a task imports modules for the first time, and the next call
    drops them.

    Pruning is safe here. ``sys.path_importer_cache`` is documented as a
    cache: a path whose entry is gone gets a new importer from the path
    hooks, and only when a module that is not yet imported is looked
    up. A new ``zipimporter`` takes the archive's directory from
    ``zipimport``'s own cache, which this leaves alone, so it reads
    nothing. That directory can only go stale if an archive changes
    while the worker lives, and this program ships no ``addPyFile``
    archives. Modules already imported keep their loaders. Other
    importers (``FileFinder`` for plain directories) are kept, and on
    Python 3.12 or with pyspark imported from a directory this drops
    nothing costly.
    """
    cache = sys.path_importer_cache
    for path, finder in list(cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            cache.pop(path, None)
