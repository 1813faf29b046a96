"""Surface budget: the system may get smaller, never silently bigger.

Each constant below is the current size of one public surface.  A change
that grows a surface must raise its constant in the same diff, in plain
sight; a change that shrinks one lowers it, so the next change cannot
quietly spend the room again.  The assertions are ``<=`` only for
the source-line budget (rounded up to the next hundred); every other count
must match exactly.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

from repro.core.backends import AVAILABLE_BACKENDS, StorageBackend
from repro.core.config import GraphCacheConfig
from repro.core.persistence import load_cache
from repro.exceptions import CacheError
from repro.graphs.generators import aids_like
from repro.methods import SIMethod

SRC = Path(__file__).resolve().parents[1] / "src"

#: ``dataclasses.fields(GraphCacheConfig)``: one per settable field, nothing
#: else (docstring entries, validation tables and CLI flags do not count).
CONFIG_FIELDS = 19
#: ``add_argument(`` calls in the CLI package (every subcommand's flags and
#: positionals; shared helpers counted once).
CLI_ARGUMENTS = 49
#: Concrete storage backends (classes and registry names alike).
STORAGE_BACKENDS = 2
#: Snapshot ``format_version`` values ``load_cache`` accepts.
SNAPSHOT_FORMATS_READ = 1
#: Lines of Python under ``src/``, rounded up to the next hundred.
SRC_LINES = 18_400


def _concrete_subclasses(base):
    found = set()
    for cls in base.__subclasses__():
        if not getattr(cls, "__abstractmethods__", None):
            found.add(cls)
        found |= _concrete_subclasses(cls)
    return found


def test_config_fields():
    assert len(dataclasses.fields(GraphCacheConfig)) == CONFIG_FIELDS


def test_cli_arguments():
    calls = sum(
        len(re.findall(r"\badd_argument\(", path.read_text(encoding="utf-8")))
        for path in (SRC / "repro" / "cli").rglob("*.py")
    )
    assert calls == CLI_ARGUMENTS


def test_storage_backends():
    assert len(AVAILABLE_BACKENDS) == STORAGE_BACKENDS
    assert len(_concrete_subclasses(StorageBackend)) == STORAGE_BACKENDS


def test_snapshot_formats_read(tmp_path):
    method = SIMethod(aids_like(scale=0.02, seed=1), matcher="vf2plus")
    accepted = []
    for version in range(10):
        path = tmp_path / f"v{version}.json"
        path.write_text(json.dumps({"format_version": version}), encoding="utf-8")
        try:
            load_cache(path, method)
        except CacheError as exc:
            if "unsupported cache snapshot version" in str(exc):
                continue
            accepted.append(version)
        except (KeyError, TypeError):  # accepted, then the empty payload fails
            accepted.append(version)
    assert len(accepted) == SNAPSHOT_FORMATS_READ, accepted


def test_src_lines():
    lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in SRC.rglob("*.py")
    )
    assert lines <= SRC_LINES
