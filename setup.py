"""Package metadata for the GraphCache reproduction.

The library lives under ``src/`` (package ``repro``) and installs a
``graphcache`` console script, the CLI the README invokes.  Editable
install::

    pip install --no-build-isolation -e .   # needs the ``wheel`` package
    python setup.py develop --no-deps       # offline, setuptools only
"""

from setuptools import find_packages, setup

setup(
    name="graphcache-repro",
    version="1.0.0",
    description="GraphCache: a caching system for graph queries (EDBT 2017 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["graphcache = repro.cli.main:main"]},
)
