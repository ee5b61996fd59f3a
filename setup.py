"""Setuptools shim.

The package metadata lives in ``setup.cfg`` (``[metadata]``, ``[options]``);
this file exists so tooling that expects ``setup.py`` can build and install
the package, e.g. ``python setup.py --name --version`` or
``pip install -e . --no-build-isolation --no-use-pep517``.
"""

from setuptools import setup

setup()
