"""Setuptools shim so the package installs in offline environments.

``pip install -e .`` uses PEP 660 editable wheels, which require the ``wheel``
package; environments without network access (and without ``wheel``) can fall
back to ``python setup.py develop``.  All metadata lives in ``pyproject.toml``
(name, ``src`` layout, version read from ``repro.__version__``).
"""

from setuptools import setup

setup()
