"""Packaging for the ``repro`` QuickSel reproduction.

Supports ``pip install -e . --no-use-pep517`` (``setup.py develop``) in
offline environments without the ``wheel`` package; the sources live
under ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
