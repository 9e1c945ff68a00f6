"""Setuptools metadata of the ``repro`` package (sources under ``src/``).

All project metadata lives here; there is no ``pyproject.toml``.  With no
``wheel`` package, ``pip install -e . --no-use-pep517`` installs it offline.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
# Read, not imported: importing ``repro`` would need its dependencies.
VERSION = re.search(r'^__version__ = "([^"]+)"',
                    (HERE / "src" / "repro" / "__init__.py").read_text(),
                    re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    description=("Reproduction of 'Smart at what cost? Characterising "
                 "Mobile DNNs in the wild' (IMC 2021)"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy", "networkx"],
)
