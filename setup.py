"""Setuptools entry point: installs the ``repro`` package from ``src/``.

All project metadata lives here (there is no ``pyproject.toml``).  The
package has no runtime dependencies, so ``pip install -e .`` works offline
wherever setuptools and wheel are installed; ``python setup.py develop``
needs setuptools alone.  The tests also need ``pytest`` and ``hypothesis``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Clock-RSM: low-latency inter-datacenter state machine replication "
        "using loosely synchronized physical clocks (a reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
)
