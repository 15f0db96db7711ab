"""Package metadata and installation.

The offline environment ships setuptools without the ``wheel`` package,
so PEP 660 editable installs can fail; keeping the classic ``setup.py``
path lets ``pip install -e .`` fall back to ``setup.py develop``.  The
library itself is dependency-free; the ``[test]`` extra holds what CI
and the tier-1 command need: the test runner, Hypothesis (imported by
the property-test modules) and numpy (the array engine the equivalence
suites, the shared-memory sweep rung and perfbench's calibration run
on).  numpy 2.0-2.2 still support Python 3.10.
"""

from setuptools import find_packages, setup

setup(
    name="repro-mobile-byzantine-agreement",
    version="1.0.0",
    description=(
        "Reproduction of 'Approximate Agreement under Mobile Byzantine "
        "Faults' (ICDCS 2016): models M1-M4, MSR algorithms, lower "
        "bounds, experiments, and a parallel scenario-sweep engine."
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={
        "test": ["pytest>=7.0,<10", "hypothesis>=6.0", "numpy>=2.0"],
    },
    entry_points={
        "console_scripts": [
            "repro-experiments=repro.experiments.cli:main",
        ],
    },
)
