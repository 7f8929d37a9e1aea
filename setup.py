"""Package metadata for ``repro``, installed with the ``freqdedup`` command.

``pip install -e . --no-use-pep517 --no-build-isolation`` installs in
development mode through the classic ``setup.py develop`` path, which
needs no ``wheel`` package. The version is read from
``src/repro/version.py`` without importing the package.
"""

from pathlib import Path

from setuptools import find_packages, setup


def _version() -> str:
    namespace: dict = {}
    source = Path(__file__).resolve().parent / "src" / "repro" / "version.py"
    exec(source.read_text(encoding="utf-8"), namespace)
    return namespace["__version__"]


setup(
    name="freqdedup",
    version=_version(),
    description=(
        "Reproduction of 'Information Leakage in Encrypted Deduplication "
        "via Frequency Analysis' (DSN 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["freqdedup = repro.cli:main"]},
)
