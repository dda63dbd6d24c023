"""Built-in catalog of small metric Lie algebras shipped with the package."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .algebra import MetricLieAlgebra, load_algebra


def catalog_dir() -> Path:
    return Path(resources.files("solstab") / "data" / "catalog")


def catalog_names() -> list[str]:
    return sorted(p.stem for p in catalog_dir().glob("*.alg"))


def catalog_path(name: str) -> Path:
    path = catalog_dir() / f"{name}.alg"
    if not path.exists():
        raise KeyError(f"no catalog algebra named {name!r}")
    return path


def load(name: str) -> MetricLieAlgebra:
    return load_algebra(catalog_path(name))


def load_hints(name: str) -> dict:
    return load(name).hints
