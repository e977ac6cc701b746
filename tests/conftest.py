"""Helpers shared by the test modules."""

import importlib
import pkgutil

import fockbox


def package_caches() -> dict:
    """Every lru_cache a fockbox module defines, by qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(fockbox.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"fockbox.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_parameters"):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    return caches


def clear_package_caches() -> None:
    """Empty every package memo, so that nothing computed under one test's
    patch, or one test's traffic, reaches another."""
    for cache in package_caches().values():
        cache.cache_clear()
