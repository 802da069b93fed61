"""Kernel-suite fixtures."""

import pytest

from repro.graph import datasets


@pytest.fixture(scope="session")
def dataset_cache():
    """Session-cached Table 1 surrogates (golden runs reuse the graph)."""
    cache = {}

    def load(name: str):
        if name not in cache:
            cache[name] = datasets.load(name)
        return cache[name]

    return load
