"""Configuration objects for summarizers."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LDMEConfig"]


@dataclass(frozen=True)
class LDMEConfig:
    """Tuning knobs for :class:`repro.core.ldme.LDME`.

    Attributes
    ----------
    k:
        DOPH signature length — the paper's compression/speed dial. The
        paper's two named settings are ``k=5`` (LDME5, high compression)
        and ``k=20`` (LDME20, high speed).
    iterations:
        Number of divide+merge rounds ``T`` (the paper sweeps 10..60).
    epsilon:
        Error bound for the optional lossy dropping step; ``0`` = lossless.
    cost_model:
        ``"exact"`` (true objective deltas; default) or ``"paper"``
        (Algorithm 4 as printed). See :mod:`repro.core.cost`.
    seed:
        Seed for all randomness (permutations, direction bits, merge order).
    encoder:
        ``"sorted"`` (Algorithm 5, default) or ``"per-supernode"``
        (SWeG-style baseline encoder) — exposed for ablations.
    """

    k: int = 5
    iterations: int = 20
    epsilon: float = 0.0
    cost_model: str = "exact"
    seed: int = 0
    encoder: str = "sorted"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.cost_model not in ("exact", "paper"):
            raise ValueError("cost_model must be 'exact' or 'paper'")
        if self.encoder not in ("sorted", "per-supernode"):
            raise ValueError("encoder must be 'sorted' or 'per-supernode'")
