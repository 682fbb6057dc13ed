"""Named, independently seeded random streams.

Every stochastic component (arrival process, prompt sampler, output sampler,
...) draws from its own child generator so that changing one component's
consumption pattern never perturbs another — the standard trick for
reproducible discrete-event simulations.

Derivation discipline
---------------------
All streams descend from a single root :class:`numpy.random.SeedSequence`
through the ``spawn_key`` mechanism only: a stream named ``n`` is seeded by
``SeedSequence(entropy=root_seed, spawn_key=(key(n),))`` where ``key`` is
the first 8 bytes of SHA-256 of the name.  This is collision-free in
practice (64-bit keys, cryptographic mixing) and — unlike ad-hoc integer
hashes — guaranteed by numpy to yield statistically independent child
states for distinct spawn keys.

Every stream touched during a run is recorded in its factory's registry.
The registry is folded into the run fingerprint
(:mod:`repro.sim.fingerprint`), so code that starts drawing from a new
stream — or stops touching an old one — changes the fingerprint and trips
the golden-trace check loudly instead of silently shifting results.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_key(name: str) -> int:
    """Stable 64-bit spawn key for a stream name (SHA-256 prefix).

    Cryptographic mixing makes distinct names collide with probability
    ~2**-64, and the key depends only on the name — never on touch order.
    """
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "big")


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams.

    Streams are derived from a root seed via ``numpy`` ``SeedSequence``
    spawn keys, so ``RandomStreams(7).get("arrivals")`` is identical across
    runs and independent of ``get("lengths")``.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}
        # First-touch-ordered names.
        self._registry: list[str] = []

    @property
    def seed(self) -> int:
        """Root seed every stream descends from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``name``."""
        if name not in self._streams:
            sequence = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(stream_key(name),)
            )
            self._streams[name] = np.random.default_rng(sequence)
            # The "root/" prefix is part of every recorded name, and the
            # names enter run fingerprints.
            self._registry.append(f"root/{name}")
        return self._streams[name]

    def registry(self) -> tuple[str, ...]:
        """Every stream touched so far, in first-touch order.

        Recorded into run fingerprints so new or vanished RNG draws are
        detected.
        """
        return tuple(self._registry)
