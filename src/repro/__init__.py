"""Entropy/IP: Uncovering Structure in IPv6 Addresses — full reproduction.

A from-scratch Python implementation of the Entropy/IP system (Foremski,
Plonka, Berger — IMC 2016): information-theoretic analysis of IPv6
address sets, automatic segmentation, segment value mining, Bayesian
network modeling, interactive conditional browsing, and candidate target
generation for IPv6 scanning.

Quickstart::

    from repro import EntropyIP
    analysis = EntropyIP.fit(list_of_address_strings)
    print(analysis.describe())
    candidates = analysis.generate_addresses(1000)

The curated one-call surface below is the package's public API —
analysis (:class:`EntropyIP`), the serving runtime
(:class:`ModelRegistry`, :class:`SessionSpec`, :class:`HitlistService`),
streaming ingestion (:class:`IngestPipeline`) and the consolidated
error hierarchy (:class:`ReproError`).  ``tests/test_public_api.py`` pins ``__all__``
so entry-point drift is a test failure, not a silent break.

See :mod:`repro.core.pipeline` for the facade, :mod:`repro.datasets` for
the synthetic network models used in the evaluation,
:mod:`repro.scan` for the scanning/prediction harness, and
:mod:`repro.ingest` for the online path.
"""

from repro.bayes.structure import StructureConfig
from repro.core.browser import ConditionalBrowser
from repro.core.mining import MiningConfig
from repro.core.pipeline import EntropyIP
from repro.core.segmentation import SegmentationConfig
from repro.errors import ReproError
from repro.ingest import IngestConfig, IngestPipeline
from repro.ipv6.address import IPv6Address
from repro.ipv6.prefix import Prefix
from repro.ipv6.sets import AddressSet
from repro.serve import (
    HitlistService,
    ModelRegistry,
    SessionManager,
    SessionSpec,
)

__version__ = "1.0.0"

__all__ = [
    "AddressSet",
    "ConditionalBrowser",
    "EntropyIP",
    "HitlistService",
    "IPv6Address",
    "IngestConfig",
    "IngestPipeline",
    "MiningConfig",
    "ModelRegistry",
    "Prefix",
    "ReproError",
    "SegmentationConfig",
    "SessionManager",
    "SessionSpec",
    "StructureConfig",
    "__version__",
]
