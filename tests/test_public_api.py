"""Public-API surface tests: imports, __all__ hygiene, docstrings."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.ipv6",
    "repro.stats",
    "repro.cluster",
    "repro.bayes",
    "repro.core",
    "repro.datasets",
    "repro.scan",
    "repro.baselines",
    "repro.viz",
    "repro.serve",
    "repro.ingest",
]

MODULES = [
    "repro.ipv6.address",
    "repro.ipv6.prefix",
    "repro.ipv6.eui64",
    "repro.ipv6.anonymize",
    "repro.ipv6.sets",
    "repro.ipv6.trie",
    "repro.stats.entropy",
    "repro.stats.histogram",
    "repro.stats.outliers",
    "repro.stats.rng",
    "repro.stats.mutual_information",
    "repro.cluster.dbscan",
    "repro.cluster.intervals",
    "repro.bayes.factor",
    "repro.bayes.cpd",
    "repro.bayes.network",
    "repro.bayes.scores",
    "repro.bayes.structure",
    "repro.bayes.inference",
    "repro.bayes.sampling",
    "repro.bayes.markov",
    "repro.bayes.export",
    "repro.core.segmentation",
    "repro.core.mining",
    "repro.core.encoding",
    "repro.core.model",
    "repro.core.acr",
    "repro.core.windowing",
    "repro.core.browser",
    "repro.core.pipeline",
    "repro.core.report",
    "repro.core.temporal",
    "repro.core.classify",
    "repro.datasets.schema",
    "repro.datasets.parts",
    "repro.datasets.networks",
    "repro.datasets.aggregates",
    "repro.datasets.sampling",
    "repro.datasets.temporal",
    "repro.scan.generator",
    "repro.scan.responder",
    "repro.scan.rdns",
    "repro.scan.evaluate",
    "repro.scan.campaign",
    "repro.baselines.addr6",
    "repro.baselines.iid_patterns",
    "repro.viz.ascii",
    "repro.viz.figures",
    "repro.errors",
    "repro.serve.registry",
    "repro.serve.lifecycle",
    "repro.serve.service",
    "repro.ingest.stats",
    "repro.ingest.drift",
    "repro.ingest.pipeline",
    "repro.cli",
]

# The curated one-call surface of the package.  Entry-point drift —
# adding, renaming or dropping a top-level export — must show up here
# as a deliberate diff, not a silent break for downstream imports.
CURATED_ALL = [
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


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_resolve(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a docstring"
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", MODULES)
def test_module_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__) > 40, name


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if getattr(attr, "__module__", None) != name:
            continue  # re-exports documented at their source
        if inspect.isfunction(attr) or inspect.isclass(attr):
            assert attr.__doc__, f"{name}.{attr_name} lacks a docstring"


def test_curated_all_pinned():
    """repro.__all__ is exactly the curated surface, sorted."""
    import repro

    assert repro.__all__ == CURATED_ALL
    assert repro.__all__ == sorted(repro.__all__)


def test_curated_symbols_are_canonical():
    """Every curated export is the same object as its defining module's."""
    import repro
    from repro.core.pipeline import EntropyIP
    from repro.errors import ReproError
    from repro.ingest.pipeline import IngestConfig, IngestPipeline
    from repro.serve.lifecycle import SessionManager, SessionSpec
    from repro.serve.registry import ModelRegistry
    from repro.serve.service import HitlistService

    assert repro.EntropyIP is EntropyIP
    assert repro.ReproError is ReproError
    assert repro.IngestConfig is IngestConfig
    assert repro.IngestPipeline is IngestPipeline
    assert repro.SessionManager is SessionManager
    assert repro.SessionSpec is SessionSpec
    assert repro.ModelRegistry is ModelRegistry
    assert repro.HitlistService is HitlistService


def test_error_hierarchy_consolidated():
    """All typed errors live under ReproError and keep legacy bases."""
    import repro.errors as errors

    assert sorted(errors.__all__) == errors.__all__
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError), name
    # Backward-compatible bases: except RuntimeError / KeyError /
    # ValueError written against the historical homes still catches.
    assert issubclass(errors.SessionCapacityError, RuntimeError)
    assert issubclass(errors.UnknownSessionError, KeyError)
    assert issubclass(errors.UnknownModelError, KeyError)
    assert issubclass(errors.ModelDigestMismatch, ValueError)
    assert issubclass(errors.IngestDriftError, RuntimeError)
    assert issubclass(errors.StaleModelError, RuntimeError)
    # Historical import paths resolve to the same class objects.
    from repro.core.model import SessionCapacityError as legacy_cap
    from repro.serve.lifecycle import SessionClosedError as legacy_closed
    from repro.serve.registry import UnknownModelError as legacy_unknown
    from repro.serve.service import ServiceOverloadedError as legacy_over

    assert legacy_cap is errors.SessionCapacityError
    assert legacy_closed is errors.SessionClosedError
    assert legacy_unknown is errors.UnknownModelError
    assert legacy_over is errors.ServiceOverloadedError


def test_error_message_formatting():
    """KeyError-derived errors print their message, not a quoted repr."""
    import repro.errors as errors

    err = errors.UnknownModelError("no registered model named 'S1'")
    assert str(err) == "no registered model named 'S1'"
    err = errors.UnknownSessionError("no live session for model 'S1'")
    assert str(err) == "no live session for model 'S1'"


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"
