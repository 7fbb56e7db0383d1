"""Golden-population regression tests for population synthesis.

Every scan count, fit and served stream in this repository starts from
``SyntheticNetwork.population(seed)``.  These tests pin a content
digest of seed 0's population for all 16 network models, so a change
to the samplers in :mod:`repro.datasets.parts`, the scheme walk in
:mod:`repro.datasets.schema` or the RNG stream they consume fails
here, named by network, instead of surfacing as a shifted scan count.

The digest is sha256 over ``population(0).packed_rows()``: big-endian
packed words in the population's row order, so a reordering is caught
as well as a changed address.

If a digest changes *intentionally* (a deliberate change to a
network's RNG stream), re-pin it by running this file's
``print_digests`` helper::

    PYTHONPATH=src python -c \
        "from tests.datasets.test_population_golden import print_digests; print_digests()"
"""

import hashlib

import pytest

from repro.datasets.networks import all_networks, build_network

SEED = 0

#: sha256 of build_network(name).population(0).packed_rows().tobytes().
GOLDEN_DIGESTS = {
    "C1": "91b64e906ceeaf906b8c300b11dcdd5f870b5e66141e09cae80df591535a1f2f",
    "C2": "a38864fb79c999e577b2171c6ba66b489b44ea4918b76153ba45ebd970ded4fc",
    "C3": "624c6bb1cf518e59769c5746532bc298eb0cf6c97b2c2ba906b1dc107476a1a0",
    "C4": "90b7f7e094d0ab28310a1f3e09493f85668c5680b89bd954d937a8baac58f443",
    "C5": "738739877fcdf0d66270f2c074ebcd786007af58fb3ab76ce031a8a697d0e2f8",
    "JP": "4c796780921440a03affcd6b05e46c8628d2b8729643601f48ac1a113cee5672",
    "R1": "51518a2c544b14cb188a2d36c20f989efa42a1079eb235b7e90698f8f8f1b8e5",
    "R2": "1b112f91863afa976566fb0a677469aeaaf81afa6e2e68a172643bb15aee8ec4",
    "R3": "744ccb37a7bb0cc81d1b91038b5b092e7b7a4047bd9ce75fc7dee79aa5a39623",
    "R4": "bd961714741e2b9e699b2875490819615912939727a1b65af43526206c36ab01",
    "R5": "9bbdb81dacce02d392831c6f6b3c6f72b4891441561118537c11c7f4db593353",
    "S1": "4b8fc8bb3f5a43250649a6689e9aae6a787d298b033aae2ec10d6f1d5967611d",
    "S2": "f3899e070d93f65c693053f653802312ce09d246811c89cd495926b0a43aacf7",
    "S3": "5a2a9fa561d42bf8db3a9ad27d00b2740d0ccfce2ec0cf3a060b905e96d03f5e",
    "S4": "0881620cadbeb274bdd4da0be4c67e930fe95c000045a7c044534a841a5b15fe",
    "S5": "d57103b870b60e6fbbffb81704da90593cc06141e0ee297482b2cf842cb77de1",
}


def population_digest(name: str, seed: int = SEED) -> str:
    """sha256 over the packed rows of one network's population."""
    population = build_network(name).population(seed)
    return hashlib.sha256(population.packed_rows().tobytes()).hexdigest()


def print_digests():
    """Recompute the digests to pin (run after intentional changes)."""
    for name in sorted(GOLDEN_DIGESTS):
        print(f'    "{name}": "{population_digest(name)}",')


def test_every_network_is_pinned():
    assert sorted(n.name for n in all_networks()) == sorted(GOLDEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_population_matches_pinned_digest(name):
    assert population_digest(name) == GOLDEN_DIGESTS[name], (
        f"{name}: population(0) changed — population synthesis no longer "
        "reproduces the pinned addresses; if intentional, re-pin via "
        "print_digests()"
    )
