import hashlib

import pytest

import dpi2 as d
from dpi2.grid import grid_fault


def test_no_moves_no_plant_is_constant():
    f = d.gen_random(0, 5, 5)
    assert f.is_constant()


def test_plant_without_noise_is_the_stack():
    for c in (-2, 1, 3):
        size = 5 * abs(c) - 1
        f = d.gen_random(42, size, size, plant=c)
        assert f.values == d.canonical_stack(c, f.rect).values


def test_planted_degree_survives_noise():
    for seed in range(12):
        plant = (seed % 5) - 2
        size = max(5 * abs(plant) - 1, 5)
        f = d.gen_random(seed, size, size + 1, moves=60, plant=plant)
        assert d.triangle_count(f) == plant
        assert grid_fault(f.array, f.basepoint, f.codomain) is None


def test_determinism_is_byte_exact():
    a = d.gen_random(9, 8, 7, moves=45, plant=-1)
    b = d.gen_random(9, 8, 7, moves=45, plant=-1)
    assert d.dump_map(a) == d.dump_map(b)
    c = d.gen_random(10, 8, 7, moves=45, plant=-1)
    assert c.values != a.values  # different seed, different stream


@pytest.mark.parametrize(
    "args, digest",
    [
        ((5, 80, 80, 1500, 6), "57a3ef9cb86e9646aaa8b3c85f10ed87cfd9618b06db88c2821b544550bd1657"),
        ((1, 7, 9, 300, -1), "5d2c8b6cacde6f472474c30917aebadfab05f0fe12969b449bf49b1fafe4ddb2"),
        ((2, 12, 12, 0, 2), "63667478df350de63159ff63ddccde4610d52b20626f3cbf19eb65aae47411c5"),
        ((7919, 30, 20, 5000, 0), "3189aa90c1cfe5883f2ac3f065402cb7c4084899819bcba2dde7251a6e1a4570"),
    ],
)
def test_seeded_maps_keep_their_bytes(args, digest):
    # Every benchmark input is a gen_random map; these digests were taken
    # when each scrambled map was re-validated after every move.
    f = d.gen_random(*args)
    assert hashlib.sha256(f.values).hexdigest() == digest
    assert grid_fault(f.array, f.basepoint, f.codomain) is None


def test_noise_prefix_property():
    # the move stream is seed-determined, so asking for more moves replays
    # the same prefix; the two results differ by exactly the extra moves
    f = d.gen_random(3, 4, 4, moves=10)
    g = d.gen_random(3, 4, 4, moves=12)
    res = d.homotopy_decide(f, g, d.SearchBudget(pad_limit=(7, 7), max_states=150_000))
    assert isinstance(res, d.Equivalent)
    assert len(res.certificate.moves) <= 2


def test_rejects_frames_too_small_for_plant():
    with pytest.raises(ValueError):
        d.gen_random(0, 8, 9, plant=2)  # needs m >= 9
    with pytest.raises(ValueError):
        d.gen_random(0, 9, 8, plant=-2)  # and n >= 9
    with pytest.raises(ValueError):
        d.gen_random(0, 5, 5, moves=-1)


def test_moves_only_maps_stay_null():
    for seed in (2, 5, 8):
        f = d.gen_random(seed, 6, 6, moves=80)
        assert d.triangle_count(f) == 0
        cls, cert = d.pi2_class(f)
        assert cls == 0
        assert d.verify_certificate(cert).ok
