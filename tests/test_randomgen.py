import hashlib
import random

from spectra_persist.fields import PrimeField
from spectra_persist.randomgen import permute_generators, random_complex

from helpers import corpus_fields


def test_generated_complexes_are_valid():
    rng = random.Random(41)
    for trial in range(60):
        field = corpus_fields()[trial % 4]
        c = random_complex(rng, rng.randint(0, 40), field)
        assert c.validate() == []


def test_generation_is_seed_deterministic():
    a = random_complex(random.Random(99), 30, PrimeField(5))
    b = random_complex(random.Random(99), 30, PrimeField(5))
    assert a.generators == b.generators
    assert a.boundary == b.boundary


def test_degree_and_level_ranges_respected():
    rng = random.Random(43)
    c = random_complex(rng, 200, PrimeField(2))
    for g in c.all_generators():
        assert -1 <= g.degree <= 3
        assert -3 <= g.filtration <= 6


def test_permutation_preserves_validity():
    rng = random.Random(44)
    for _ in range(20):
        c = random_complex(rng, rng.randint(2, 30), PrimeField(5))
        p = permute_generators(rng, c)
        assert p.validate() == []
        assert p.total_gens() == c.total_gens()


def test_generated_stream_is_frozen():
    # sha256 of a canonical dump of 200 complexes over the corpus fields;
    # a change in the sampling or in the kernel basis it draws from shows
    # up here before it moves the benchmark corpus
    h = hashlib.sha256()
    fields = corpus_fields()
    rng = random.Random(2403)
    for k in range(200):
        field = fields[k % len(fields)]
        c = random_complex(rng, rng.randint(0, 40), field)
        h.update(f"complex {k} {field}\n".encode())
        for n in c.degrees():
            h.update(f"deg {n} {[g.filtration for g in c.gens(n)]}\n".encode())
            for col in c.boundary[n]:
                h.update(f"{[(r, field.format(v)) for r, v in col]}\n".encode())
    assert h.hexdigest() == "ca15ae32e8ae40a5715963c388edfffd41cae07dcbfbfbf4f7fc1db8e65b95a3"
