"""The record contract: every value type of the package is an immutable
Record whose equality, hash and repr read the fields named in ``_fields``.

One example per record class; a new record class without an example fails
test_every_record_class_has_an_example.
"""

import pytest

import cmcalc.cocycle as cocycle
import cmcalc.serre as serre
from cmcalc.cmtypes import CMFieldHandle, enumerate_cm_types
from cmcalc.errors import Record
from cmcalc.groups import abelianization, cyclic_group
from cmcalc.quadratic import (
    QuadField,
    canonical_weight_one_spec,
    factor_rational_prime,
    ideal_from_generator,
    ray_class_group,
)
from cmcalc.zeta import CurveSpec, EulerFactor

GAUSS = QuadField(-1)
SWAP = serre.CharLattice(
    ambient_rank=2, basis=((1, 1),), action=((0, 1), (1, 0)), group=cyclic_group(2)
)


def examples():
    """One record per class, by class name; each call builds new objects."""
    gauss, c4 = QuadField(-1), cyclic_group(4)
    field = CMFieldHandle(group=c4, iota=2, fixer=c4.trivial_subgroup())
    lattice = serre.CharLattice(ambient_rank=2, basis=((1, 1),), action=((0, 1), (1, 0)))
    return {
        "QuadField": QuadField(-3),
        "QuadInt": gauss.element(3, 2),
        "QuadIdeal": ideal_from_generator(gauss.element(3, 2)),
        "PrimeFactorization": factor_rational_prime(gauss, 5),
        "RayClassGroup": ray_class_group(gauss, ideal_from_generator(gauss.element(3))),
        "HeckeCharacterSpec": canonical_weight_one_spec(gauss),
        "CurveSpec": CurveSpec(a4=-1, a6=0, cm_field=gauss),
        "EulerFactor": EulerFactor((1, -2, 5)),
        "FiniteGroup": c4,
        "Subgroup": c4.subgroup([0, 2]),
        "AbelianQuotient": abelianization(c4.subgroup([0, 2])),
        "CMFieldHandle": field,
        "CMType": enumerate_cm_types(field)[1],
        "CharLattice": lattice,
        "Cocharacter": serre.Cocharacter(lattice=lattice, functional=(1, 0)),
        "LatticeMap": serre.LatticeMap(source=lattice, target=lattice, matrix=((0, 1), (1, 0))),
        "WSystem": cocycle.choose_w_system(field),
    }


FIRST, SECOND = examples(), examples()


def record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("cmcalc."):
            yield sub
        yield from record_classes(sub)


def test_every_record_class_has_an_example():
    classes = {cls.__name__: cls for cls in record_classes()}
    assert len(classes) == 17
    assert sorted(classes) == sorted(FIRST)
    for name, record in FIRST.items():
        assert type(record) is classes[name]


@pytest.mark.parametrize("name", sorted(FIRST))
class TestContract:
    def test_equal_records_hash_equal(self, name):
        x, y = FIRST[name], SECOND[name]
        assert x == y and not x != y
        assert hash(x) == hash(y)
        # as the frozen dataclass did: the hash of the compared fields' tuple
        assert hash(x) == hash(tuple(getattr(x, f) for f in x._fields))

    def test_other_class_with_equal_fields_is_unequal(self, name):
        x = FIRST[name]
        twin = object.__new__(type("Twin", (Record,), {"_fields": x._fields}))
        twin.__dict__.update(x.__dict__)
        assert twin._key(twin) == x._key(x)
        assert x != twin and twin != x
        assert x != x._key(x)

    def test_assignment_and_deletion_refused(self, name):
        x = FIRST[name]
        for attr in (*x._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(x, attr, 0)
            with pytest.raises(AttributeError):
                delattr(x, attr)
        assert x == SECOND[name]

    def test_repr_names_the_compared_fields(self, name):
        x = FIRST[name]
        assert repr(x).startswith(f"{name}({x._fields[0]}=")
        assert repr(x) == repr(SECOND[name])


def test_cached_property_computed_once():
    ideal = ideal_from_generator(GAUSS.element(3, 2))
    first = ideal.unit_residues
    assert ideal.__dict__["unit_residues"] is first
    assert ideal.unit_residues is first
    # the cache takes no part in equality
    assert ideal == ideal_from_generator(GAUSS.element(3, 2))


def test_reprs_as_the_dataclasses_printed():
    assert repr(FIRST["QuadIdeal"]) == "QuadIdeal(field=QuadField(d=-1), n=13, c=8, d=1)"
    assert repr(FIRST["Subgroup"]) == (
        "Subgroup(parent=FiniteGroup(order=4, table=((0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), "
        "(3, 0, 1, 2)), identity=0, names=None), elements=(0, 2))"
    )
    assert repr(SWAP) == "CharLattice(ambient_rank=2, basis=((1, 1),), action=((0, 1), (1, 0)))"
    assert repr(FIRST["RayClassGroup"]) == (
        "RayClassGroup(modulus=QuadIdeal(field=QuadField(d=-1), n=3, c=0, d=3), structure=(2,))"
    )


def test_uncompared_fields_are_ignored():
    # a lattice's group is not compared: with or without it, the same lattice
    bare = serre.CharLattice(ambient_rank=2, basis=((1, 1),), action=((0, 1), (1, 0)))
    assert SWAP == bare and hash(SWAP) == hash(bare)
