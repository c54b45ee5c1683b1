"""Input that can come from outside raises a typed error, also under
python -O, which strips assert statements."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

TRUNC3 = (
    "from reedylab.reedy import truncated_semilattice_category\n"
    "cat, data, squares = truncated_semilattice_category(3)\n"
)

# (name, set-up and call, expected error, expected law or None)
CASES = [
    (
        "autquo-non-subgroup",
        TRUNC3
        + "from reedylab.presheaf import autquo\n"
        + "V = next(i for i in range(4) if len(cat.isos(i, i)) == 2)\n"
        + "autquo(cat, V, [th for th in cat.isos(V, V) if not cat.is_identity(th)])\n",
        "InvalidInput",
        None,
    ),
    (
        "empty-coproduct",
        "from reedylab.presheaf import coproduct_presheaf\ncoproduct_presheaf([])\n",
        "InvalidInput",
        None,
    ),
    (
        "coproduct-on-two-bases",
        "from reedylab.presheaf import coproduct_presheaf, representable\n"
        "from reedylab.reedy import truncated_semilattice_category\n"
        "cat2, cat3 = (truncated_semilattice_category(n)[0] for n in (2, 3))\n"
        "coproduct_presheaf([representable(cat2, 1), representable(cat3, 2)])\n",
        "InvalidInput",
        None,
    ),
    (
        "corpus-on-two-bases",
        "from reedylab.presheaf import Corpus, representable\n"
        "from reedylab.reedy import truncated_semilattice_category\n"
        "cat2, cat3 = (truncated_semilattice_category(n)[0] for n in (2, 3))\n"
        "Corpus.of(cat2, [representable(cat2, 1), representable(cat3, 2)])\n",
        "InvalidInput",
        None,
    ),
    (
        "span-legs-from-different-objects",
        TRUNC3
        + "from reedylab.presheaf import span_pushout_of_representables\n"
        + "span_pushout_of_representables(cat, cat.identities[0], cat.identities[1])\n",
        "ViolatedLaw",
        "span-apex",
    ),
    (
        "presheaf-values-of-wrong-length",
        TRUNC3
        + "from reedylab.presheaf import FinPresheaf, representable\n"
        + "yo = representable(cat, 1)\n"
        + "FinPresheaf(cat, yo.levels, yo.values[:-1]).validate()\n",
        "ViolatedLaw",
        "length",
    ),
    (
        "presheaf-value-out-of-range",
        TRUNC3
        + "from reedylab.presheaf import FinPresheaf, representable\n"
        + "yo = representable(cat, 1)\n"
        + "values = yo.values.copy()\n"
        + "values[-1] = yo.levels[-1]\n"
        + "FinPresheaf(cat, yo.levels, values).validate()\n",
        "ViolatedLaw",
        "range",
    ),
    (
        "crown-below-three",
        "from reedylab.obstruction import CrownPoset\nCrownPoset(2)\n",
        "InvalidInput",
        None,
    ),
    (
        "poset-not-square",
        "from reedylab.semilattice import FinPoset\nFinPoset(((True, True), (True,)))\n",
        "ViolatedLaw",
        "square",
    ),
    (
        "poset-not-reflexive",
        "from reedylab.semilattice import FinPoset\nFinPoset(((True, True), (False, False)))\n",
        "ViolatedLaw",
        "reflexivity",
    ),
    (
        "poset-not-antisymmetric",
        "from reedylab.semilattice import FinPoset\nFinPoset(((True, True), (True, True)))\n",
        "ViolatedLaw",
        "antisymmetry",
    ),
    (
        "poset-not-transitive",
        "from reedylab.semilattice import FinPoset\n"
        "FinPoset(((True, True, False), (False, True, True), (False, False, True)))\n",
        "ViolatedLaw",
        "transitivity",
    ),
    (
        "morphisms-that-do-not-compose",
        "from reedylab.semilattice import SLatMorphism, chain, interval\n"
        "SLatMorphism.identity(interval()).then(SLatMorphism.identity(chain(3)))\n",
        "ViolatedLaw",
        "composability",
    ),
    (
        "inverse-of-a-non-iso",
        "from reedylab.semilattice import SLatMorphism, chain, interval\n"
        "SLatMorphism(chain(3), interval(), (0, 1, 1)).inverse()\n",
        "ViolatedLaw",
        "invertibility",
    ),
    (
        "crown-map-of-wrong-length",
        "from reedylab.obstruction import crown_map\ncrown_map(3, 3, range(5))\n",
        "ViolatedLaw",
        "length",
    ),
    (
        "crown-map-out-of-range",
        "from reedylab.obstruction import crown_map\ncrown_map(3, 3, (0, 1, 2, 3, 4, 6))\n",
        "ViolatedLaw",
        "range",
    ),
    (
        "crown-map-not-monotone",
        "from reedylab.obstruction import crown_map\ncrown_map(3, 3, (1, 0, 2, 3, 4, 5))\n",
        "ViolatedLaw",
        "monotonicity",
    ),
    (
        "odd-crown-vertex-has-no-upper-covers",
        "from reedylab.obstruction import CrownPoset\nCrownPoset(3).upper_covers(1)\n",
        "InvalidInput",
        None,
    ),
    (
        "fold-between-crowns-that-do-not-divide",
        "from reedylab.obstruction import fold_map\nfold_map(5, 3)\n",
        "InvalidInput",
        None,
    ),
    (
        "crown-rotation-by-odd-offset",
        "from reedylab.obstruction import rotation\nrotation(3, 1)\n",
        "InvalidInput",
        None,
    ),
    (
        "crown-reflection-about-odd-axis",
        "from reedylab.obstruction import reflection\nreflection(3, 1)\n",
        "InvalidInput",
        None,
    ),
    (
        "crown-maps-that-do-not-compose",
        "from reedylab.obstruction import compose_crown, identity_crown\n"
        "compose_crown(identity_crown(3), identity_crown(4))\n",
        "InvalidInput",
        None,
    ),
    (
        "cube-extensions-that-do-not-compose",
        "from reedylab.obstruction import compose_extensions, crown_extension, identity_crown\n"
        "compose_extensions(crown_extension(identity_crown(3)), crown_extension(identity_crown(4)))\n",
        "InvalidInput",
        None,
    ),
    (
        "crown-embedding-below-three",
        "from reedylab.obstruction import crown_embedding\ncrown_embedding(2)\n",
        "InvalidInput",
        None,
    ),
    (
        "crown-lift-step-not-forced",
        "from reedylab.obstruction import _lift_values\n"
        "_lift_values(3, 3, (0, 2, 0, 2, 0, 2), 0)\n",
        "ViolatedLaw",
        "forced-lift-step",
    ),
    (
        "crown-lift-window-not-closed",
        "from reedylab.obstruction import CrownMap, winding\n"
        "winding(CrownMap(3, 3, tuple(range(6)), (0, 1, 2, 3, 4, 5, 7)))\n",
        "ViolatedLaw",
        "closed-window",
    ),
    (
        "cube-map-of-wrong-length",
        "from reedylab.obstruction import MonotoneCubeMap\nMonotoneCubeMap(1, 1, (0,))\n",
        "ViolatedLaw",
        "length",
    ),
    (
        "cube-map-not-monotone",
        "from reedylab.obstruction import MonotoneCubeMap\nMonotoneCubeMap(1, 1, (1, 0))\n",
        "ViolatedLaw",
        "monotonicity",
    ),
    (
        "chain-of-no-elements",
        "from reedylab.semilattice import chain\nchain(0)\n",
        "InvalidInput",
        None,
    ),
    (
        "atoms-with-top-of-one-atom",
        "from reedylab.semilattice import atoms_with_top\natoms_with_top(1)\n",
        "InvalidInput",
        None,
    ),
    (
        "free-semilattice-on-no-generators",
        "from reedylab.semilattice import free_on_generators\nfree_on_generators(0)\n",
        "InvalidInput",
        None,
    ),
    (
        "semilattices-of-no-elements",
        "from reedylab.semilattice import enumerate_semilattices\nenumerate_semilattices(0)\n",
        "InvalidInput",
        None,
    ),
    (
        "meet-without-a-bottom",
        "from reedylab.semilattice import atoms_with_top\natoms_with_top(2).meet_of(0, 1)\n",
        "InvalidInput",
        None,
    ),
    (
        "lift-to-a-different-codomain",
        "from reedylab.semilattice import SLatMorphism, chain, interval, lift_through_surjection\n"
        "I = interval()\n"
        "lift_through_surjection(I, SLatMorphism.identity(I), SLatMorphism(I, chain(3), (0, 2)))\n",
        "InvalidInput",
        None,
    ),
    (
        "projective-lift-through-a-non-surjection",
        "from reedylab.elegance import projective_lift\n"
        "from reedylab.semilattice import SLatMorphism, chain, interval\n"
        "I = interval()\n"
        "e = SLatMorphism(I, chain(3), (0, 2))\n"
        "projective_lift(I, e, SLatMorphism(I, chain(3), (0, 2)))\n",
        "NotSurjective",
        None,
    ),
    (
        "split-idempotent-of-a-non-endomap",
        "from reedylab.cubes import split_idempotent\n"
        "from reedylab.semilattice import SLatMorphism, chain, interval\n"
        "split_idempotent(SLatMorphism(interval(), chain(3), (0, 2)))\n",
        "InvalidInput",
        None,
    ),
    (
        "face-out-of-range",
        "from reedylab.cubes import face\nface(3, 2)\n",
        "InvalidInput",
        None,
    ),
    (
        "degeneracy-out-of-range",
        "from reedylab.cubes import degeneracy\ndegeneracy(0, -1)\n",
        "InvalidInput",
        None,
    ),
]


@pytest.mark.parametrize("call, error, law", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_bad_input_raises_a_typed_error_in_optimized_mode(call, error, law):
    code = (
        "from reedylab.errors import InvalidInput, NotSurjective, ViolatedLaw\n"
        "try:\n"
        + "".join(f"    {line}\n" for line in call.splitlines())
        + f"except {error} as exc:\n"
        f"    raise SystemExit(getattr(exc, 'law', None) != {law!r})\n"
        "raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0
