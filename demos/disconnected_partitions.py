#!/usr/bin/env python3
"""Components of the augmentation variety for disconnected Legendrians.

For a disjoint union of translated Clifford-torus sheets, the
augmentation variety breaks into one irreducible component per partition
of the sheets into blocks of size one or two (pair blocks need matching
spin labels).  Singleton blocks impose the sheet relation; pair blocks
impose the diagonal.

Each component carries a finite witness: values for the sheet coordinates
y_{i,b} together with mixed-chord values a_{jk}.  The witness must satisfy
the degree-one relations of the algebra; this script builds one witness
per component, checks all relations exactly, and then verifies that every
single-value perturbation of the witness breaks some relation - the
component structure is rigid.

Mixed Reeb chords between sheets carry fractional real degrees, computed
at the end for three sheets.
"""

from fractions import Fraction

from augvar.augment import (
    ChordDegreeParams,
    build_partition_witness,
    dga_relation_check,
    enumerate_partition_components,
    perturbations,
    reeb_chord_degree,
)
from augvar.potentials import clifford_relation


def component_tour(ell, spin_labels=None):
    spec = clifford_relation(3)
    comps = enumerate_partition_components(ell, spec, spin_labels)
    label = "all spins equal" if spin_labels is None else \
        "spins %s" % (spin_labels,)
    print("== %d sheets (%s): %d components ==" % (ell, label, len(comps)))
    for comp in comps:
        print("  component %s" % comp.label())
        for eq in comp.equations:
            print("      %s = 0" % eq)
        if ell in (2, 3):
            witness = build_partition_witness(comp.blocks, spec.signs, 2)
            check = dga_relation_check(witness)
            broken = sum(1 for _, p in perturbations(witness)
                         if not dga_relation_check(p).passed)
            total = len(perturbations(witness))
            print("      witness passes: %s; perturbations broken: %d/%d"
                  % (check.passed, broken, total))
    print()


def chord_degrees():
    print("== mixed chord degrees, three sheets at angle 2*pi/9 ==")
    params = ChordDegreeParams(sheets=3, theta_over_pi=Fraction(2, 9),
                               slope=Fraction(3))
    for j in range(1, 4):
        for k in range(1, 4):
            if j == k:
                continue
            deg, z2 = reeb_chord_degree(params, j, k)
            print("  deg a_%d%d = %5s   (Z2 degree %d)" % (j, k, deg, z2))
    print()


def main():
    component_tour(2)
    component_tour(3)
    component_tour(3, ["up", "up", "down"])
    component_tour(4)
    chord_degrees()


if __name__ == "__main__":
    main()
