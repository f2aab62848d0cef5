"""Exact computer algebra for twisted bialgebra structures.

The package builds finitely presented algebras, Hom-bialgebras on them
(a coproduct and a structure endomorphism), cobraiding forms, comodules
and comodule algebras, and the Hom-Yang-Baxter operators built from
them.  It machine-checks every defining axiom up to a configurable
truncation degree with exact cyclotomic-rational arithmetic.
"""

__version__ = "0.1.0"
