"""Numerical classification of simple singularities of smooth maps R^n -> R^n.

Builds smooth kernel/cokernel fields (fibering pairs) near a rank-drop point
via bordered linear systems, evaluates the associated scalar functionals by
exact jet arithmetic, reduces maps to local scalar form, and decides among
fold/cusp-type ordinary singularities, maximal transverse singularities and
transversality up to a finite order cap.
"""

from .classify import Classification, Tolerances, classify_point
from .fibering import make_fibering_pair, rescale_pair
from .gallery import gallery_map, list_gallery
from .lsreduce import local_representation
from .model import AffinePair, MapModel, conjugate

__all__ = [
    "AffinePair",
    "Classification",
    "MapModel",
    "Tolerances",
    "classify_point",
    "conjugate",
    "gallery_map",
    "list_gallery",
    "local_representation",
    "make_fibering_pair",
    "rescale_pair",
]
