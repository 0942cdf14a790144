"""skewlat: computing with finite skew lattices."""

from .core import (
    CAP,
    SkewLattice,
    ValidationReport,
    chain,
    direct_product,
    dual,
    from_json,
    mirror,
    rectangular,
    to_json,
    validate,
)

__version__ = "0.1.0"
