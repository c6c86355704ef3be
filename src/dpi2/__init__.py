"""Digital grid maps into small digital images: degrees, spider-move
homotopy certificates, brute-force equivalence search, and a certified
normal form for maps into the six-point sphere."""

from .grid import (
    DigitalImage,
    Explicit,
    LatticeCq,
    Rectangle,
)
from .sphere import (
    BASEPOINT,
    S2,
    S2Label,
    antipode,
    make_sphere,
)
from .gridmap import (
    GridMap,
    SubRect,
    apply_alpha,
    apply_beta,
    border_wrap,
    constant_map,
    from_array,
    inverse,
    map_compose,
    product,
    subdivide,
    trivial_extend,
)
from .degree import (
    degree_one_map,
    triangle_count,
)
from .verify import (
    Certificate,
    SpiderMove,
    VerifyResult,
    spider_valid,
    verify_certificate,
)
from .homotopy import apply_spider, decompose_one_step, doubling_trace, flood
from .normalize import (
    Island,
    cancel_certificate,
    canonical_stack,
    classify_island,
    find_islands,
    isolate_e1,
    pi2_class,
)
from .oracle import Equivalent, SearchBudget, Unknown, homotopy_decide
from .formats import (
    ParseError,
    dump_certificate,
    dump_map,
    load_certificate,
    load_map,
)
from .generate import gen_random
from .render import RenderSpec, render_map

__version__ = "1.0.0"

__all__ = [
    "BASEPOINT",
    "Certificate",
    "DigitalImage",
    "Equivalent",
    "Explicit",
    "GridMap",
    "Island",
    "LatticeCq",
    "ParseError",
    "Rectangle",
    "RenderSpec",
    "S2",
    "S2Label",
    "SearchBudget",
    "SpiderMove",
    "SubRect",
    "Unknown",
    "VerifyResult",
    "antipode",
    "apply_alpha",
    "apply_beta",
    "apply_spider",
    "border_wrap",
    "cancel_certificate",
    "canonical_stack",
    "classify_island",
    "constant_map",
    "decompose_one_step",
    "degree_one_map",
    "doubling_trace",
    "dump_certificate",
    "dump_map",
    "find_islands",
    "flood",
    "from_array",
    "gen_random",
    "homotopy_decide",
    "inverse",
    "isolate_e1",
    "load_certificate",
    "load_map",
    "make_sphere",
    "map_compose",
    "pi2_class",
    "product",
    "render_map",
    "spider_valid",
    "subdivide",
    "triangle_count",
    "trivial_extend",
    "verify_certificate",
]
