import pathlib
import re

import dpi2 as d

# Public names that were removed because nothing in the package, the CLI or
# a guarantee used them; none may come back by accident.
REMOVED = (
    "product_image",
    "product_split",
    "product_combine",
    "LABEL_TOKENS",
    "label_token",
    "token_label",
    "NormalForm",
    "normal_form",
    "rect_adjacent",
    "interior_mask",
    "is_continuous",
    "chain_certificates",
    "boundary",
    "values_continuous",
    "first_discontinuity",
    "reduce_islands",
    "dump_image",
    "load_image",
    "token_of_index",
    "index_of_token",
    "paste",
    "one_step_check",
    "translate_trace",
    "triangulate",
    "oriented_triangles",
    "OrientedTriangle",
    "identity_certificate",
    "adjacent",
    "degree_minus_one_map",
    "render_ascii",
    "render_svg",
)


def test_every_export_resolves_once():
    assert len(set(d.__all__)) == len(d.__all__)
    for name in d.__all__:
        assert hasattr(d, name), name


def test_removed_names_stay_removed():
    assert [name for name in REMOVED if hasattr(d, name)] == []
    for attr in ("axis", "sign", "from_axis_sign"):
        assert not hasattr(d.S2Label.E1, attr)
    assert not hasattr(d.GridMap, "basepoint_point")
    assert not hasattr(d.Rectangle, "points")
    assert not hasattr(d.Rectangle, "is_interior")
    assert "factors" not in d.DigitalImage.__dataclass_fields__
    assert not hasattr(d.degree, "__all__")  # the package's list is the only one


def test_readme_names_no_removed_name():
    # "boundary" is also an English word, so only a name written as code
    # counts: opening a code span, after "d.", or called.
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    as_code = [rf"`{name}\b|\bd\.{name}\b|\b{name}\(" for name in REMOVED]
    assert [name for name, pat in zip(REMOVED, as_code) if re.search(pat, readme)] == []
