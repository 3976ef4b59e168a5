"""Star representations: FD accounting, cell stars, the shared
decomposition, serialization."""

import json

import pytest

from sharpcells.cad import compatible_decomposition, decomposition_report
from sharpcells.fd import FDPair, fd_of_formula
from sharpcells.parser import parse_formula
from sharpcells.star import (
    StarError,
    StarRep,
    cell_star_rep,
    star_ccd,
    star_fd,
    star_from_json,
    star_report,
    star_to_json,
    star_union,
    to_star,
)


def test_to_star_counts_components():
    X = parse_formula("x*y - 1 = 0")
    rep = to_star(X)
    fd = fd_of_formula(X)
    assert len(rep.entries) == 2
    assert star_fd(rep) == FDPair(fd.format, 2 * fd.degree)
    assert {e.component for e in rep.entries} == {0, 1}


def test_to_star_empty_set_keeps_one_entry():
    rep = to_star(parse_formula("x^2 + y^2 + 1 = 0"))
    assert len(rep.entries) == 1
    assert star_fd(rep) == fd_of_formula(parse_formula("x^2 + y^2 + 1 = 0"))


def test_star_union_is_max_sum():
    a = to_star(parse_formula("x^2 + y^2 - 1 = 0"))
    b = to_star(parse_formula("x - y > 0"))
    u = star_union(a, b)
    assert star_fd(u).format == max(star_fd(a).format, star_fd(b).format)
    assert star_fd(u).degree == star_fd(a).degree + star_fd(b).degree
    with pytest.raises(StarError):
        StarRep([])


def test_cell_star_format_is_ambient_dimension():
    decomp = compatible_decomposition([parse_formula("x^2 + y^2 - 1 = 0")])
    for cell in decomp.cells:
        rep = cell_star_rep(decomp, cell)
        assert star_fd(rep).format <= 2
        assert len(rep.entries) == 1


def test_star_format_flat_while_direct_format_grows():
    def cheb(d):
        prev, cur = "1", "x"
        for _ in range(d - 1):
            prev, cur = cur, f"2*x*({cur}) - ({prev})"
        return cur

    direct_formats = []
    star_formats = []
    for d in (2, 4, 6):
        decomp = compatible_decomposition(
            [parse_formula(f"y - ({cheb(d)}) = 0")])
        direct_formats.append(decomposition_report(decomp)["max_fd"][0])
        star_formats.append(star_report(decomp)["max_star_fd"][0])
    assert direct_formats[0] < direct_formats[1] < direct_formats[2]
    assert star_formats[0] == star_formats[1] == star_formats[2]


def test_star_selector_distinguishes_same_sign_cells():
    # both roots of an irreducible quadratic satisfy the same sign
    # condition; the component selector tells them apart
    decomp = compatible_decomposition([parse_formula("x^2 - 2 = 0")])
    on = [c for c in decomp.cells if c.memberships[0]]
    assert len(on) == 2
    reps = [cell_star_rep(decomp, c) for c in on]
    sources = {str(r.entries[0].source) for r in reps}
    assert len(sources) == 1
    assert sorted(r.entries[0].component for r in reps) == [0, 1]


def test_star_ccd_mixed_dimensions():
    reps = [to_star(parse_formula("(x > 0) and (1 - x > 0)")),
            to_star(parse_formula("x^2 + y^2 - 1 < 0"))]
    out, stars, report = star_ccd(reps, 1)
    assert out.level == 1
    assert set(stars) == {c.index_path for c in out.cells}
    assert report["cells"] == len(out.cells)
    for rep in stars.values():
        assert len(rep.entries) == 1
        assert rep.entries[0].target_dim == 1


def test_star_ccd_validation():
    with pytest.raises(StarError):
        star_ccd([], 1)
    rep = to_star(parse_formula("x > 0"))
    with pytest.raises(StarError):
        star_ccd([rep], 2)


def test_json_round_trip():
    rep = to_star(parse_formula("x*y - 1 = 0"))
    doc = json.loads(json.dumps(star_to_json(rep)))
    rep2 = star_from_json(doc)
    assert star_fd(rep2) == star_fd(rep)
    assert [e.component for e in rep2.entries] == \
        [e.component for e in rep.entries]
    with pytest.raises(StarError):
        star_from_json({"version": 99, "entries": []})
