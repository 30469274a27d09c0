"""`twistlab cone` reports on catalog sets, compared byte for byte with
committed golden files, so that no change of set representation leaks
into CLI output.

The inputs are written in the JSON input kinds (`product`, `graph`,
`ray`), not by `set_to_obj`.  To regenerate the goldens from the
installed or PYTHONPATH twistlab, run

    python tests/test_cone_goldens.py

which prints the names of the goldens whose bytes changed.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest

from twistlab.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "cone_reports"


def _full(n):
    gens = [[int(i == j) for j in range(n)] for i in range(n)]
    return {"dim": n, "components": [
        {"kind": "polyhedral", "generators": gens + [[-x for x in g] for g in gens]}]}


def _product(x, xi, dim):
    return {"dim": dim, "components": [{"kind": "product", "x": x, "xi": xi}]}


def _part(s, zero=False):
    return {"set": s, "zero": zero}


# catalog sets: impulse {0} x R^n, plane wave R^n x {0}, chirp graphs;
# plus rays, a half plane admitting x = 0, the open half plane xi > 0, a
# wedge with its axis xi = 0 removed, and a product whose x part is
# itself a product
SETS = {
    "delta1": _product(None, _part(_full(1)), 2),
    "plane1": _product(_part(_full(1)), None, 2),
    "chirp1": {"dim": 2, "components": [{"kind": "graph", "A": [[[1, 2]]]}]},
    "ray1": {"dim": 2, "components": [{"kind": "ray", "v": [1, 1], "both": True}]},
    "half1": _product(_part({"dim": 1, "components": [{"kind": "ray", "v": [1]}]}, True),
                      _part(_full(1)), 2),
    "upper1": _product(_part(_full(1), True),
                       _part({"dim": 1, "components": [{"kind": "ray", "v": [1]}]}), 2),
    "slit1": {"dim": 2, "components": [{"kind": "polyhedral", "generators": [[1, 1], [1, -1]],
                                        "excludes": [[[0, 1]]]}]},
    "delta2": _product(None, _part(_full(2)), 4),
    "plane2": _product(_part(_full(2)), None, 4),
    "chirp2": {"dim": 4, "components": [{"kind": "graph", "A": [[1, 0], [0, -1]]}]},
    "ray2": {"dim": 4, "components": [{"kind": "ray", "v": [1, 0, 0, 1]}]},
    "nested2": _product(_part(_product(_part(_full(1)), _part(_full(1)), 2)), None, 4),
}

THETA = {1: [[0]], 2: [[0, 1], [-1, 0]]}

# (op, u, v or pullback map or None, theta dimension or None); for
# shift_algebra u and v are gamma1 and gamma2, for pair_condition u is gamma
CASES = [
    ("existence", "delta1", "delta1", 1),
    ("existence", "chirp1", "ray1", 1),
    ("existence", "half1", "half1", 1),
    ("existence", "delta2", "plane2", 2),
    ("existence", "chirp2", "delta2", 2),
    ("existence", "ray2", "nested2", 2),
    ("predict_product", "delta1", "plane1", 1),
    ("predict_product", "chirp2", "delta2", 2),
    ("predict_product", "nested2", "ray2", 2),
    ("predict_product", "plane2", "chirp2", 2),
    ("predict_product", "half1", "upper1", 1),
    ("predict_product", "slit1", "delta1", 1),
    ("predict_star", "delta1", "plane1", 1),
    ("predict_star", "chirp1", "ray1", 1),
    ("predict_star", "half1", "delta1", 1),
    ("predict_star", "delta2", "delta2", 2),
    ("predict_star", "plane2", "chirp2", 2),
    ("predict_star", "nested2", "delta2", 2),
    ("predict_star", "ray2", "plane2", 2),
    ("pullback", "delta2", [[1], [1]], None),
    ("pullback", "plane2", [[1], [1]], None),
    ("pullback", "chirp2", [[1, 0], [1, 1]], None),
    ("pullback", "nested2", [[2, 0], [0, 1]], None),
    ("pullback", "chirp1", [[3]], None),
    ("pullback", "half1", [[-2]], None),
    ("pullback", "slit1", [[2]], None),
    ("pullback", "upper1", [[1, -1]], None),
    ("pair_condition", "delta1", None, None),
    ("pair_condition", "half1", None, None),
    ("pair_condition", "upper1", None, None),
    ("pair_condition", "chirp2", None, None),
    ("pair_condition", "nested2", None, None),
    ("shift_algebra", "half1", "half1", 2),
    ("shift_algebra", "plane1", "upper1", 2),
    ("shift_algebra", "half1", "slit1", 2),
    ("shift_algebra", "upper1", "ray1", 2),
    ("shift_algebra", "delta1", "chirp1", 2),
]


def _case_name(case) -> str:
    op, u, v, n = case
    if op == "pullback":
        return f"{op}-{u}-{len(v)}x{len(v[0])}"
    return f"{op}-{u}-{v}" if v else f"{op}-{u}"


def _config(case) -> dict:
    op, u, v, n = case
    if op == "pullback":
        return {"schema_version": 1, "op": op, "set": SETS[u], "map": v}
    if op == "pair_condition":
        return {"schema_version": 1, "op": op, "gamma": SETS[u]}
    if op == "shift_algebra":
        return {"schema_version": 1, "op": op, "theta": THETA[n],
                "gamma1": SETS[u], "gamma2": SETS[v]}
    return {"schema_version": 1, "op": op, "theta": THETA[n], "u": SETS[u], "v": SETS[v]}


def _report(case, workdir: Path) -> bytes:
    cfg = workdir / "cone.json"
    cfg.write_text(json.dumps(_config(case)))
    out = workdir / "out"
    out.mkdir()
    main(["cone", "--config", str(cfg), "--out", str(out)])
    return (out / "cone_report.json").read_bytes()


def test_goldens_cover_the_cases():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(map(_case_name, CASES))


@pytest.mark.parametrize("case", CASES, ids=_case_name)
def test_cone_report_matches_golden(tmp_path, case):
    assert _report(case, tmp_path) == (GOLDEN_DIR / f"{_case_name(case)}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    changed = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            report = _report(case, Path(tmp))
        path = GOLDEN_DIR / f"{_case_name(case)}.json"
        if not path.exists() or path.read_bytes() != report:
            changed.append(path.stem)
        path.write_bytes(report)
    print(f"wrote {len(CASES)} goldens to {GOLDEN_DIR}; {len(changed)} changed", file=sys.stderr)
    for name in changed:
        print(f"  {name}", file=sys.stderr)
