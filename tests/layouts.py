"""Reference file layouts, built as plain objects and dumped with json:
what torfill's certificate writer must match byte for byte, and the chain
files that tests feed to `fill --cycle`."""

import json


# version 1: every record spells out its vertices; its files were
# json.dump(obj, indent=1, sort_keys=True) and a newline

def v1_chain_obj(c):
    return {"ambient_dim": c.ambient_dim, "degree": c.degree, "terms": [
        {"coeff": str(coeff), "vertices": [[str(x) for x in v] for v in simplex]}
        for simplex, coeff in sorted(c.terms.items())]}


# trace records were {kind, params, cost, class_delta} in version 1 files and
# in version 2 files written before records became {kind, cost}; the reader
# checks the legacy fields' integers and drops them
LEGACY_FIELDS = {"params": ["1", [["2", "1"], ["1", "1"]], ["1", "0"]],
                 "class_delta": ["0"]}


def record_obj(r, legacy=False):
    return dict({"cost": str(r.cost), "kind": r.kind},
                **(LEGACY_FIELDS if legacy else {}))


def v1_certificate_obj(cert):
    return {
        "version": 1,
        "ambient_dim": cert.target.ambient_dim,
        "degree": cert.target.degree,
        "target": v1_chain_obj(cert.target),
        "witness": v1_chain_obj(cert.witness),
        "cost": str(cert.cost),
        "trace": [record_obj(r, legacy=True) for r in cert.trace],
    }


def v1_text(obj):
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


# version 2: each distinct vertex once, in order of first use over the sorted
# simplices, and each record's vertices as indices into that table; its files
# are json.dumps(obj, sort_keys=True) and a newline

def v2_chain_obj(c):
    terms = v1_chain_obj(c)["terms"]
    points = list(dict.fromkeys(tuple(v) for r in terms for v in r["vertices"]))
    position = {p: i for i, p in enumerate(points)}
    return {"ambient_dim": c.ambient_dim, "degree": c.degree,
            "points": [list(p) for p in points],
            "terms": [{"coeff": r["coeff"], "vertices": [
                position[tuple(v)] for v in r["vertices"]]} for r in terms]}


def v2_certificate_obj(cert):
    return dict(v1_certificate_obj(cert), version=2,
                target=v2_chain_obj(cert.target),
                witness=v2_chain_obj(cert.witness),
                trace=[record_obj(r) for r in cert.trace])


def v2_text(obj):
    return json.dumps(obj, sort_keys=True) + "\n"
