"""Seeded mutation sweep: altered certificate files, chain files, inline
matrices and matrix files, for every command, end in exit code 0, 2 or 3 and
never in a traceback.  A certificate file that `fill --verify` still accepts
must load the original's target and witness.

The seeds and the counts are fixed; a mutant that fails names its argv and,
for a file, its text.
"""

import copy
import json
import random

import pytest

from torfill.chains import parallelogram_cycle
from torfill.cli import main
from torfill.formats import load_certificate

from layouts import v2_chain_obj

SEED = 4101
FILE_MUTANTS = 700      # per original file
MATRIX_MUTANTS = 60     # per command and original matrix
MATRIX_FILE_SEED = 4102
MATRIX_FILE_MUTANTS = 60  # per command and original matrix file

# what a mutation puts in place of a JSON value
_VALUES = (0, -1, 2, 1.5, True, None, "", "0", "1", "-1", "01", "+1", " 1",
           "-0", "1.0", "1e3", "x", "9" * 40, [], ["0"], [0], {}, {"coeff": "1"})
_JSON_CHARS = '{}[]",:0123456789- .aeknrt'
_MATRIX_CHARS = ",;-+0123456789 .x^e"
# single bytes, NUL and bytes that are not UTF-8 on their own among them
_MATRIX_FILE_BYTES = tuple(
    bytes([b]) for b in b" \t\n\r\x0b,;-+0123456789#.\x00\x80\xa0\xc3\xfe\xff")

_MATRICES = ("2,1;1,1", "1,1,0;1,2,1;0,1,2")
_COMMANDS = (["bounds", "--stats"], ["reduce", "--trace"],
             ["fvupper", "--jmax", "2"], ["torsion", "--kmax", "4"],
             ["gelfand", "--jmax", "4"], ["psl2z", "--power", "2"])


def _paths(obj, path=()):
    """Every path of keys and indices into obj, its root excluded."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutate_obj(rng, obj):
    """obj with one value replaced, nudged, deleted, duplicated or swapped."""
    obj = copy.deepcopy(obj)
    path = rng.choice(list(_paths(obj)))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    value = parent[key]
    op = rng.randrange(5)
    if op == 1 and isinstance(value, str) and value.lstrip("-").isdigit():
        parent[key] = str(int(value) + rng.choice((-2, -1, 1, 2)))
    elif op == 2:
        del parent[key]
    elif op == 3 and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == 4 and isinstance(parent, list):
        other = rng.randrange(len(parent))
        parent[key], parent[other] = parent[other], value
    else:
        parent[key] = rng.choice(_VALUES)
    return json.dumps(obj, sort_keys=True)


def _mutate_text(rng, text, alphabet):
    """text with one character deleted, inserted or replaced, or cut short;
    for bytes, alphabet is a tuple of single bytes."""
    i = rng.randrange(len(text) + 1)
    op = rng.randrange(4)
    if op == 0:
        return text[:i] + text[i + 1:]
    if op == 1:
        return text[:i] + rng.choice(alphabet) + text[i:]
    if op == 2:
        return text[:i]
    return text[:i] + rng.choice(alphabet) + text[i + 1:]


def _mutate_file(rng, text):
    """A JSON file's text mutated as an object or as text, evenly."""
    if rng.random() < 0.5:
        return _mutate_obj(rng, json.loads(text))
    return _mutate_text(rng, text, _JSON_CHARS)


def _call(capsys, argv, note=""):
    try:
        code = main(argv)
    except Exception as exc:
        pytest.fail("%r raised %r %s" % (argv, exc, note))
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, code, note)
    assert "Traceback" not in err, (argv, err, note)
    assert code != 3 or out == "", (argv, out, note)
    return code


def _originals(tmp_path, capsys):
    """Certificate files from reduce and fill --cycle, and the cycle file."""
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps(v2_chain_obj(
        parallelogram_cycle([(1, 0), (0, 1)])
        + parallelogram_cycle([(-1, 0), (0, 1)]))))
    certs = [tmp_path / "reduce2.json", tmp_path / "reduce3.json",
             tmp_path / "fill.json"]
    for argv in (["reduce", "--matrix=2,1;1,1", "--out", str(certs[0])],
                 ["reduce", "--matrix=1,1,0;1,2,1;0,1,2", "--out", str(certs[1])],
                 ["fill", "--cycle", str(cycle), "--out", str(certs[2])]):
        assert main(argv) == 0
    capsys.readouterr()
    return certs, cycle


def test_mutants_exit_0_2_or_3_without_traceback(tmp_path, capsys):
    rng = random.Random(SEED)
    certs, cycle = _originals(tmp_path, capsys)
    mutant = tmp_path / "mutant.json"
    accepted = 0
    for original in certs:
        want = load_certificate(original)
        text = original.read_text()
        for _ in range(FILE_MUTANTS):
            note = _mutate_file(rng, text)
            mutant.write_text(note)
            if _call(capsys, ["fill", "--verify", str(mutant)], note) == 0:
                got = load_certificate(mutant)
                assert (got.target, got.witness) == (want.target, want.witness), note
                accepted += 1
    text = cycle.read_text()
    for _ in range(FILE_MUTANTS):
        note = _mutate_file(rng, text)
        mutant.write_text(note)
        _call(capsys, ["fill", "--cycle", str(mutant), "--max-expand", "1"], note)
    for command in _COMMANDS:
        for matrix in _MATRICES:
            for _ in range(MATRIX_MUTANTS):
                text = _mutate_text(rng, matrix, _MATRIX_CHARS)
                _call(capsys, [command[0], "--matrix=" + text] + command[1:])
    # mutants that alter no chain, such as a trace kind, an unused point or
    # version 1, are accepted, so the equality check above has run
    assert accepted > 0


def test_matrix_file_mutants_exit_0_2_or_3_without_traceback(tmp_path, capsys):
    # byte-level mutants of a --matrix-file, from their own seed; psl2z
    # takes no matrix file, so its mutants are usage errors
    rng = random.Random(MATRIX_FILE_SEED)
    mutant = tmp_path / "matrix.txt"
    for command in _COMMANDS:
        for matrix in _MATRICES:
            text = "".join(row.replace(",", " ") + "\n"
                           for row in matrix.split(";")).encode()
            for _ in range(MATRIX_FILE_MUTANTS):
                data = _mutate_text(rng, text, _MATRIX_FILE_BYTES)
                mutant.write_bytes(data)
                _call(capsys, [command[0], "--matrix-file", str(mutant)]
                      + command[1:], repr(data))
