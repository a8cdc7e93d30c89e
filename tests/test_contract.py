"""The exit-code contract as a property.  One JSON node of a valid input is
replaced by a drawn value, or deleted, and the command that reads the file
runs in process.  No exception may escape; the exit code is 0-3; exit 1
comes only with a failed report or a rejection on file; exits 2 and 3 write
exactly one ``error:`` line."""

import contextlib
import copy
import functools
import io
import json
import operator
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from framefield.cli import main
from framefield.construct import constant_paraunitary, derive_pair, haar_bank, seeded_paraunitary
from framefield.galois import FieldParams

GF9 = FieldParams(3, 2)
HAAR = haar_bank(GF9)
DOCUMENTS = {
    "bank": HAAR.to_json(),
    "pair": derive_pair(HAAR, HAAR, seeded_paraunitary(GF9, 2 * HAAR.n_wavelets, 1)).to_json(),
    "matrix": constant_paraunitary(GF9, 2, 1).to_json(),
}
SMALL = ["--signal-size", "2", "--levels", "1", "--trials", "2"]
# command -> (the document it reads as {input}, its arguments, its report file)
CASES = {
    "verify": ("bank", ["verify", "{input}", "--out", "{dir}/out.json"], "out.json"),
    "parseval": ("bank", ["experiment", "--kind", "parseval", "--bank", "{input}", *SMALL,
                          "--out", "{dir}/out.json"], "out.json"),
    "mixed": ("pair", ["experiment", "--kind", "mixed", "--pair", "{input}", *SMALL,
                       "--out", "{dir}/out.json"], "out.json"),
    "family": ("matrix", ["family", "--bank", "{dir}/haar.json", "--paraunitary", "{input}",
                          "--out-dir", "{dir}/fam"], "fam/reports.json"),
}
DELETE = "<delete>"


def _paths(node, prefix=()):
    """Every path below ``node``, through the first three items of each list."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node[:3])
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = {name: sorted(_paths(doc), key=repr) for name, doc in DOCUMENTS.items()}
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([2 ** 63, -(2 ** 64), 10 ** 400]),
    st.floats(),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
MUTATIONS = st.sampled_from(sorted(CASES)).flatmap(
    lambda case: st.tuples(
        st.just(case),
        st.sampled_from(PATHS[CASES[case][0]]),
        st.just(DELETE) | VALUES,
    )
)


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = functools.reduce(operator.getitem, parents, doc)
    if value == DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


@settings(max_examples=150)
@given(MUTATIONS)
@example(("verify", ("field",), None))
@example(("parseval", ("masks", 1, "coeffs", 0), [0.4, 0.0]))  # not a tight frame
@example(("family", ("entries", 0, 0, "coeffs", 0), [0.9, 0.0]))  # not paraunitary
def test_one_mutated_node_keeps_the_exit_code_contract(mutation):
    case, path, value = mutation
    name, template, report = CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "haar.json").write_text(json.dumps(DOCUMENTS["bank"]))
        (tmp / "input.json").write_text(json.dumps(_mutated(DOCUMENTS[name], path, value)))
        argv = [arg.format(input=tmp / "input.json", dir=tmp) for arg in template]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        assert code in (0, 1, 2, 3), code
        if code == 1:
            obj = json.loads((tmp / report).read_text())
            assert "rejected" in obj or any(r["pass"] is False for r in obj["reports"]), obj
        if code in (2, 3):
            assert len(errors) == 1, errors
