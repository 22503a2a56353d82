"""Seeded fuzzing of every subcommand in process, in all three formats.

Malformed and extreme documents (wrong types, empty documents, NaN,
negatives, zeros, 4000-digit denominators, deep nesting) must each yield a
report or an error report: exit status 0 or 1, never an escaped exception,
never an internal error, and never the interpreter's hint to raise its
digit limit.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coopetition.cli import main

NAMES = ["A", "B", "C", "D", "E"]

# Exact scalars, 4000-digit denominators among them, and the forms parsing
# must reject: NaN, infinities, negatives, floats, wrong types.
VALID = st.one_of(
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 12), st.integers(1, 4)),
    st.integers(0, 12),
    st.sampled_from(["0", "2.9", "1e1", "0.001"]),
    st.builds(lambda k: f"{k % 7 + 1}/{10**4000 + 2 * k + 1}", st.integers(0, 30)),
)
INVALID = st.one_of(
    st.sampled_from(
        ["-1", "-1/3", "NaN", "nan", "inf", "-inf", "1/0", "", " ", "x", "0x10", "3/-2", "1e4301"]
    ),
    st.integers(-3, -1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.none(), max_size=1),
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
RAW = st.sampled_from(
    ["", " ", "{}", "[]", "NaN", '{"advertisers": NaN}', "[" * 100_000 + "]" * 100_000,
     '{"value": ' + "1" * 5000 + "}"]
)


def scalar(draw):
    """Mostly an exact scalar, now and then one that parsing must reject."""
    return draw(INVALID if draw(st.integers(0, 11)) == 0 else VALID)


@st.composite
def instance_texts(draw) -> str:
    """An instance document, also fit for `contracts`: mostly well formed,
    sometimes with one field replaced by junk, sometimes junk or raw text."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(RAW)
    if kind == 1:
        return json.dumps(draw(JUNK))
    n = draw(st.integers(1, 5))
    names = NAMES[:n]
    ads = draw(
        st.lists(
            st.lists(st.sampled_from(names), min_size=1, max_size=n, unique=True),
            min_size=1,
            max_size=4,
            unique_by=frozenset,
        )
    )
    left_out = [name for name in names if all(name not in ad for ad in ads)]
    if left_out and draw(st.integers(0, 9)):
        ads.append(left_out)
    doc = {
        "advertisers": [{"name": name, "value": scalar(draw)} for name in names],
        "ads": ads,
        "owners": [draw(st.sampled_from(ad if draw(st.integers(0, 9)) else names)) for ad in ads],
        "slots": [
            draw(st.sampled_from(["1", "1/2", "0.3"])) if draw(st.integers(0, 3)) else scalar(draw)
            for _ in range(draw(st.integers(1, 3)))
        ],
    }
    if kind == 2:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    return json.dumps(doc)


@st.composite
def bid_texts(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(RAW, JUNK.map(json.dumps)))
    names = draw(st.lists(st.sampled_from(NAMES[: draw(st.integers(1, 5))] + ["Z"]), max_size=5, unique=True))
    return json.dumps({"bids": {name: scalar(draw) for name in names}})


@st.composite
def contract_texts(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(RAW, JUNK.map(json.dumps)))
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        term = {"supporter": draw(st.sampled_from(NAMES)), "ad": draw(st.integers(-1, 4))}
        fields = ["amount"] if draw(st.booleans()) else ["fraction", "cap", "subsidy"]
        term.update({field: scalar(draw) for field in fields})
        terms.append(term)
    return json.dumps({"contracts": terms})


WORDS = st.sampled_from(["1", "1/2", "0", "-1", "NaN", "x", "1e-4300", "2.5"])
# Subsidy grids of at most three levels per ad, so a search stays small.
GRIDS = st.sampled_from(["1:2", "1/2:1", "2:1", "0:1", "-1:1", "x:1", "1e-4300:1", "1/2:-1", "1:x"])

COMMANDS = [
    ["solve", "{instance}", "vcg"],
    ["solve", "{instance}", "egalitarian", "--trace"],
    ["solve", "{instance}", "bounds"],
    ["verify", "{instance}", "{bids}"],
    ["compare", "{instance}"],
    ["polytope", "{instance}"],
    ["polytope", "{instance}", "--weights={weights}"],
    ["oracle", "{instance}", "--epsilon={word}", "--budget", "2000"],
    ["contracts", "{instance}"],
    ["contracts", "{instance}", "--contracts", "{contracts}", "--responder", "B",
     "--subsidy-grid={grid}"],
]

# The two documents of the scale limits: 120 bids whose common denominator
# passes 43000 digits at the eleventh, and 14 values whose results are too
# long to print.
WINNER = json.dumps({
    "advertisers": [{"name": f"A{i}", "value": "1"} for i in range(120)] + [
        {"name": "R", "value": "1"}
    ],
    "ads": [[f"A{i}" for i in range(120)], ["R"]],
})
COPRIME_BIDS = json.dumps({"bids": {f"A{i}": f"1/{10**4000 + 2 * i + 1}" for i in range(120)}})
LONG = json.dumps({
    "advertisers": [{"name": f"A{i}", "value": f"{i + 2}/{10**400 + 2 * i + 1}"} for i in range(14)]
    + [{"name": "R", "value": "1/1000000"}],
    "ads": [[f"A{i}" for i in range(14)], ["R"]],
})

UNUSED = {"contracts": "", "word": "1", "weights": "1", "grid": "1:2"}


@given(
    command=st.sampled_from(COMMANDS),
    fmt=st.sampled_from(["table", "csv", "json"]),
    instance=instance_texts(),
    bids=bid_texts(),
    contracts=contract_texts(),
    word=WORDS,
    weights=st.lists(WORDS, min_size=1, max_size=5).map(",".join),
    grid=GRIDS,
)
@example(command=COMMANDS[3], fmt="json", instance=WINNER, bids=COPRIME_BIDS, **UNUSED)
@example(command=COMMANDS[0], fmt="table", instance=LONG, bids="", **UNUSED)
@example(command=COMMANDS[4], fmt="csv", instance=LONG, bids="", **UNUSED)
@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
def test_every_subcommand_reports_or_reports_an_error(
    tmp_path, capsys, command, fmt, instance, bids, contracts, word, weights, grid
):
    files = {"instance": instance, "bids": bids, "contracts": contracts}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    places = {name: str(tmp_path / f"{name}.json") for name in files}
    argv = [part.format(word=word, weights=weights, grid=grid, **places) for part in command]
    code = main(argv + ["--format", fmt])
    out, err = capsys.readouterr()
    assert code in (0, 1), (argv, out, err)
    assert (out == "") == (code == 1) and (err == "") == (code == 0), (argv, out, err)
    assert "set_int_max_str_digits" not in out + err
