"""Every litmus case in the library, across models and engines (and a
pipeline session, as ``stream``)."""

import pytest

from repro.core.api import ENGINES, check_litmus
from repro.core.complete import complete_check
from repro.core.policy import PSO, SC, TSO
from repro.generator.litmus import LITMUS_LIBRARY, LitmusCase, litmus_by_name
from repro.model.program import parse_litmus
from tests.util import check_on, litmus_aprog

MODELS = {"TSO": TSO, "SC": SC, "PSO": PSO}

CASES = [(case, model) for case in LITMUS_LIBRARY for model in case.expect]


@pytest.mark.parametrize(
    "case,model",
    CASES,
    ids=[f"{c.name}-{m}" for c, m in CASES],
)
@pytest.mark.parametrize("engine", sorted([*ENGINES, "stream"]))
def test_expected_verdict(case: LitmusCase, model: str, engine: str):
    program, execution = parse_litmus(case.text)
    result = check_on(engine, program, execution, MODELS[model])
    assert result.ok == case.expect[model], result.explain()


@pytest.mark.parametrize(
    "case",
    [c for c in LITMUS_LIBRARY if c.complete_valid is not None],
    ids=lambda c: c.name,
)
def test_complete_ground_truth(case: LitmusCase):
    aprog = litmus_aprog(case.text)
    result = complete_check(aprog)
    assert result.decided
    assert result.valid == case.complete_valid


def test_library_contains_all_paper_figures():
    names = {case.name for case in LITMUS_LIBRARY}
    assert {"fig3", "fig5_base", "fig5_mirrored", "fig6", "fig7"} <= names


def test_library_names_unique():
    names = [case.name for case in LITMUS_LIBRARY]
    assert len(names) == len(set(names))


def test_lookup_by_name():
    assert litmus_by_name("SB").name == "SB"
    with pytest.raises(KeyError):
        litmus_by_name("nope")


def test_tso_strictly_weaker_than_sc_on_library():
    # Anything SC accepts, TSO must accept (TSO admits more behaviours).
    for case in LITMUS_LIBRARY:
        if case.expect.get("SC") is True:
            assert (
                check_litmus(case.text, model=TSO).ok
            ), f"{case.name}: SC-legal outcome rejected under TSO"


def test_pso_weaker_than_tso_on_library():
    for case in LITMUS_LIBRARY:
        if case.expect.get("TSO") is True and "PSO" in case.expect:
            assert (
                check_litmus(case.text, model=PSO).ok
            ), f"{case.name}: TSO-legal outcome rejected under PSO"
