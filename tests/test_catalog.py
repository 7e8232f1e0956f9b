import math

import pytest

from rabimix import (
    CATALOG,
    ConfigError,
    DomainError,
    InteractionModel,
    get_process,
    list_processes,
    resolve_resonance,
    verify_entry,
)
from rabimix.catalog import (
    build_system,
    default_frequencies,
    distinct_transition_count,
    format_entry,
    higher_harmonic_entries,
)


def test_table_counts():
    assert distinct_transition_count(1) == 12
    assert distinct_transition_count(2) == 20


def test_every_entry_balances_energy():
    for e in CATALOG:
        assert e.energy_balance_ok(), e.id


def test_every_entry_parity_consistent():
    for e in CATALOG:
        assert e.parity_model() is e.required_model, e.id


def test_all_three_wave_transitions_need_generalized_rabi():
    for e in list_processes(category="three-wave"):
        assert e.required_model is InteractionModel.GENERALIZED_RABI, e.id


def test_type_one_four_wave_reachable_under_jc():
    jc_entries = [e for e in list_processes(category="four-wave")
                  if e.required_model is InteractionModel.JC]
    assert len(jc_entries) >= 4
    for e in jc_entries:
        report = verify_entry(e)
        assert report.reachable, e.id


def test_ids_unique():
    ids = [e.id for e in CATALOG]
    assert len(ids) == len(set(ids))


def test_duplicates_reference_existing_entries():
    ids = {e.id for e in CATALOG}
    for e in CATALOG:
        if e.duplicate_of is not None:
            assert e.duplicate_of in ids, e.id


def test_list_processes_filters():
    assert all(e.table == 1 for e in list_processes(table=1))
    assert all(e.degenerate for e in list_processes(degenerate=True))
    assert all(e.required_model is InteractionModel.RABI
               for e in list_processes(model="rabi"))
    full = len(list_processes(table=2))
    distinct = len(list_processes(table=2, distinct_only=True))
    assert distinct < full


def test_get_process_unknown_id():
    with pytest.raises(DomainError):
        get_process("definitely_not_a_process")


def test_resolve_resonance_single_free_symbol():
    e = get_process("shg_2r1q")  # w_a = 2 w_b
    out = resolve_resonance(e, {"b": 1.0, "q": 1.6})
    assert out["a"] == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        resolve_resonance(e, {"q": 1.6})  # underdetermined
    with pytest.raises(ConfigError):
        resolve_resonance(e, {"a": 2.0, "b": 1.0, "q": 1.6})  # overdetermined


def test_resolve_resonance_rejects_nonpositive_solution():
    e = get_process("raman_spont_stokes")  # w_a = w_b + w_q
    with pytest.raises(DomainError):
        resolve_resonance(e, {"a": 1.0, "b": 2.0})  # forces w_q < 0


def test_default_frequencies_satisfy_resonance():
    for e in CATALOG:
        freqs = default_frequencies(e)
        total = sum(c * freqs[s] for s, c in e.resonance.items())
        assert abs(total) < 1e-12, e.id


def test_build_system_couples_every_pair():
    e = get_process("hyper_raman_2_stokes")
    spec = build_system(e, default_frequencies(e))
    assert len(spec.modes) == 2 and len(spec.qubits) == 2
    assert len(spec.couplings) == 4


def test_higher_harmonic_entries_alternate_models():
    for m, expected in ((4, InteractionModel.RABI), (5, InteractionModel.GENERALIZED_RABI),
                        (6, InteractionModel.RABI)):
        entries = higher_harmonic_entries(m)
        assert len(entries) == 3
        for e in entries:
            assert e.required_model is expected, (m, e.id)


def test_full_catalog_verification():
    for e in CATALOG:
        report = verify_entry(e)
        assert report.passed, (e.id, report.messages)


def test_stimulated_entry_with_background_photons():
    import warnings

    from rabimix import effective_coupling, interaction_for

    e = get_process("raman_stim_stokes")
    assert verify_entry(e, n=0).passed and verify_entry(e, n=2).passed
    freqs = default_frequencies(e)
    spec = build_system(e, freqs, n_max=8)
    hint = interaction_for(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g0 = effective_coupling(hint, e.initial.instantiate(0), e.final.instantiate(0)).value
        g2 = effective_coupling(hint, e.initial.instantiate(2), e.final.instantiate(2)).value
    assert abs(g2) / abs(g0) == pytest.approx(math.sqrt(3), rel=1e-9)


def test_format_entry_contains_stable_fields():
    text = format_entry(get_process("shg_2r1q"))
    lines = text.splitlines()
    assert lines[0] == "id: shg_2r1q"
    keys = [line.split(":")[0] for line in lines]
    assert keys[:5] == ["id", "name", "category", "table", "degenerate"]
    assert "resonance" in keys and "transition" in keys and "required_model" in keys


def test_verify_entry_builds_the_interaction_once_under_the_required_model(monkeypatch):
    """When the entry's system already uses its required model, the
    reachability check reuses that Hint: one build, plus one per weaker
    model."""
    from rabimix import catalog
    from rabimix.system import weaker_models

    e = get_process("shg_1r1q")
    assert build_system(e, default_frequencies(e)).model is e.required_model
    calls = []
    original = catalog.interaction_for
    monkeypatch.setattr(catalog, "interaction_for",
                        lambda spec: calls.append(spec.model) or original(spec))
    assert verify_entry(e).passed
    assert calls == [e.required_model, *weaker_models(e.required_model)]


@pytest.mark.parametrize("pid", ["kerr_dispersive", "shg_2r1q", "thg_1r3q"])
def test_verify_compares_every_closed_form_by_one_rule(pid):
    """The Kerr check reads its number from the fourth-order shift and every
    other closed form from the path sum; both use one relative error."""
    r = verify_entry(get_process(pid))
    num, ana = r.g_eff, r.closed_form_value
    scale = max(abs(num), abs(ana))
    assert r.relative_error == (0.0 if scale < 1e-14 else abs(num - ana) / scale)
