import inspect

import scatchan
from scatchan import graph, physics

REMOVED = ("single_barrier_m", "double_barrier_m", "SpinChannelPair", "new_scattering",
           "loop_matrix", "TransferMatrix", "closed_form_m")


def test_exports_resolve_and_removed_names_are_gone():
    for name in scatchan.__all__:
        assert getattr(scatchan, name) is not None, name
    for name in REMOVED:
        assert name not in scatchan.__all__
        assert not hasattr(scatchan, name)


def test_stack_wrappers_are_gone():
    for name in ("row", "broadcast_to"):
        assert not hasattr(scatchan.ScatteringMatrix, name)


def test_retired_names_are_gone():
    # The constructor always gates and the contraction plan is plain tuples.
    # The CSV header is read off the table's fields, so a renamed field must
    # fail here as well as in the golden CSV hashes.
    assert "check" not in inspect.signature(scatchan.ScatteringMatrix).parameters
    assert not hasattr(graph, "_Step") and not hasattr(graph, "_Plan")
    assert physics.SweepTable.CSV_COLUMNS == (
        "E_over_V0", "p_up_single", "p_dn_single", "p_up_double", "p_dn_double",
        "q_low_single", "q_up_single", "q_low_double", "q_up_double", "superactivated")
