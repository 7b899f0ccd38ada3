import scatchan

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
