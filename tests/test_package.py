import ast
import inspect
from pathlib import Path

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


def test_dir_lists_every_export():
    # The exports load lazily; the package's __dir__ names the unloaded ones too.
    assert set(scatchan.__all__) <= set(dir(scatchan))


def test_stack_wrappers_are_gone():
    for name in ("row", "broadcast_to"):
        assert not hasattr(scatchan.ScatteringMatrix, name)


def test_retired_names_are_gone():
    # The constructor always gates, slots move only through the validated
    # ``permuted``, and the contraction plan is plain tuples.
    # The CSV header is read off the table's fields, so a renamed field must
    # fail here as well as in the golden CSV hashes.
    assert "check" not in inspect.signature(scatchan.ScatteringMatrix).parameters
    assert not hasattr(scatchan.ScatteringMatrix, "reindexed")
    assert not hasattr(graph, "_Step") and not hasattr(graph, "_Plan")
    assert physics.SweepTable.CSV_COLUMNS == (
        "E_over_V0", "p_up_single", "p_dn_single", "p_up_double", "p_dn_double",
        "q_low_single", "q_up_single", "q_low_double", "q_up_double", "superactivated")


def test_no_module_imports_a_name_it_never_uses():
    # A name counts as used if it is read anywhere in its module, so a
    # deletion that leaves an import behind fails here.
    unused = []
    for path in sorted(Path(scatchan.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused
