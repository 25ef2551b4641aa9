"""Every top-level definition of the package has a consumer.

A function, class or module constant of ``src/mcqkd`` passes when another
definition of the package names it, when ``tests/test_acceptance.py`` or the
console script in ``pyproject.toml`` names it, when the benchmark traces it
(``perfbench.tracing.TRACED``), or when ``KEEP`` below lists it with the
ROADMAP item that will consume it.  Anything else is code that no subcommand
and no acceptance check runs; it goes, or it comes back with a consumer.
"""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mcqkd"

# name -> the ROADMAP open item (or check) that consumes it
KEEP = {
    "constellation.CodewordPair": "item 4, sampled codeword error",
    "constellation.pairwise_error": "item 4, sampled codeword error",
    "constellation.product_distance": "item 4, sampled codeword error",
    "manifold.tradeoff_single": "item 5, per-point reference of the tradeoff table",
    "manifold.tradeoff_multicarrier": "item 5, per-point reference of the tradeoff table",
    "manifold.tradeoff_g_scaled": "item 5, per-point reference of the tradeoff table",
    "manifold.log_det_rate": "item 6, sampled multiaccess tradeoff",
    "manifold.perr_rank_outage": "item 6, sampled multiaccess tradeoff",
    "rates.svd_capacity": "item 5, a rate never exceeds its boosted counterpart",
    # unreached, left for the second half of item 2's deletion
    "channel.sample_faded_transmittances": "item 2, deletion pending",
    "manifold.manifold_exponent": "item 2, deletion pending",
    "manifold.interference_reduced_rate": "item 2, deletion pending",
    "manifold.interference_outage_threshold": "item 2, deletion pending",
    "rates.aggregate_secret_key_bound": "item 2, deletion pending",
    "rates.snr_regime_approximations": "item 2, deletion pending",
    "singular_layer.partition_singulars": "item 2, deletion pending",
    "singular_layer.rank_epsilon": "item 2, deletion pending",
}


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _referenced(node) -> set:
    """The bare and attribute names that ``node`` uses."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def _definitions() -> dict:
    """``module.name`` -> the names every other definition of the package uses."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for name in _defined_names(node):
                defs[f"{path.stem}.{name}"] = node
    return defs


def _traced() -> dict:
    """``perfbench.tracing.TRACED``, imported from its file so that the test
    runs from any working directory."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def unconsumed() -> list:
    defs = _definitions()
    roots = _referenced(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    roots |= set(re.findall(r'"mcqkd\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    traced = {f"{mod}.{fn.split('.')[0]}" for mod, fns in _traced().items() for fn in fns}
    uses = {id(node): _referenced(node) for node in defs.values()}
    missing = []
    for qualname, node in defs.items():
        name = qualname.split(".", 1)[1]
        if name.startswith("__") or qualname in traced or qualname in KEEP or name in roots:
            continue
        if not any(name in uses[id(other)] for other in defs.values() if other is not node):
            missing.append(qualname)
    return missing


def test_every_definition_has_a_consumer():
    assert unconsumed() == []


def test_keep_list_names_only_definitions():
    assert set(KEEP) <= set(_definitions())
