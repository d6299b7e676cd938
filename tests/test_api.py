"""The stable surface: public names, CLI subcommands and options, runtime imports.

These change only on purpose; a change here is recorded in CHANGES.md with
its reason.
"""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import cckit
from cckit import cli

PUBLIC_NAMES = [
    "BettiVector", "Cell", "CellMap", "CombinatorialComplex", "CoverCertificate",
    "CoveringViolation", "CyclicLiftParams", "Engine", "Fingerprint", "HompBlock",
    "INFINITE", "IsoResult", "MogParams", "NeighborhoodKind", "NeighborhoodSpec",
    "Orientability", "OrientabilityVerdict", "PairColoring", "PoolStage", "SclBlock",
    "SimpleGraph", "SparseBinaryMatrix", "StripParams", "TorusParams", "Verdict",
    "adjacency", "augmented_hasse_graph", "avg_spd_lens", "betti_gf2",
    "boundary_edge_graph", "boundary_matrices", "build_cc", "cartesian_product",
    "cc_isomorphic", "cell_map_from_node_map", "check_isomorphism", "chordless_cycles",
    "co_adjacency", "complex", "connected_components", "covering", "cross_diameter",
    "cycle_graph", "cycle_lengths", "cyclic_lift", "cylinder", "decode_json",
    "default_smcn_diagram", "diameter", "disjoint_union", "disjoint_union_all",
    "distinguish", "encode_json", "errors", "euler_characteristic", "fiber_sizes",
    "fine_cover_params", "generators", "graph_as_cc", "hasse_graph", "homp_refine",
    "incidence_down", "incidence_up", "invariants", "iso", "lifting", "moebius",
    "mog_example_pair", "mog_pool", "natural_specs", "neighborhood",
    "neighborhood_matrix", "orientability_2d", "refinement", "scl_refine",
    "shortest_paths", "smcn_refine", "star_graph", "strip_covers", "torus",
    "torus_mod_cover", "torus_union_certificate", "triangular_lift", "verify_covering",
]

# subcommand path -> its arguments: option strings, or the dest of a positional
CLI = {
    "": [],
    "gen": [],
    "gen torus": [("--periods",)],
    "gen cylinder": [("--height",), ("--perimeter",)],
    "gen moebius": [("--height",), ("--perimeter",)],
    "gen star": [("--n",), ("--k",)],
    "gen cycle": [("--n",)],
    "gen cycle-product": [("--n",), ("--m",)],
    "gen mog-pair": [("--side",)],
    "lift": [("--method",), ("--max-cycle-len",), ("-i", "--input")],
    "pool": [("--method",), ("--eta",), ("--eps",), ("-i", "--input")],
    "invariants": ["file", ("--spec",), ("--cross-k",), ("--json",)],
    "distinguish": ["a", "b", ("--engine",), ("--rounds",), ("--emit-colors",)],
    "verify-cover": ["file"],
    "check-iso": ["file"],
    "gen-torus-dataset": [
        "min_nodes_pos", "max_nodes_pos", "max_components_pos", ("--min-nodes",),
        ("--max-nodes",), ("--max-components",), ("-o", "--output"), ("--expect-pairs",),
    ],
    "label-lifted": [("--max-cycle-len",), ("-i", "--input"), ("-o", "--output")],
    "run-benchmark": [("--dataset",), ("--engines",), ("--expect",), ("--json",)],
}

SRC = Path(cckit.__file__).resolve().parent


def cli_arguments(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()) -> dict:
    """Every (sub)command of the parser with its arguments, in declaration order."""
    out, args = {}, []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(cli_arguments(sub, path + (name,)))
        elif not isinstance(action, argparse._HelpAction):
            args.append(tuple(action.option_strings) or action.dest)
    out[" ".join(path)] = args
    return out


def test_public_names():
    assert sorted(cckit.__all__) == PUBLIC_NAMES


def test_cli_subcommands_and_options():
    assert cli_arguments(cli.build_parser()) == CLI


def test_runtime_imports_are_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"


def test_engines_leave_numpy_ma_unimported():
    # numpy.ma costs tens of milliseconds to import; np.unique pulls it in
    script = (
        "import sys, cckit\n"
        "from cckit import Engine, cylinder, distinguish, moebius\n"
        "a, b = cylinder((3, 4)), moebius((3, 4))\n"
        "assert distinguish(a, b, Engine.oracle()).distinguished\n"
        "assert distinguish(a, b, Engine.smcn()).distinguished\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"
