"""A catalogue of one-line mutants of ``src/dscluster``, kept as data.

Each entry names the module under ``src/dscluster``, the original line
(without its indentation), the mutant line that replaces it, and either the
pytest node id of a test that fails on the mutant or ``EQUIVALENT``, with
the reason the mutant cannot change any output.  ``tests/test_mutants.py``
requires each original line to occur exactly once in ``src/``, so a change
that moves or rewrites a catalogued line updates its entry too.

Run as a script, it applies each mutant in turn to a fresh copy of ``src``,
``tests`` and ``pyproject.toml`` made under WORKDIR and runs the mutant's
killing test there, printing ``killed`` or ``SURVIVED`` per entry; it exits
non-zero when a mutant survives:

    python tests/mutants.py WORKDIR
"""
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

EQUIVALENT = "equivalent"


class Mutant(NamedTuple):
    module: str
    original: str
    mutant: str
    killed_by: str
    reason: str = ""


MUTANTS = [
    # the byte-lookup decode of the hop kernel's distance planes
    Mutant(
        "graph.py",
        "acc |= _lanes(UNREACHABLE, narrow).take(np.invert(reach[rows]).view(np.uint8), axis=0)",
        "pass",
        "tests/test_graph.py::TestByteLookupDecode::test_disconnected_graphs_from_any_source_set",
    ),
    Mutant(
        "graph.py",
        "acc |= _lanes(1 << digit, narrow).take(plane[rows].view(np.uint8), axis=0)",
        "acc |= _lanes(1 << (digit + 1), narrow).take(plane[rows].view(np.uint8), axis=0)",
        "tests/test_graph.py::TestByteLookupDecode::test_disconnected_graphs_from_any_source_set",
    ),
    # builders that skip NetworkGraph's symmetry scan must mirror every pair
    Mutant(
        "graph.py",
        "adj[v, u] = True",
        "pass",
        "tests/test_graph.py::TestBuiltAdjacencyIsSymmetric::test_build_graph",
    ),
    Mutant(
        "graph.py",
        "adj[u, v] = adj[v, u] = True",
        "adj[u, v] = True",
        "tests/test_graph.py::TestBuiltAdjacencyIsSymmetric::test_graph_from_edges",
    ),
    Mutant(
        "verify.py",
        "hop = hop_distance_table(_symmetric_graph(adj=graph.adj[np.ix_(order, order)]))",
        "hop = hop_distance_table(_symmetric_graph(adj=graph.adj[np.ix_(order, order[::-1])]))",
        "tests/test_graph.py::TestBuiltAdjacencyIsSymmetric::test_cluster_diameter_blocks",
    ),
    # the packed (distance, node) keys of the Euclidean closeness count
    Mutant(
        "metrics.py",
        "slow |= packed[:, 0] < 0",
        "pass",
        "tests/test_metrics.py::TestColumnKernelProperties::test_closeness_in_column_blocks[1]",
    ),
    Mutant(
        "metrics.py",
        "slow = same[:columns].any(axis=1)",
        "slow = np.zeros(columns, dtype=bool)",
        "tests/test_metrics.py::TestClosenessIndices::test_euclidean_column_on_fixture",
    ),
    Mutant(
        "metrics.py",
        "low = (1 << max(n - 1, 1).bit_length()) - 1",
        "low = (1 << max(n - 1, 1).bit_length() - 1) - 1",
        "tests/test_golden.py::test_output_matches_golden[seed2-cluster]",
    ),
]


def apply(mutant: Mutant, source: str) -> str:
    """``source`` with the mutant's one original line replaced, indentation kept."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.original]
    if len(hits) != 1:
        raise ValueError(f"{mutant.module}: {mutant.original!r} occurs {len(hits)} times")
    line = lines[hits[0]]
    lines[hits[0]] = line[:len(line) - len(line.lstrip())] + mutant.mutant + "\n"
    return "".join(lines)


def main(workdir: str) -> int:
    root = Path(__file__).resolve().parents[1]
    survived = 0
    for number, mutant in enumerate(MUTANTS):
        if mutant.killed_by == EQUIVALENT:
            print(f"{number}: equivalent ({mutant.reason})")
            continue
        copy = Path(workdir) / f"mutant-{number}"
        shutil.rmtree(copy, ignore_errors=True)
        for part in ("src", "tests"):
            shutil.copytree(root / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(root / "pyproject.toml", copy)
        target = copy / "src" / "dscluster" / mutant.module
        target.write_text(apply(mutant, target.read_text()))
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                              mutant.killed_by], cwd=copy, capture_output=True, text=True)
        killed = run.returncode == 1  # tests ran and failed; 2-5 are usage or collection errors
        survived += not killed
        print(f"{number}: {'killed' if killed else 'SURVIVED'} ({mutant.module}: "
              f"{mutant.mutant}) by {mutant.killed_by}, pytest exit {run.returncode}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
