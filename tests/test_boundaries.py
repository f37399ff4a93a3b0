"""Module boundaries that the design relies on, checked on the source."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import resfluor
from resfluor.cli import read_trajectory_csv, run
from resfluor.davies import davies_map
from resfluor.events import Event, exact_count, free_channel
from resfluor.guichardet import oracle_davies_map
from resfluor.linalg import ground_state
from resfluor.model import Model, build_model
from resfluor.quadrature import simplex_nodes
from resfluor.trajectories import sample_batch

SRC = Path(resfluor.__file__).resolve().parent
BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
TRACING = BENCHMARK / "tracing.py"
EIGEN_FORM = {"lam", "U", "Uinv", "_diagonalizable"}


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_only_semigroup_reads_the_eigen_form():
    # every other module goes through SemigroupCache.at or .component
    for path in sorted(SRC.glob("*.py")):
        if path.name == "semigroup.py":
            continue
        names = {
            node.attr
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and node.attr in EIGEN_FORM
        }
        assert not names, f"{path.name} reads {sorted(names)}"


def test_only_linalg_calls_expm():
    # superop_exp is the one matrix-exponential routine, and it is numpy only
    modules = set()
    for node in ast.walk(_tree(SRC / "linalg.py")):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not {name for name in modules if name.split(".")[0] == "scipy"}, modules
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = _tree(path)
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
            for alias in node.names
        }
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert "expm" not in imported | attrs, path.name


def test_inside_semigroup_only_component_reads_the_eigen_form():
    # SemigroupCache.__init__ sets lam, U and Uinv; Component alone reads them
    tree = _tree(SRC / "semigroup.py")
    owners = {}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        for fn in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(fn):
                owners[node] = (cls.name, fn.name)
    readers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in {"lam", "U", "Uinv"}:
            owner = owners.get(node, ("<module>", ""))
            if owner == ("SemigroupCache", "__init__") and isinstance(node.ctx, ast.Store):
                continue
            readers.add(owner)
    assert readers and {cls for cls, _ in readers} == {"Component"}, readers


def test_sampler_rounds_build_no_semigroup_matrix():
    # click-free states and survivals are Component reads; only the
    # once-per-batch route check calls SemigroupCache.at, and nothing in the
    # sampler calls superop_exp
    tree = _tree(SRC / "trajectories.py")
    owners = {}
    for fn in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(fn):
            owners[node] = fn.name
    callers = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "at":
            base = node.value
            if (isinstance(base, ast.Attribute) and base.attr == "sg") or (
                isinstance(base, ast.Name) and base.id == "SemigroupCache"
            ):
                callers.add(owners.get(node, "<module>"))
        assert getattr(node, "attr", getattr(node, "id", None)) != "superop_exp"
    assert callers == {"check_routes"}, callers


def test_oracle_shares_no_code_with_the_analytic_pipeline():
    # the kernel oracle must stay an independent second route
    imported = set()
    for node in ast.walk(_tree(SRC / "guichardet.py")):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").lstrip("."))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    for banned in ("davies", "semigroup"):
        assert not any(
            name == banned or name.endswith("." + banned) for name in imported
        ), banned


def test_oracle_takes_only_the_model_container_from_model():
    # importing the analytic jump maps would let the oracle grade itself
    from_model = {
        alias.name
        for node in ast.walk(_tree(SRC / "guichardet.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "model"
        for alias in node.names
    }
    assert from_model == {"Model"}


def test_oracle_reads_only_the_amplitudes_and_decay_operators_of_a_model():
    # the Model holds its generators and jump maps too, so reading m.J_f
    # would let the oracle grade itself without importing anything
    allowed = {"kappa_f", "kappa_s", "z", "V_f", "V_s"}
    tree = _tree(SRC / "guichardet.py")
    models = {
        node.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.arg) and isinstance(node.annotation, ast.Name)
        and node.annotation.id == "Model"
    }
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in models
    }
    assert models == {"m"} and read <= allowed, sorted(read - allowed)
    # nor through another name, or getattr
    others = {f.name for f in dataclasses.fields(Model)} - allowed
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    calls = {node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not attrs & others and "getattr" not in calls, sorted(attrs & others)


def test_closed_form_amplitude_uses_none_of_the_kernels_products():
    # the amplitude-brute-* verify rows compare the closed-form words with
    # integral_sum_kernel, so they must share no arithmetic: no module-level
    # function or class is reachable from both, through helpers of helpers,
    # except the input check on the times
    defs = {
        node.name: node
        for node in _tree(SRC / "guichardet.py").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def reach(*roots):
        seen, todo = set(), list(roots)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(
                    node.id for node in ast.walk(defs[name])
                    if isinstance(node, ast.Name) and node.id in defs
                )
        return seen

    kernel = reach("integral_sum_kernel")
    amplitude = reach("driven_amplitude", "_amplitude_batch")
    assert kernel & amplitude == {"_checked_times"}, sorted(kernel & amplitude)


def test_only_events_cuts_an_event_into_segments():
    # Event.segments() is the one place an event is cut: no other module
    # defines a segmentation or reads a window's start, and the lattice map
    # and the kernel oracle both call it
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "events.py":
            continue
        tree = _tree(path)
        defs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert not [name for name in defs if "segment" in name], path.name
        assert not [node for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr == "a"], path.name
        if any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "segments"
               for node in ast.walk(tree)):
            callers.add(path.name)
    assert {"davies.py", "guichardet.py"} <= callers, callers


def test_only_run_loads_the_config_and_no_subcommand_makes_a_directory():
    # run builds the one config every subcommand gets, and a directory is
    # made only by the writer of a file inside it
    tree = _tree(SRC / "cli.py")
    loaders, mkdirs = set(), set()
    for fn in (node for node in tree.body if isinstance(node, ast.FunctionDef)):
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = node.func
                name = getattr(callee, "id", getattr(callee, "attr", None))
                if name == "_load_config":
                    loaders.add(fn.name)
                if name == "mkdir":
                    mkdirs.add(fn.name)
    assert loaders == {"run"}, loaders
    assert mkdirs and not any(name.startswith("_cmd_") for name in mkdirs), mkdirs


def test_import_and_renewal_battery_load_no_scipy_stats():
    # neither the package import nor the renewal battery loads any SciPy
    # module
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import resfluor, resfluor.cli, resfluor.verify\n"
        "print(' '.join(sys.modules))\n"
        "m = resfluor.build_model(2 ** -0.5, 2 ** -0.5, 1.0)\n"
        "clicks = [np.cumsum(np.random.default_rng(i).exponential(5.0, 3)) for i in range(1200)]\n"
        "rep = resfluor.renewal_test(clicks, m, resfluor.linalg.ground_state(), 100.0)\n"
        "assert not rep.underpowered\n"
        "print(' '.join(sys.modules))\n"
    )
    src = str(SRC.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    imported, after_battery = (set(line.split()) for line in proc.stdout.splitlines())
    assert "resfluor.cli" in imported
    assert "resfluor.renewal" in after_battery
    for loaded in (imported, after_battery):
        assert not {name for name in loaded if name.split(".")[0] == "scipy"}


# Exported names that nothing in src/ or benchmark/ calls, each kept on purpose
REFERENCES = {
    "drive_commutator_form": "the master generator written another way, the tests' algebraic check",
    "no_side_count_map": "Z_t by one expm, the tests' reference for the sampler and the densities",
    "first_click_hazard": "the X_1 density from the generator, checked against z_first",
    "factorized_probability": "a record's density as a product, checked against its word trace",
    "is_completely_positive": "the Choi-matrix test the counting-map tests apply",
    "event_to_json": "the inverse of event_from_json, for writing events files",
}


def test_every_exported_name_has_a_caller_or_a_stated_reference_role():
    # a name the package exports is used by another function in src/ as a
    # bare name (an attribute such as ops.survival(...) calls a method, not a
    # module function of that name), is imported or qualified as
    # resfluor.<name> by the benchmark, or is one of the references above; an
    # exported helper that only tests call fails here
    exported = {
        alias.asname or alias.name
        for node in _tree(SRC / "__init__.py").body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            used.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            visit(_tree(path), frozenset())
    for path in sorted(BENCHMARK.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "resfluor":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "resfluor":
                used.add(node.attr)
    assert sorted(exported - used) == sorted(REFERENCES)


def test_every_traced_target_resolves():
    # the benchmark's traced run wraps these (module, attribute) pairs by
    # name; read from its source, so renaming or deleting one fails here
    tree = _tree(TRACING)
    (targets,) = (
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(name, "id", None) == "TARGETS" for name in node.targets)
    )
    pairs = [tuple(ast.literal_eval(elt.elts[k]) for k in (0, 1)) for elt in targets.elts]
    assert len(pairs) >= 10
    for module, attr in pairs:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)


def test_benchmark_reads_keep_their_shapes(tmp_path):
    """The call signatures and result shapes that ``benchmark/`` reads.

    ``test_every_traced_target_resolves`` checks only that the traced names
    exist; this pins what the workloads, checks and tracer counters take
    from the results, so a ``src/`` change that breaks one fails here and not
    in a benchmark run.  ROADMAP item 6 sheds several of these (``quad_order``
    and ``quad_error`` in ``davies``, ``--threads``, the middle of
    ``simplex_nodes``) in one change to ``src/`` and ``benchmark/``; that
    change updates this test with them.
    """
    m = build_model(2.0 ** -0.5, 2.0 ** -0.5, 1.0)
    event = Event(forward=free_channel(), side=exact_count(0.0, 0.3, 1), horizon=0.3)
    assert davies_map(m, event, n_max=6, quad_order=24).quad_error == 0.0
    assert oracle_davies_map(m, event, n_max=3, quad_order=12).tail_bound > 0.0
    # the tracer's node counter reads the weights as the third item
    result = simplex_nodes(2, 1.0, 5)
    assert len(result) == 3 and result[2].shape == (25,)
    # its click counter takes len() of the batch and of each .records
    batch = sample_batch(m, ground_state(), 5.0, 3, 4, mode="two-channel")
    assert len(batch) == 4
    assert all(isinstance(t, float) and isinstance(c, str) for tr in batch for t, c in tr.records)
    # the workloads append --threads 1 to every subcommand; the row counter
    # sums len() over the reader's items
    cfg = tmp_path / "config.json"
    cfg.write_text('{"n_traj": 20, "horizon": 5.0, "mode": "two-channel"}')
    out = tmp_path / "traj"
    assert run(["trajectories", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    lines = (out / "trajectories.csv").read_text().splitlines()
    side_rows = sum(line.endswith(",side") for line in lines)
    items = read_trajectory_csv(out / "trajectories.csv")
    assert len(items) == 20 and side_rows > 0
    assert sum(len(a) for a in items) == side_rows
