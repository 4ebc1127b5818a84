"""Every function, method and class in `presim` has a caller outside the tests.

A caller is a name or attribute reference in src/, scripts/ or perfbench/
(not perfbench's own tests, and not a string such as the names the
benchmark's tracer wraps). Names are matched, not bindings: a method
shares the references of every function of its name. A class counts as
called when its name is referenced: constructed, subclassed, or named in
an annotation.

And only `records.Record` and the classes in `OWN_MAPPERS` define
`to_dict` or `from_dict`: every other record goes through the one codec.

And every name a module in src/, scripts/ or tests/ imports is referenced
in that module (`__init__.py` re-exports aside).

And every text-mode `open`, `read_text` and `write_text` in src/ names
`encoding="utf-8"`, whatever the locale's encoding.

And every file src/ writes goes through the one writer,
`records.replacing`: `os.replace` is called only inside it, and every
`write_text`, `write_bytes` and write-mode `open` sits inside a `with`
of it.

And every JSON artifact's text comes from `records.json_text`: only it
and the functions in `OWN_JSON_TEXT` call `json.dumps`.

And the elevation map is spelled once: in src/ and scripts/ only
`preprocess.SeaLevelModel` and the functions in `OWN_SCALE_HEIGHT` read
`scale_height`.

And the coherence cutoff has one owner: in src/ only the functions in
`OWN_CUTOFF` read `omega0`, and of them only `whittle.FrequencyPlan`
compares a frequency with it.

And each random stream has one owner: every `substream` call in src/
passes a `STAGE_*` name as its first key, no stage code is the first key
in two functions, and every stage code of `rng` has its owner.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "presim"
CALLER_DIRS = ("src", "scripts", "perfbench")

# name -> why it stays without a reference in src/, scripts/ or perfbench/
ALLOWED = {}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_function_has_a_caller_outside_the_tests():
    defs = {}  # name -> [(file, first line, last line)]
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))

    referenced = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if path.name.startswith("test_"):  # perfbench's own tests are not callers
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                # a use inside a def of the same name (recursion) is not a caller
                if name in defs and not any(
                    path == f and lo <= node.lineno <= hi for f, lo, hi in defs[name]
                ):
                    referenced.add(name)

    unused = sorted(
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, places in defs.items()
        if name not in referenced and name not in ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
        for path, line, _ in places
    )
    assert not unused, "no caller in src/, scripts/ or perfbench/:\n" + "\n".join(unused)
    assert set(ALLOWED) <= set(defs), "allowlisted names that no longer exist"


# class -> why it keeps a JSON mapper of its own instead of `records.Record`'s
OWN_MAPPERS = {"Record": "the codec itself"}


def test_only_the_codec_and_listed_classes_map_records_to_json():
    own = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        owner = {id(item): node.name for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        own += [
            f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in ("to_dict", "from_dict") and owner.get(id(node)) not in OWN_MAPPERS
        ]
    assert not own, "define a record's JSON through records.Record:\n" + "\n".join(own)


def test_every_import_is_referenced():
    unused = []
    for d in ("src", "scripts", "tests"):
        for path in sorted((ROOT / d).rglob("*.py")):
            if path.name == "__init__.py":  # re-exports
                continue
            tree = _parse(path)
            imported = {}  # bound name -> line
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update({a.asname or a.name.split(".")[0]: node.lineno
                                     for a in node.names})
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update({a.asname or a.name: node.lineno for a in node.names})
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                       for name, line in imported.items() if name not in used]
    assert not unused, "imported and never referenced:\n" + "\n".join(sorted(unused))


def _called(call: ast.Call):
    """The name a call calls: `f` of `f(...)` and of `x.f(...)`."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _modes(call: ast.Call) -> list:
    """The mode arguments, positional or named, of an `open` call."""
    position = 1 if isinstance(call.func, ast.Name) else 0  # open(file, mode), Path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    return modes + call.args[position : position + 1]


def _text_mode(call: ast.Call) -> bool:
    """Whether an `open` call opens text: its mode has no "b"."""
    return not any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in _modes(call))


def _write_mode(call: ast.Call) -> bool:
    """Whether an `open` call opens for writing: its mode has "w", "a", "x" or "+"."""
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
               for m in _modes(call))


def test_every_text_file_is_opened_as_utf8():
    # the inputs ingest reads are UTF-8, and so is every file presim writes
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, ast.Call):
                continue
            name = _called(node)
            if name in ("read_text", "write_text") or (name == "open" and _text_mode(node)):
                encoding = [kw.value for kw in node.keywords if kw.arg == "encoding"]
                if not (encoding and isinstance(encoding[0], ast.Constant)
                        and encoding[0].value == "utf-8"):
                    unnamed.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unnamed, 'text I/O without encoding="utf-8":\n' + "\n".join(unnamed)


def test_every_file_is_written_through_the_one_writer():
    # a file written in place is left half written by a failure, beside
    # files that no longer match it: each write goes to a partial of
    # `records.replacing`, which alone puts files in place
    stray, writers = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        in_writer, in_with = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "replacing":
                writers.append(path.name)
                in_writer |= {id(n) for n in ast.walk(node)}
            elif isinstance(node, ast.With) and any(
                isinstance(item.context_expr, ast.Call) and _called(item.context_expr) == "replacing"
                for item in node.items
            ):
                in_with |= {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called(node)
            func = node.func
            if (name == "replace" and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and func.value.id == "os"):
                if id(node) not in in_writer:
                    stray.append(f"{path.relative_to(ROOT)}:{node.lineno} os.replace")
            elif name in ("write_text", "write_bytes") or (name == "open" and _write_mode(node)):
                if id(node) not in in_with:
                    stray.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert writers == ["records.py"]
    assert not stray, "write through records.replacing:\n" + "\n".join(stray)


# function -> why it calls json.dumps itself instead of `records.json_text`
OWN_JSON_TEXT = {
    "records.json_text": "the artifact text format itself",
    "whittle.FitResult.to_json": "the fit_hash input, in field order and unsorted, "
                                 "which a pinned hash fixes",
    "cli._parsed_observations": "the observations.npz cache index, a string inside the "
                                "cache's arrays and no artifact's text",
}


def _scopes(path: Path, tree: ast.Module) -> dict:
    """node id -> qualified name of the module-level def or method the node is in."""
    scope = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{item.name}", item) for item in node.body
                    if isinstance(item, ast.FunctionDef)]
        else:
            defs = [(node.name, node)] if isinstance(node, ast.FunctionDef) else []
        for name, d in defs:
            scope.update({id(n): f"{path.stem}.{name}" for n in ast.walk(d)})
    return scope


def test_only_the_artifact_text_format_calls_json_dumps():
    # one sorted, indented text for every JSON artifact, spelled once
    own, callers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        scope = _scopes(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called(node) == "dumps":
                name = scope.get(id(node), f"{path.stem}.<module>")
                callers.add(name)
                if name not in OWN_JSON_TEXT:
                    own.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not own, "write a JSON artifact's text with records.json_text:\n" + "\n".join(own)
    assert set(OWN_JSON_TEXT) <= callers, "listed functions that no longer call json.dumps"


# function -> why it reads `scale_height` itself instead of `SeaLevelModel.ratio`
OWN_SCALE_HEIGHT = {
    "synth.default_stack": "the truth's site means put their scatter inside the exponent, "
                           "and their bits fix the synthetic inputs' inputs_sha256",
}


def test_only_the_sea_level_model_reads_scale_height():
    # p(a) exp(a/H) is one decision: every move between elevations goes
    # through SeaLevelModel.ratio, so no two spellings can round apart
    own, readers = [], set()
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").rglob("*.py")]):
        tree = _parse(path)
        scope = _scopes(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "scale_height":
                name = scope.get(id(node), f"{path.stem}.<module>")
                readers.add(name)
                if not (name in OWN_SCALE_HEIGHT or name.startswith("preprocess.SeaLevelModel.")):
                    own.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not own, "move between elevations with SeaLevelModel.ratio:\n" + "\n".join(sorted(own))
    assert set(OWN_SCALE_HEIGHT) <= readers, "listed functions that no longer read scale_height"


# function -> why it reads `omega0`
OWN_CUTOFF = {
    "whittle.FrequencyPlan.__init__": "the one split of the frequencies into the low "
                                      "(coherent) and high (diagonal) bands",
    "spectrum.KnotSet.__post_init__": "the knot set's own checks: the coherence knots end "
                                      "at omega0, which lies in (0, pi]",
    "synth.default_true_params": "the shapes of the truth's delta, beta and theta curves "
                                 "over [0, omega0]",
}


def test_only_the_frequency_plan_reads_the_cutoff():
    # which frequency is coherent is one decision: FrequencyPlan splits the
    # bands, so no second comparison with its own tolerance can disagree
    # with the plan at a row that lies within rounding of omega0
    own, readers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        scope = _scopes(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "omega0":
                name = scope.get(id(node), f"{path.stem}.<module>")
                readers.add(name)
                if name not in OWN_CUTOFF:
                    own.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not own, "split the bands with whittle.FrequencyPlan:\n" + "\n".join(sorted(own))
    assert set(OWN_CUTOFF) <= readers, "listed functions that no longer read omega0"


def _stream_owners(modules) -> tuple:
    """(faults, {stage name: owner functions}) of the `substream` calls in
    (path, tree) pairs.

    A fault is a call whose first key is no `STAGE_*` name, or a stage
    name that is the first key in the calls of two functions.
    """
    faults, owners = [], {}
    for path, tree in modules:
        scope = _scopes(path, tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _called(node) == "substream"):
                continue
            name = scope.get(id(node), f"{path.stem}.<module>")
            first = node.args[1] if len(node.args) > 1 else None
            if isinstance(first, ast.Name) and first.id.startswith("STAGE_"):
                owners.setdefault(first.id, set()).add(name)
            else:
                faults.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}: "
                              "the first key is no STAGE_* name")
    faults += [f"{stage} is the first key in {', '.join(sorted(names))}"
               for stage, names in sorted(owners.items()) if len(names) > 1]
    return faults, owners


def _package_trees() -> list:
    return [(path, _parse(path)) for path in sorted(PACKAGE.glob("*.py"))]


def test_each_random_stream_has_one_owner():
    # the function that makes a generator names its stream: two functions
    # under one stage code could draw the same numbers
    faults, owners = _stream_owners(_package_trees())
    assert not faults, "one owner per random stream:\n" + "\n".join(faults)
    stages = {target.id for node in _parse(PACKAGE / "rng.py").body
              if isinstance(node, ast.Assign) for target in node.targets
              if target.id.startswith("STAGE_")}
    assert set(owners) == stages, "stage codes without an owner"


def test_stream_owner_rule_fails_on_a_planted_second_owner():
    # leave-one-out members drawn under the ensemble's own stage code, and
    # a key that names no stage
    planted = ast.parse("def leave_one_out(seed, k):\n"
                        "    return substream(seed, STAGE_CONDSIM, k)\n"
                        "def unnamed(seed):\n"
                        "    return substream(seed, 2, 0)\n")
    faults, _ = _stream_owners(_package_trees() + [(PACKAGE / "verify.py", planted)])
    assert faults == [
        "src/presim/verify.py:4 verify.unnamed: the first key is no STAGE_* name",
        "STAGE_CONDSIM is the first key in condsim.run_ensemble, verify.leave_one_out",
    ]
