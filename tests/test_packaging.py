import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def test_every_script_entry_point_imports():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_benchmark_call_contract(tmp_path):
    """The benchmark wraps trainer.train_step, encoder.forward and
    sampler.eligible_supervoxels by module attribute, sums len() of the
    candidates that eligible_supervoxels returns, calls trainer.train and
    analysis.embed_all positionally, and reloads its final checkpoint through
    encoder.load(path); a change there breaks it without failing its own tests
    here."""
    import numpy as np

    from synself import analysis, encoder, sampler, trainer
    from synself.volume_io import IntensityVolume, SynapseRecord, VolumeHeader

    assert callable(trainer.train_step) and callable(encoder.forward)
    inspect.signature(trainer.train_step).bind("state", "dataset", "cfg")
    inspect.signature(encoder.forward).bind("params", "patches", "cfg")
    inspect.signature(sampler.eligible_supervoxels).bind("dataset", "cfg")
    inspect.signature(trainer.train).bind("cfg", "dataset", "out_dir")
    inspect.signature(analysis.embed_all).bind("ckpt", "vol", "syn", "side")
    inspect.signature(encoder.load).bind("path")

    enc_cfg = encoder.EncoderConfig(patch_side=8, channels=(2, 3), h_dim=5, z_dim=4)
    train_cfg = trainer.TrainConfig(sampler=sampler.SamplerConfig(patch_side=8), encoder=enc_cfg)
    path = tmp_path / "ckpt_final.dckpt"
    trainer.save_train_state(trainer.init_state(train_cfg), train_cfg, path)
    params, loaded_cfg = encoder.load(path)
    state, saved_cfg = trainer.load_train_state(path)
    assert loaded_cfg == saved_cfg.encoder == enc_cfg
    assert list(params) == list(state.params)
    assert all(params[k].tobytes() == state.params[k].tobytes() for k in params)

    vol = IntensityVolume(VolumeHeader((4, 4, 4)), np.zeros((4, 4, 4), np.uint8))
    recs = [SynapseRecord(i, (i, 0, 0), 1 + i // 2) for i in range(4)]
    dataset = sampler.Dataset(vol, recs)
    for cfg in (sampler.SamplerConfig(), sampler.SamplerConfig(max_pair_dist_nm=8.0),
                sampler.SamplerConfig(pair_mode="augment_same")):
        eligible = sampler.eligible_supervoxels(dataset, cfg)
        assert sorted(eligible) == [1, 2]
        assert all(len(v) >= 1 for v in eligible.values())


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(name, node) of each public module-level function, class and constant,
    and of each public method and property of every class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and _public(t.id):
                    yield t.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield item.name, item


def _references(tree: ast.Module):
    """(name, ids of the enclosing definitions) of each name read in the tree."""
    stack: list[int] = []

    def walk(node):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, set(stack)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, set(stack)
        stack.append(id(node))
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
        stack.pop()

    yield from walk(tree)


def test_every_public_name_is_used_outside_the_tests():
    """A public name of synself that no code of synself or perfbench reads is
    surface kept alive by its tests alone; delete it with them."""
    src = sorted((ROOT / "src" / "synself").glob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in src + bench}
    defined = [(name, node, p) for p in src for name, node in _definitions(trees[p])]
    refs: dict[str, list[set[int]]] = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            refs.setdefault(name, []).append(enclosing)
    unused = sorted(
        f"{p.stem}.{name}" for name, node, p in defined
        if not any(id(node) not in enclosing for enclosing in refs.get(name, []))
    )
    assert unused == []


def _unread_by_tests(module: str) -> list[str]:
    """The public functions of tests/<module> that no test_*.py reads, directly
    or through another function of the module."""
    tests = ROOT / "tests"
    tree = ast.parse((tests / module).read_text(encoding="utf-8"))
    bodies = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    used = {
        name
        for p in sorted(tests.glob("test_*.py"))
        for name, _ in _references(ast.parse(p.read_text(encoding="utf-8")))
    }
    todo = sorted(used & set(bodies))
    while todo:
        for name, _ in _references(bodies[todo.pop()]):
            if name in bodies and name not in used:
                used.add(name)
                todo.append(name)
    return sorted(name for name in bodies if _public(name) and name not in used)


def test_every_oracle_is_used_by_a_test():
    """An oracle that no test reads checks nothing; delete it, or write the
    test that compares against it."""
    assert _unread_by_tests("oracles.py") == []


def test_every_helper_is_used_by_a_test():
    """A helper that no test reads is dead test code; delete it."""
    assert _unread_by_tests("helpers.py") == []


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
               and any(k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
                       for k in d.keywords)
               for d in node.decorator_list)


def _checked_configs():
    """(class, its __post_init__ or None) of every frozen dataclass of synself
    named *Config, and of ClassParams and VolumeHeader."""
    for p in sorted((ROOT / "src" / "synself").glob("*.py")):
        for node in ast.parse(p.read_text(encoding="utf-8")).body:
            if (isinstance(node, ast.ClassDef) and _is_frozen_dataclass(node)
                    and (node.name.endswith("Config") or node.name in ("ClassParams", "VolumeHeader"))):
                post_init = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
                yield node, post_init[0] if post_init else None


def test_every_config_checks_its_fields_first():
    """Every checked config starts its __post_init__ with
    volume_io._check_fields(self, ...), so that each field holds its annotated
    type and bounds before any cross-field rule reads it."""
    checked, unchecked = set(), set()
    for node, post_init in _checked_configs():
        first = post_init.body[0] if post_init else None
        calls_check = (isinstance(first, ast.Expr) and isinstance(first.value, ast.Call)
                       and isinstance(first.value.func, ast.Name) and first.value.func.id == "_check_fields"
                       and isinstance(first.value.args[0], ast.Name) and first.value.args[0].id == "self")
        (checked if calls_check else unchecked).add(node.name)
    assert unchecked == set()
    assert checked >= {"EncoderConfig", "TrainConfig", "SamplerConfig", "AugmentConfig", "GenConfig",
                       "ClassParams", "VolumeHeader"}


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_configs_keep_only_cross_field_rules():
    """A single-field range rule is a bound in the field's annotation, such as
    Annotated[int, ">= 1"], and every float field is finite, so no checked
    config's __post_init__ compares a value with a number or reads math
    (math.inf, math.isfinite); what remains compares fields with each other."""
    found = []
    for node, post_init in _checked_configs():
        for n in ast.walk(post_init) if post_init else ():
            if isinstance(n, ast.Compare) and any(map(_is_number, [n.left, *n.comparators])):
                found.append(f"{node.name}: line {n.lineno} compares with a number")
            if isinstance(n, ast.Name) and n.id == "math":
                found.append(f"{node.name}: line {n.lineno} reads math")
    assert found == []


# os.open flags that open a file without writing to it
READ_FLAGS = {"O_RDONLY", "O_DIRECTORY", "O_BINARY", "O_CLOEXEC"}


def _identifiers(node: ast.AST) -> set[str]:
    """Every name, attribute and string constant in the expression."""
    return {n.attr if isinstance(n, ast.Attribute) else n.id if isinstance(n, ast.Name) else n.value
            for n in ast.walk(node)
            if isinstance(n, (ast.Attribute, ast.Name)) or isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _called_name(call: ast.Call) -> str:
    """The name a call calls: f of f(x), and m of obj.m(x)."""
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""


def _writes_a_file(call: ast.Call) -> bool:
    """Whether the call opens a file for writing or writes one: os.open with a
    flag besides READ_FLAGS (or flags it cannot name), open or fdopen with a mode
    other than r, b and t, Path.write_text or write_bytes, np.save* or .tofile."""
    f = call.func
    name = _called_name(call)
    owner = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) else None
    args = call.args + [k.value for k in call.keywords if k.arg in ("flags", "mode")]
    if name in ("write_text", "write_bytes", "tofile") or (owner in ("np", "numpy") and name.startswith("save")):
        return True
    if name == "open" and owner == "os":
        named = {x for a in args[1:] for x in _identifiers(a) if x.startswith("O_")}
        return not named or not named <= READ_FLAGS
    if name in ("open", "fdopen"):
        # the mode follows the file in open, io.open and os.fdopen, and comes first in Path.open
        at = 1 if owner in (None, "io", "os") else 0
        mode = args[at] if len(args) > at else None
        return mode is not None and not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt"))
    return False


def _calls(tree: ast.Module, stem: str, picks):
    """module.function of each call in the tree that ``picks`` selects, named by
    its innermost def and every def and class around that: a method as
    module.Class.method, a nested def as module.outer.inner."""
    def walk(node, where, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = owner = f"{owner}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            owner = f"{owner}.{node.name}"
        if isinstance(node, ast.Call) and picks(node):
            yield where
        for child in ast.iter_child_nodes(node):
            yield from walk(child, where, owner)

    yield from walk(tree, f"{stem}.<module>", stem)


def _callers(picks) -> set[str]:
    """_calls over every module of src/synself."""
    return {where for p in sorted((ROOT / "src" / "synself").glob("*.py"))
            for where in _calls(ast.parse(p.read_text(encoding="utf-8")), p.stem, picks)}


def test_only_atomic_write_writes_files():
    """Every file synself writes goes through volume_io._atomic_write (temp
    file, fsync, rename, directory fsync); no other code may open one for writing."""
    assert _callers(_writes_a_file) == {"volume_io._atomic_write"}


def test_no_array_is_copied_to_bytes():
    """synself writes and hashes an array's own buffer: no code calls .tobytes(),
    which copies the whole array, a volume's voxels included."""
    assert _callers(lambda call: _called_name(call) == "tobytes") == set()


def _imported(tree: ast.Module) -> set[str]:
    """The dotted name of each module, and of each name taken from a module, that the tree imports."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names |= {a.name for a in n.names}
        elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
            names |= {n.module, *(f"{n.module}.{a.name}" for a in n.names)}
    return names


def _under(name: str, modules) -> bool:
    return any(name == m or name.startswith(f"{m}.") for m in modules)


def _calls_os_fork(call: ast.Call) -> bool:
    f = call.func
    return isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "os" and f.attr == "fork"


def test_parallelism_stays_in_the_trainer():
    """synself starts no thread, and only trainer, which spreads a step's chunks
    over the CPUs, may fork a process or share memory with one: no module imports
    threading or concurrent.futures, and none but trainer imports
    multiprocessing or mmap or calls os.fork."""
    found = set()
    for p in sorted((ROOT / "src" / "synself").glob("*.py")):
        for name in _imported(ast.parse(p.read_text(encoding="utf-8"))):
            if _under(name, ("threading", "_thread", "concurrent.futures")) or (
                    p.stem != "trainer" and _under(name, ("multiprocessing", "mmap", "os.fork"))):
                found.add(f"{p.stem} imports {name}")
    found |= {f"{where} calls os.fork" for where in _callers(_calls_os_fork) if not where.startswith("trainer.")}
    assert found == set()


def _starts_a_process(call: ast.Call) -> bool:
    """Whether the call makes or starts a process: a Process or Pool, os.fork,
    forkpty, system or spawn*, a Popen, or any subprocess function."""
    f = call.func
    name = _called_name(call)
    owner = f.value.id if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) else None
    return (name in ("Process", "Pool", "Popen", "fork", "forkpty", "system") or owner == "subprocess"
            or name.startswith(("spawn", "posix_spawn")))


def _maps_memory(call: ast.Call) -> bool:
    return _called_name(call) == "mmap"


def test_one_place_forks_and_one_maps_shared_memory():
    """Every spread goes through trainer's one helper protocol: only
    _Helper.__init__ makes a process, and only _shared_arrays maps the memory
    that processes share, so a new spread cannot bring its own fork loop or
    layout."""
    assert _callers(_starts_a_process) == {"trainer._Helper.__init__"}
    assert _callers(_maps_memory) == {"trainer._shared_arrays"}


def test_one_shared_layout():
    """Only _Shared lays out shared arrays, the parameters, the views and the
    gradient sum of a training step: the results of a spread's parts, z rows
    and embedding rows, come back in their replies."""
    assert _callers(lambda call: _called_name(call) == "_shared_arrays") == {"trainer._Shared.__init__"}


def _calls_the_encoder(call: ast.Call) -> bool:
    f = call.func
    return (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("enc", "encoder")
            and f.attr in ("forward", "project", "backward"))


def test_one_chunk_path_in_the_trainer():
    """Every chunk of a training step runs through _chunk_server's serve,
    whichever part of a spread runs it, this process's own included: no other
    trainer code calls enc.forward, enc.project or enc.backward."""
    assert {w for w in _callers(_calls_the_encoder) if w.startswith("trainer.")} == {"trainer._chunk_server.serve"}


def test_only_training_takes_pool_routes():
    """Only encoder.project, which training alone calls, takes the pools'
    routes, so an embedding does no route work; and numcore has one pool
    backward, which scatters through a route: only maxpool3d_route takes a
    window's argmax, and only maxpool3d_backward scatters through _pool_index."""
    assert _callers(lambda call: _called_name(call) == "maxpool3d_route") == {"encoder.project"}
    in_numcore = {w for w in _callers(lambda call: _called_name(call) == "argmax") if w.startswith("numcore.")}
    assert in_numcore == {"numcore.maxpool3d_route"}
    assert _callers(lambda call: _called_name(call) == "_pool_index") == {"numcore.maxpool3d_backward"}


def _from_volume_io(tree: ast.Module) -> set[str]:
    """The names the tree takes from volume_io, or "volume_io" for the module itself."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            taken = {a.name for a in n.names}
            names |= taken if (n.module or "").rpartition(".")[2] == "volume_io" else taken & {"volume_io"}
        elif isinstance(n, ast.Import):
            names |= {"volume_io" for a in n.names if a.name.rpartition(".")[2] == "volume_io"}
    return names


def test_one_home_for_the_checkpoint_format():
    """The checkpoint format is the trainer's: only trainer.save_train_state
    and trainer.load_train_state lay out tensor records, through _layout and
    _record_header, and encoder, the model alone, touches no file: it takes
    nothing from volume_io but _check_fields, imports neither os nor struct,
    and calls no open."""
    assert {".".join(w.split(".")[:2]) for w in _callers(
        lambda call: _called_name(call) in ("_layout", "_record_header"))} == {
        "trainer.save_train_state", "trainer.load_train_state"}
    tree = ast.parse((ROOT / "src" / "synself" / "encoder.py").read_text(encoding="utf-8"))
    assert _from_volume_io(tree) == {"_check_fields"}
    assert {name for name in _imported(tree) if _under(name, ("os", "struct"))} == set()
    assert list(_calls(tree, "encoder", lambda call: _called_name(call) == "open")) == []


@pytest.mark.parametrize("code, names", [
    ("from .volume_io import _check_fields", {"_check_fields"}),
    ("from synself.volume_io import _atomic_write, _check_fields", {"_atomic_write", "_check_fields"}),
    ("from . import volume_io", {"volume_io"}), ("import synself.volume_io", {"volume_io"}),
    ("from . import numcore as nc", set()), ("from .numcore import SLAB_BYTES", set()),
])
def test_volume_io_import_detector(code, names):
    assert _from_volume_io(ast.parse(code)) == names


@pytest.mark.parametrize("code, starts", [
    ("ctx.Process(target=f)", True), ("mp.Process(target=f)", True), ("Process(target=f)", True),
    ("mp.Pool(2)", True), ("os.fork()", True), ("os.forkpty()", True), ("os.system('ls')", True),
    ("os.spawnv(os.P_WAIT, p, a)", True), ("os.posix_spawn(p, a, env)", True),
    ("subprocess.run(['ls'])", True), ("subprocess.Popen(['ls'])", True), ("Popen(['ls'])", True),
    ("proc.start()", False), ("ctx.Pipe()", False), ("proc.join()", False), ("os.getpid()", False),
])
def test_process_detector(code, starts):
    assert _starts_a_process(ast.parse(code).body[0].value) is starts


@pytest.mark.parametrize("code, maps", [
    ("mmap.mmap(-1, n)", True), ("mmap(-1, n)", True), ("np.memmap(p)", False), ("np.ndarray(s, d, buf)", False),
])
def test_mmap_detector(code, maps):
    assert _maps_memory(ast.parse(code).body[0].value) is maps


def test_calls_names_a_method_by_its_class():
    tree = ast.parse("def f():\n    g()\nclass C:\n    def m(self):\n        g()\n        def inner():\n"
                     "            g()\ng()\n")
    assert sorted(_calls(tree, "mod", lambda call: True)) == ["mod.<module>", "mod.C.m", "mod.C.m.inner", "mod.f"]


@pytest.mark.parametrize("code, calls", [
    ("enc.forward(p, v, c)", True), ("enc.project(p, cache)", True), ("enc.backward(p, cache, d)", True),
    ("encoder.forward(p, v, c)", True), ("enc.init(c)", False), ("enc.views_per_chunk(c)", False),
    ("part.reply()", False), ("forward(p, v, c)", False),
])
def test_encoder_call_detector(code, calls):
    assert _calls_the_encoder(ast.parse(code).body[0].value) is calls


@pytest.mark.parametrize("code, names", [
    ("import threading", {"threading"}), ("import concurrent.futures as cf", {"concurrent.futures"}),
    ("from concurrent import futures", {"concurrent", "concurrent.futures"}),
    ("from multiprocessing.connection import wait", {"multiprocessing.connection", "multiprocessing.connection.wait"}),
    ("from os import fork", {"os", "os.fork"}), ("from . import encoder as enc", set()),
])
def test_import_detector(code, names):
    assert _imported(ast.parse(code)) == names


def _calls_json(call: ast.Call) -> bool:
    f = call.func
    return (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "json"
            and f.attr in ("loads", "load", "dumps", "dump"))


def test_only_the_header_line_codec_calls_json():
    """Every JSON line synself writes or reads goes through volume_io._json_line
    and _parse_json_line, which raises the caller's typed error for any malformed
    line; no other code may call json.loads, json.load, json.dumps or json.dump."""
    assert _callers(_calls_json) == {"volume_io._json_line", "volume_io._parse_json_line"}


@pytest.mark.parametrize("code, writes", [
    ("open(p, 'wb')", True), ("open(p, mode='a')", True), ("open(p, 'r+b')", True), ("open(p, m)", True),
    ("open(p)", False), ("open(p, 'rb')", False), ("io.open(p, 'w')", True), ("os.fdopen(fd, 'wb')", True),
    ("p.open('w')", True), ("p.open()", False), ("p.write_text(s)", True), ("p.write_bytes(b)", True),
    ("np.save(p, a)", True), ("np.savez(p, a=a)", True), ("a.tofile(p)", True), ("enc.save(params, cfg, p)", False),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", True), ("os.open(p, flags)", True),
    ("os.open(p, os.O_RDONLY | getattr(os, 'O_BINARY', 0))", False), ("f.write(b)", False),
])
def test_file_write_detector(code, writes):
    assert _writes_a_file(ast.parse(code).body[0].value) is writes


@pytest.mark.parametrize("code, calls", [
    ("json.loads(s)", True), ("json.load(f)", True), ("json.dumps(o, sort_keys=True)", True),
    ("json.dump(o, f)", True), ("_parse_json_line(line, E, w)", False), ("obj.loads(s)", False),
])
def test_json_call_detector(code, calls):
    assert _calls_json(ast.parse(code).body[0].value) is calls
