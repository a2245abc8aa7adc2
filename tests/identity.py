"""Byte identity of every subcommand's output, as a manifest of digests.

    python tests/identity.py --write m.json [CONFIGS.json ...]
    python tests/identity.py --compare a.json b.json

``--write`` runs all five subcommands in-process through ``cli.main`` on
each config, ``pulse-stats`` on that config's ``evolve`` CSV, and writes the
manifest: for each config and subcommand, the exit code, the sha256 of
stderr, and the sha256 of every file the subcommand wrote.  The
``pulse-stats`` JSON is digested without ``source`` and the ``validate``
report without ``elapsed_s``.  The ``validate`` row also holds the oracle
digest: the sha256 of the bits of every ``integrate_characteristic``
result, ``float.hex`` of its real and imaginary parts, or the type name of
what it raised, so an oracle value that moves shows even where the report
rounds it away.  Every run is in one fixed work directory, since stderr
names paths.  A CONFIGS.json maps a name to a config dict;
without one the configs are ``configs/*.json``, by file stem, and
``tests/data/bench_configs.json``.

``--compare`` prints each row that differs between two manifests and exits
1 if any does.

The digests hold for one machine only: numpy's complex multiply can fuse a
multiply-add, depending on the CPU.  So compare two checkouts on one machine
rather than against a stored manifest.  To compare a change with its
parent, run this script on each checkout's package:

    git worktree add ../parent HEAD^
    PYTHONPATH=../parent/src python tests/identity.py --write parent.json
    PYTHONPATH=src python tests/identity.py --write change.json
    python tests/identity.py --compare parent.json change.json
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
#: The fixed work directory of ``--write``.
WORK = Path(tempfile.gettempdir()) / "dressedprobe-identity"
#: Each subcommand's output file, and the key its JSON is digested without.
COMMANDS = {
    "sweep-frequency": ("sweep-frequency.csv", None),
    "evolve": ("evolve.csv", None),
    "dispersion-scan": ("dispersion-scan.csv", None),
    "pulse-stats": ("pulse-stats.json", "source"),
    "validate": ("validate.json", "elapsed_s"),
}


def default_configs() -> dict:
    """The shipped configs by file stem, then the frozen bench configs."""
    shipped = {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "configs").glob("*.json"))
    }
    frozen = REPO / "tests" / "data" / "bench_configs.json"
    return shipped | json.loads(frozen.read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(path: Path, drop: str | None) -> str:
    """sha256 of the file, of its JSON without the key ``drop`` if given."""
    if drop is None:
        return _sha256(path.read_bytes())
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop(drop, None)
    return _sha256(json.dumps(payload, sort_keys=True).encode())


@contextlib.contextmanager
def recorded_oracle():
    """Yield a list that gets one entry per ``integrate_characteristic``
    call: the ``float.hex`` of its result's real and imaginary parts, or the
    type name of what it raised.  The function is wrapped in every
    ``dressedprobe`` namespace that binds it, and restored on exit."""
    from dressedprobe import characteristics

    original = characteristics.integrate_characteristic
    bits = []

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        try:
            value = original(*args, **kwargs)
        except Exception as exc:
            bits.append(type(exc).__name__)
            raise
        bits.append(f"{float(value.real).hex()} {float(value.imag).hex()}")
        return value

    patches = [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name == "dressedprobe" or name.startswith("dressedprobe.")
        for attr, value in vars(module).items()
        if value is original
    ]
    for module, attr in patches:
        setattr(module, attr, recorded)
    try:
        yield bits
    finally:
        for module, attr in patches:
            setattr(module, attr, original)


def run_config(config: dict, work: Path) -> dict:
    """The manifest rows of ``config``, one per subcommand, run in ``work``."""
    from dressedprobe import cli

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rows = {}
    for command, (out, drop) in COMMANDS.items():
        before = set(work.iterdir())
        argv = [command, "--config", config_path, "--out", work / out]
        if command == "pulse-stats":
            argv += ["--series", work / COMMANDS["evolve"][0]]
        stderr = io.StringIO()
        oracle = recorded_oracle() if command == "validate" else contextlib.nullcontext()
        with oracle as bits, contextlib.redirect_stderr(stderr):
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([str(arg) for arg in argv])
            except Exception as exc:  # a crash is a row too, not an abort
                code = type(exc).__name__
                print(exc, file=sys.stderr)
        rows[command] = {
            "exit": code,
            "stderr": _sha256(stderr.getvalue().encode()),
            "outputs": {
                path.name: _digest(path, drop if path.name == out else None)
                for path in sorted(set(work.iterdir()) - before)
            },
        }
        if bits is not None:
            rows[command]["oracle"] = _sha256("\n".join(bits).encode())
    return rows


def write_manifest(configs: dict, work: Path = WORK) -> dict:
    """Every config's rows, keyed ``<config>/<subcommand>``; ``work`` is
    removed after the last."""
    manifest = {
        f"{name}/{command}": row
        for name, config in configs.items()
        for command, row in run_config(config, work).items()
    }
    shutil.rmtree(work)
    return manifest


def compare(a: dict, b: dict) -> list[str]:
    """One line per row that is missing from a manifest or differs."""
    return [
        f"{key}: {a.get(key)} != {b.get(key)}"
        for key in sorted(a.keys() | b.keys())
        if a.get(key) != b.get(key)
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", metavar="MANIFEST")
    action.add_argument("--compare", nargs=2, metavar="MANIFEST")
    parser.add_argument("configs", nargs="*", metavar="CONFIGS.json")
    args = parser.parse_args(argv)
    if args.compare:
        if args.configs:
            parser.error("--compare takes no CONFIGS.json")
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"{len(a)} rows identical")
        return 1 if lines else 0
    configs = {}
    for path in args.configs:
        configs |= json.loads(Path(path).read_text(encoding="utf-8"))
    manifest = write_manifest(configs or default_configs())
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    Path(args.write).write_text(text, encoding="utf-8")
    import dressedprobe

    print(f"wrote {len(manifest)} rows of {dressedprobe.__file__} to {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
