"""README.md names the method's constants as `module.NAME`; each must exist."""

import importlib
import importlib.util
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# a dotted lower-case module path, then one UPPER_CASE attribute
CONSTANT = re.compile(r"\b([a-z_][a-z0-9_]*(?:\.[a-z_][a-z0-9_]*)*)\.([A-Z][A-Z0-9_]*)\b")


def package_module(path: str) -> str | None:
    """``attntrack.<path>`` when that is a module of the package."""
    name = f"attntrack.{path}"
    try:
        return name if importlib.util.find_spec(name) is not None else None
    except ModuleNotFoundError:
        return None


def named_constants(text: str) -> list[tuple[str, str]]:
    """(module, NAME) for every `module.NAME` in a backticked span of
    ``text`` whose module is one of the package's."""
    found = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for path, name in CONSTANT.findall(span):
            module = package_module(path)
            if module is not None:
                found.append((module, name))
    return found


def test_finds_only_package_modules():
    text = ("`online.KERNEL` = 4, `pipeline.tracker.FFN_EXPANSION / 2`, "
            "`np.PINF`, `nosuch.NAME`, `localize.stride`, online.RIDGE")
    assert named_constants(text) == [("attntrack.online", "KERNEL"),
                                     ("attntrack.pipeline.tracker",
                                      "FFN_EXPANSION")]


def test_every_named_constant_exists():
    constants = named_constants(README.read_text(encoding="utf-8"))
    assert constants
    missing = sorted({f"{module}.{name}" for module, name in constants
                      if not hasattr(importlib.import_module(module), name)})
    assert not missing, f"README.md names constants that do not exist: {missing}"
