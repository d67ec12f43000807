"""Every dvm2d name that README.md puts in backticks exists in the package.

A span counts when it is an identifier, optionally called (`f(n)`), and
either qualified by a dvm2d module or class (`circles.r2_range`,
`KernelSpec.kind`) or unqualified with an underscore (`q_discrete`).
Such a name must be an attribute of a dvm2d module, an attribute of a
class defined in one, or a dataclass field, so a deleted function that
the README still names fails here.  Spans qualified by other modules
(`np.bincount`, `math.fsum`) and file names are not checked.
"""

import dataclasses
import importlib
import inspect
import re
from pathlib import Path

MODULES = {
    name: importlib.import_module(f"dvm2d.{name}")
    for name in ("numtheory", "circles", "collision", "harness", "tables", "cli", "errors")
}
CLASSES = {
    name: obj
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if inspect.isclass(obj) and obj.__module__ == module.__name__
}


def readme_names():
    readme = Path(__file__).parents[1] / "README.md"
    text = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    names = set()
    for span in re.findall(r"`([^`\n]+)`", text):
        match = re.fullmatch(r"([A-Za-z_][\w.]*)(\(.*\))?", span)
        if not match:
            continue
        name = match.group(1)
        head, dot, _ = name.partition(".")
        if (head in {"dvm2d", *MODULES, *CLASSES}) if dot else "_" in name:
            names.add(name)
    return sorted(names)


def has_attribute(obj, name):
    if hasattr(obj, name):
        return True
    return dataclasses.is_dataclass(obj) and name in {f.name for f in dataclasses.fields(obj)}


def resolves(name):
    parts = name.split(".")
    if parts[0] == "dvm2d":
        parts = parts[1:]
    if len(parts) == 1:
        (attr,) = parts
        return attr in MODULES or any(
            has_attribute(obj, attr) for obj in (*MODULES.values(), *CLASSES.values())
        )
    obj = MODULES.get(parts[0]) or CLASSES[parts[0]]
    for attr in parts[1:]:
        if not has_attribute(obj, attr):
            return False
        obj = getattr(obj, attr, None)
    return True


def test_readme_names_resolve():
    names = readme_names()
    assert {"circles.r2_range", "q_discrete", "apply_frame", "riemann_h"} <= set(names)
    assert [name for name in names if not resolves(name)] == []
