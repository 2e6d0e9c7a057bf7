"""Every name README.md cites resolves in the package.

Two scans run over the README's inline code spans, fenced blocks left out.
A dotted reference whose head is a strukt module, or a class or function
that a strukt module defines, must resolve attribute by attribute. A span
that opens with a call, `name(...`, must call a name that a strukt module
defines, a builtin or a `math` function.
"""

import builtins
import importlib
import math
import pkgutil
import re
from pathlib import Path

import strukt

README = Path(__file__).parents[1] / "README.md"
MODULES = {
    info.name: importlib.import_module(f"strukt.{info.name}")
    for info in pkgutil.iter_modules(strukt.__path__)
}
DEFINED = {
    name: obj
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if getattr(obj, "__module__", "").startswith("strukt.")
}


def scan(text: str):
    """(references checked, references that do not resolve) in ``text``."""
    checked, bad = [], []
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    for span in spans:
        for chain in re.findall(r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span):
            head, *attrs = chain.split(".")
            obj = MODULES.get(head, DEFINED.get(head))
            if obj is None:
                continue
            checked.append(chain)
            for attr in attrs:
                if not hasattr(obj, attr):
                    bad.append(chain)
                    break
                obj = getattr(obj, attr)
        call = re.match(r"([A-Za-z_]\w*)\(", span)
        if call:
            checked.append(call[0])
            if not any(call[1] in names for names in (DEFINED, vars(builtins), vars(math))):
                bad.append(call[0])
    return checked, bad


def test_the_scan_finds_stale_names():
    text = (
        "`polycore.no_such` `StructureKind.mobius.no_such` `no_such(x) <= 1`\n"
        "`np.foo` `max(1, 2)` `hypot(a, b)` `star(a)` `a no_such(b)`\n"
        "```sh\n`polycore.fenced`\n```\n"
    )
    checked, bad = scan(text)
    assert bad == ["polycore.no_such", "StructureKind.mobius.no_such", "no_such("]
    assert len(checked) == 6


def test_readme_cites_only_names_that_resolve():
    checked, bad = scan(README.read_text())
    assert bad == []
    assert len(checked) >= 30
