"""The README stays true to the code: every `<module>.<name>` it writes for
an ordchange module names an attribute that module has."""

import importlib
import pathlib
import pkgutil
import re

import ordchange

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_names() -> set[str]:
    modules = "|".join(m.name for m in pkgutil.iter_modules(ordchange.__path__))
    return set(re.findall(rf"`((?:{modules})\.\w+)", README.read_text(encoding="utf-8")))


def test_every_name_the_readme_gives_resolves():
    names = readme_names()
    assert len(names) > 20, sorted(names)  # the pattern still finds the library notes' names
    missing = []
    for name in sorted(names):
        module, attr = name.split(".")
        if not hasattr(importlib.import_module(f"ordchange.{module}"), attr):
            missing.append(name)
    assert not missing, f"README names objects that do not exist: {missing}"
