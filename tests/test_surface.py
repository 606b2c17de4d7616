"""No dead library surface: every top-level function, class and constant of
``src/tqual``, and every method of its classes, is read by some code in
``src/``, or it is listed below with the reason it is kept.

A name counts as read when any module loads it as a name or as an attribute
(``x.name``); an import, an ``__all__`` entry or a definition is not a read.
The check goes by name, not by owner, so a method is read when an attribute
of that name is read anywhere.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tqual

SRC = Path(tqual.__file__).resolve().parent

# Unread names that stay, as "module:name" or "module:Class.method".
KEPT = {
    "parser.py:check_syntax": "a documented contract: the soundness floor of correct_syntax",
    "rewards.py:NEGATIVE_PROPERTIES": "exported beside POSITIVE_PROPERTIES in rewards.__all__",
    "rewards.py:RewardScheme.individual": "library constructor of a one-property scheme",
    "rewards.py:RewardScheme.combined": "library constructor of a many-property scheme",
    "rlcore/math.py:clipped_surrogate": "scalar reference of acceptance criterion 8",
    "rlcore/math.py:clipped_surrogate_grad":
        "scalar reference of criterion 8 and of the PPO pass's differential test; "
        "perfbench/tracing.py patches trainer's binding",
    "rlcore/math.py:kl_divergence": "scalar reference of acceptance criterion 8",
    "rlcore/policy.py:PolicyTable.kl_from_reference":
        "perfbench/tracing.py patches it, and it is the row reference of kl_table",
    "rlcore/reward_model.py:train_reward_model": "the reward-model stage, to be wired in",
    "rlcore/trainer.py:make_model_reward": "the reward-model stage, to be wired in",
}


def definitions(tree: ast.Module, module: str) -> dict[str, str]:
    """``module:qualified name`` to the bare name, for each top-level
    definition and method, leaving out dunder names."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                found.update((f"{module}:{node.name}.{item.name}", item.name)
                             for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("__"))
        else:
            continue
        found.update((f"{module}:{name}", name) for name in names
                     if not name.startswith("__"))
    return found


def test_every_unread_name_is_kept_for_a_stated_reason():
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(definitions(tree, path.relative_to(SRC).as_posix()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = {key for key, name in defined.items() if name not in read}
    assert unread == set(KEPT)
    assert all(reason.strip() for reason in KEPT.values())
