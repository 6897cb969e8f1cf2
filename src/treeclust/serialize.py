"""Threshold-tree serialization: JSON objects and Graphviz DOT text.

JSON schema: top level {"k": int, "tree": node}; internal node
{"dim": int, "theta": number, "left": node, "right": node}; leaf
{"leaf": label}, each label on one leaf only.
"""
from __future__ import annotations

from .core import Cut
from .tree import Internal, Leaf, ThresholdTree, TreeNode, _walk


def tree_to_json_obj(tree: ThresholdTree) -> dict:
    done: list[dict] = []  # the encoded subtrees not yet joined to a parent
    for node, enter in _walk(tree.root):
        if isinstance(node, Leaf):
            done.append({"leaf": node.label})
        elif not enter:
            left, right = done[-2:]
            done[-2:] = [{"dim": node.cut.dim, "theta": node.cut.theta, "left": left, "right": right}]
    return {"k": tree.leaf_count, "tree": done[0]}


def _number(node: dict, field: str, kind: type) -> int | float:
    """``node[field]`` as an int or a float; null, a boolean, a list or (for
    an int) a fraction or a string is malformed, never truncated."""
    value = node[field]
    try:
        # bool is an int subclass: int(True) == True would pass as 1
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and number != value):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{field} must be {what}, got {value!r}")
    return number


def tree_from_json_obj(obj: dict) -> ThresholdTree:
    if not isinstance(obj, dict) or "tree" not in obj or "k" not in obj:
        raise ValueError('tree JSON must be {"k": int, "tree": node}')

    labels: set[int] = set()
    done: list[TreeNode] = []  # the decoded subtrees not yet joined to a parent
    # (node, None) decodes a JSON node; (None, cut) joins the last two subtrees
    todo: list[tuple[object, Cut | None]] = [(obj["tree"], None)]
    while todo:
        node, cut = todo.pop()
        if cut is not None:
            done[-2:] = [Internal(cut, *done[-2:])]
        elif not isinstance(node, dict):
            raise ValueError("tree node must be a JSON object")
        elif "leaf" in node:
            label = _number(node, "leaf", int)
            if label in labels:
                raise ValueError(f"leaf label {label} appears more than once")
            labels.add(label)
            done.append(Leaf(label))
        else:
            missing = [f for f in ("dim", "theta", "left", "right") if f not in node]
            if missing:
                raise ValueError(f"internal node missing field {missing[0]!r}")
            cut = Cut(_number(node, "dim", int), _number(node, "theta", float))
            todo += ((None, cut), (node["right"], None), (node["left"], None))
    if len(labels) != _number(obj, "k", int):
        raise ValueError("leaf count does not match declared k")
    return ThresholdTree(done[0])


def tree_to_dot(tree: ThresholdTree, sizes: dict[int, int] | None = None) -> str:
    """DOT text; internal nodes read "x[dim] <= theta" with θ in full
    (``repr``), leaves show the cluster id and, when sizes are given, the
    cluster size."""
    lines = ["digraph tree {", "  node [shape=box];"]
    ids: list[int] = []  # preorder ids of the nodes not yet joined to a parent
    new_id = 0
    for node, enter in _walk(tree.root):
        if not enter:
            right_id, left_id = ids.pop(), ids.pop()
            lines.append(f'  n{ids[-1]} -> n{left_id} [label="yes"];')
            lines.append(f'  n{ids[-1]} -> n{right_id} [label="no"];')
            continue
        if isinstance(node, Leaf):
            size = "" if sizes is None else f"\\nsize={sizes.get(node.label, 0)}"
            lines.append(f'  n{new_id} [label="cluster {node.label}{size}", shape=ellipse];')
        else:
            lines.append(f'  n{new_id} [label="x[{node.cut.dim}] <= {node.cut.theta!r}"];')
        ids.append(new_id)
        new_id += 1
    lines.append("}")
    return "\n".join(lines) + "\n"
