"""Threshold-tree serialization: JSON objects and Graphviz DOT text.

JSON schema: top level {"k": int, "tree": node}; internal node
{"dim": int, "theta": number, "left": node, "right": node}; leaf
{"leaf": label}, each label on one leaf only.
"""
from __future__ import annotations

from .core import Cut
from .tree import Internal, Leaf, ThresholdTree, TreeNode


def tree_to_json_obj(tree: ThresholdTree) -> dict:
    def encode(node: TreeNode) -> dict:
        if isinstance(node, Leaf):
            return {"leaf": node.label}
        return {
            "dim": node.cut.dim,
            "theta": node.cut.theta,
            "left": encode(node.left),
            "right": encode(node.right),
        }

    return {"k": tree.leaf_count, "tree": encode(tree.root)}


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

    def decode(node: object) -> TreeNode:
        if not isinstance(node, dict):
            raise ValueError("tree node must be a JSON object")
        if "leaf" in node:
            label = _number(node, "leaf", int)
            if label in labels:
                raise ValueError(f"leaf label {label} appears more than once")
            labels.add(label)
            return Leaf(label)
        missing = [f for f in ("dim", "theta", "left", "right") if f not in node]
        if missing:
            raise ValueError(f"internal node missing field {missing[0]!r}")
        cut = Cut(_number(node, "dim", int), _number(node, "theta", float))
        return Internal(cut, decode(node["left"]), decode(node["right"]))

    tree = ThresholdTree(decode(obj["tree"]))
    if tree.leaf_count != _number(obj, "k", int):
        raise ValueError("leaf count does not match declared k")
    return tree


def tree_to_dot(tree: ThresholdTree, sizes: dict[int, int] | None = None) -> str:
    """DOT text; internal nodes read "x[dim] <= theta" with θ in full
    (``repr``), leaves show the cluster id and, when sizes are given, the
    cluster size."""
    lines = ["digraph tree {", "  node [shape=box];"]
    counter = [0]

    def walk(node: TreeNode) -> int:
        my_id = counter[0]
        counter[0] += 1
        if isinstance(node, Leaf):
            size = "" if sizes is None else f"\\nsize={sizes.get(node.label, 0)}"
            lines.append(f'  n{my_id} [label="cluster {node.label}{size}", shape=ellipse];')
            return my_id
        lines.append(f'  n{my_id} [label="x[{node.cut.dim}] <= {node.cut.theta!r}"];')
        left_id = walk(node.left)
        right_id = walk(node.right)
        lines.append(f'  n{my_id} -> n{left_id} [label="yes"];')
        lines.append(f'  n{my_id} -> n{right_id} [label="no"];')
        return my_id

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"
