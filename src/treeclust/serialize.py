"""Threshold-tree serialization: JSON objects and Graphviz DOT text.

JSON schema: top level {"k": int, "tree": node}; internal node
{"dim": int, "theta": number, "left": node, "right": node}; leaf
{"leaf": label}.
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


def tree_from_json_obj(obj: dict) -> ThresholdTree:
    if not isinstance(obj, dict) or "tree" not in obj or "k" not in obj:
        raise ValueError('tree JSON must be {"k": int, "tree": node}')

    def decode(node: object) -> TreeNode:
        if not isinstance(node, dict):
            raise ValueError("tree node must be a JSON object")
        if "leaf" in node:
            return Leaf(int(node["leaf"]))
        try:
            cut = Cut(int(node["dim"]), float(node["theta"]))
            return Internal(cut, decode(node["left"]), decode(node["right"]))
        except KeyError as exc:
            raise ValueError(f"internal node missing field {exc}") from exc

    tree = ThresholdTree(decode(obj["tree"]))
    if tree.leaf_count != int(obj["k"]):
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
