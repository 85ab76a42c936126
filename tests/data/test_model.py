"""Unit tests for the data-graph model and well-formedness rules."""

import contextvars
import time

import pytest

import repro.data.model as data_model
from repro.cancellation import POLL_EVERY, Cancelled, bind
from repro.data import DataGraph, DataGraphError, Edge, GraphBuilder, Node, NodeKind


def paper_example() -> DataGraph:
    """The data graph from Table 1 of the paper."""
    return (
        GraphBuilder()
        .unordered("o1", [("a", "o2"), ("b", "o3")])
        .ordered("o2", [("a", "o4"), ("c", "o5"), ("c", "o6")])
        .atomic("o3", 3.14)
        .atomic("o4", "abc")
        .atomic("o5", 2.71)
        .atomic("o6", 6.12)
        .build()
    )


class TestNode:
    def test_atomic_node(self):
        node = Node("o1", NodeKind.ATOMIC, value="hi")
        assert node.is_atomic
        assert not node.is_referenceable
        assert node.value == "hi"

    def test_referenceable(self):
        assert Node("&o1", NodeKind.ATOMIC, value=1).is_referenceable

    def test_atomic_requires_value(self):
        with pytest.raises(ValueError):
            Node("o1", NodeKind.ATOMIC)

    def test_atomic_rejects_edges(self):
        with pytest.raises(ValueError):
            Node("o1", NodeKind.ATOMIC, value=1, edges=[Edge("a", "o2")])

    def test_collection_rejects_value(self):
        with pytest.raises(ValueError):
            Node("o1", NodeKind.ORDERED, value=1)

    def test_labels_and_targets(self):
        node = Node("o1", NodeKind.ORDERED, edges=[Edge("a", "o2"), Edge("b", "o3")])
        assert node.labels() == ("a", "b")
        assert node.targets() == ("o2", "o3")


class TestDataGraph:
    def test_paper_example_shape(self):
        graph = paper_example()
        assert graph.root == "o1"
        assert len(graph) == 6
        assert graph.edge_count() == 5
        assert graph.labels() == {"a", "b", "c"}
        assert graph.atomic_values() == {3.14, "abc", 2.71, 6.12}
        assert graph.node("o2").is_ordered
        assert graph.node("o1").is_unordered

    def test_duplicate_oid_rejected(self):
        with pytest.raises(DataGraphError):
            DataGraph(
                [
                    Node("o1", NodeKind.ORDERED, edges=[Edge("a", "o2")]),
                    Node("o2", NodeKind.ATOMIC, value=1),
                    Node("o2", NodeKind.ATOMIC, value=2),
                ]
            )

    def test_dangling_edge_rejected(self):
        with pytest.raises(DataGraphError):
            DataGraph([Node("o1", NodeKind.ORDERED, edges=[Edge("a", "missing")])])

    def test_non_referenceable_shared_rejected(self):
        # o3 occurs twice on right-hand sides but is not referenceable.
        with pytest.raises(DataGraphError):
            DataGraph(
                [
                    Node("o1", NodeKind.ORDERED, edges=[Edge("a", "o3"), Edge("b", "o3")]),
                    Node("o3", NodeKind.ATOMIC, value=1),
                ]
            )

    def test_referenceable_shared_allowed(self):
        graph = DataGraph(
            [
                Node("o1", NodeKind.ORDERED, edges=[Edge("a", "&o3"), Edge("b", "&o3")]),
                Node("&o3", NodeKind.ATOMIC, value=1),
            ]
        )
        assert not graph.is_tree()

    def test_root_not_referenced(self):
        with pytest.raises(DataGraphError):
            DataGraph(
                [
                    Node("o1", NodeKind.ORDERED, edges=[Edge("a", "o2")]),
                    Node("o2", NodeKind.ORDERED, edges=[Edge("b", "o1")]),
                ]
            )

    def test_referenceable_root_cycle_allowed(self):
        graph = DataGraph(
            [
                Node("&o1", NodeKind.ORDERED, edges=[Edge("a", "&o2")]),
                Node("&o2", NodeKind.ORDERED, edges=[Edge("b", "&o1")]),
            ]
        )
        assert graph.root == "&o1"
        assert not graph.is_tree()

    def test_unreachable_rejected(self):
        with pytest.raises(DataGraphError):
            DataGraph(
                [
                    Node("o1", NodeKind.ORDERED, edges=[]),
                    Node("&o2", NodeKind.ATOMIC, value=1),
                ]
            )

    def test_empty_graph_rejected(self):
        with pytest.raises(DataGraphError):
            DataGraph([])

    def test_is_tree(self):
        assert paper_example().is_tree()

    def test_reachable_preorder(self):
        graph = paper_example()
        order = graph.reachable_from("o2")
        assert order[0] == "o2"
        assert set(order) == {"o2", "o4", "o5", "o6"}

    def test_equality_and_hash(self):
        assert paper_example() == paper_example()
        assert hash(paper_example()) == hash(paper_example())

    def test_validation_can_be_deferred(self):
        graph = DataGraph(
            [Node("o1", NodeKind.ORDERED, edges=[Edge("a", "missing")])],
            validate=False,
        )
        assert "missing" not in graph


def _wide_graph(n: int):
    """A root with ``n - 1`` atomic children."""
    children = [Node(f"o{i}", NodeKind.ATOMIC, value=i) for i in range(1, n)]
    root = Node("o0", NodeKind.ORDERED, edges=[Edge("a", child.oid) for child in children])
    return [root] + children


class TestDeadlinePolls:
    def _build_under(self, deadline, nodes, validate):
        def run():
            bind(deadline)
            return DataGraph(nodes, validate=validate)

        return contextvars.copy_context().run(run)

    @pytest.mark.parametrize("validate", [False, True])
    def test_building_polls_every_poll_every_nodes(self, monkeypatch, validate):
        """Construction and validation of a 0.9-MB graph took about 75 ms
        with no poll point, so a deadline that fell there overran."""
        polls = []
        real = data_model.raise_if_cancelled
        monkeypatch.setattr(
            data_model,
            "raise_if_cancelled",
            lambda deadline: polls.append(deadline) or real(deadline),
        )
        n = 8 * POLL_EVERY
        deadline = time.monotonic() + 600
        graph = self._build_under(deadline, _wide_graph(n), validate)
        assert len(graph) == n
        assert len(polls) >= (3 if validate else 1) * n // POLL_EVERY
        assert set(polls) == {deadline}

    def test_a_passed_deadline_stops_construction(self):
        with pytest.raises(Cancelled):
            self._build_under(time.monotonic() - 1, _wide_graph(2 * POLL_EVERY), True)
        assert len(DataGraph(_wide_graph(2 * POLL_EVERY))) == 2 * POLL_EVERY
