"""Tests for the tensor substrate: graphs, kernels, optimizer, sessions."""

import numpy as np
import pytest

from benchmarks.simulated_gpu import (
    GPUSession,
    SimulatedGPU,
    estimate_cost,
    lower_tree_ensembles,
)
from repro.errors import GraphValidationError, TensorError, UnsupportedOpError
from repro.tensor import Graph, InferenceSession, Node, convert
from repro.tensor import serialize
from repro.tensor.converters import gemm_node_count
from repro.tensor.ops import kernel_for
from repro.tensor.optimizer import (
    constant_fold,
    eliminate_dead_code,
    eliminate_identities,
    fuse_matmul_add,
    optimize,
)


def linear_graph():
    """X @ W + b with W, b constant."""
    graph = Graph(inputs=["X"], outputs=["y"])
    graph.add_initializer("W", np.array([[2.0], [3.0]]))
    graph.add_initializer("b", np.array([[1.0]]))
    graph.add_node("MatMul", ["X", "W"], ["xw"])
    graph.add_node("Add", ["xw", "b"], ["y"])
    return graph


class TestGraphStructure:
    def test_validate_ok(self):
        linear_graph().validate()

    def test_undefined_input_rejected(self):
        graph = Graph(inputs=["X"], outputs=["y"])
        graph.add_node("Relu", ["ghost"], ["y"])
        with pytest.raises(GraphValidationError):
            graph.validate()

    def test_duplicate_producer_rejected(self):
        graph = Graph(inputs=["X"], outputs=["y"])
        graph.add_node("Relu", ["X"], ["y"])
        graph.add_node("Tanh", ["X"], ["y"])
        with pytest.raises(GraphValidationError):
            graph.validate()

    def test_cycle_rejected(self):
        graph = Graph(inputs=["X"], outputs=["a"])
        graph.nodes.append(Node("Add", ["X", "b"], ["a"]))
        graph.nodes.append(Node("Relu", ["a"], ["b"]))
        with pytest.raises(GraphValidationError):
            graph.topological_order()

    def test_topological_order(self):
        graph = linear_graph()
        order = [n.op_type for n in graph.topological_order()]
        assert order == ["MatMul", "Add"]

    def test_fresh_names_unique(self):
        graph = linear_graph()
        names = {graph.fresh_name() for _ in range(10)}
        assert len(names) == 10


class TestKernels:
    def test_gemm_transpose_and_alpha(self):
        gemm = kernel_for("Gemm")
        a = np.array([[1.0, 2.0]])
        b = np.array([[3.0], [4.0]])
        out = gemm([a, b], {})[0]
        assert out.tolist() == [[11.0]]
        out2 = gemm([a.T, b, np.zeros((1, 1))], {"transA": True, "alpha": 2.0})[0]
        assert out2.tolist() == [[22.0]]

    def test_elementwise_and_comparisons(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert kernel_for("Relu")([x], {})[0].tolist() == [0.0, 0.0, 2.0]
        assert kernel_for("Sigmoid")([np.zeros(1)], {})[0][0] == 0.5
        assert kernel_for("LessOrEqual")([x, np.zeros(3)], {})[0].tolist() == [
            True,
            True,
            False,
        ]
        assert kernel_for("Where")(
            [np.array([True, False]), np.ones(2), np.zeros(2)], {}
        )[0].tolist() == [1.0, 0.0]

    def test_shape_ops(self):
        x = np.arange(6.0).reshape(2, 3)
        assert kernel_for("Reshape")([x], {"shape": [3, 2]})[0].shape == (3, 2)
        assert kernel_for("Transpose")([x], {})[0].shape == (3, 2)
        assert kernel_for("Slice")([x], {"axis": 1, "start": 1, "stop": 3})[
            0
        ].shape == (2, 2)
        gathered = kernel_for("Gather")(
            [x, np.array([2, 0])], {"axis": 1}
        )[0]
        assert gathered[:, 0].tolist() == [2.0, 5.0]

    def test_softmax_rows_sum_to_one(self):
        out = kernel_for("Softmax")([np.random.default_rng(0).normal(size=(4, 3))], {})[0]
        assert np.allclose(out.sum(axis=1), 1.0)

    def test_reductions(self):
        x = np.arange(6.0).reshape(2, 3)
        assert kernel_for("ReduceSum")([x], {"axis": 1})[0].tolist() == [3.0, 12.0]
        assert kernel_for("ArgMax")([x], {"axis": 1})[0].tolist() == [2, 2]

    def test_unknown_op(self):
        with pytest.raises(UnsupportedOpError):
            kernel_for("Conv3D")

    def test_cost_estimates_scale(self):
        small = estimate_cost("MatMul", [np.zeros((10, 10)), np.zeros((10, 10))])
        big = estimate_cost("MatMul", [np.zeros((100, 10)), np.zeros((10, 10))])
        assert big.flops == 10 * small.flops

    def test_transcendental_ops_cost_more_flops(self):
        x = np.zeros((10, 4))
        add = estimate_cost("Add", [x, x])
        sigmoid = estimate_cost("Sigmoid", [x])
        assert add.flops == x.size and sigmoid.flops == 8 * x.size
        assert sigmoid.bytes_moved == add.bytes_moved / 2


class TestGraphOptimizer:
    def test_constant_fold_removes_constant_subgraph(self):
        graph = Graph(inputs=["X"], outputs=["y"])
        graph.add_initializer("a", np.array(2.0))
        graph.add_initializer("b", np.array(3.0))
        graph.add_node("Mul", ["a", "b"], ["ab"])
        graph.add_node("Add", ["X", "ab"], ["y"])
        folded = constant_fold(graph)
        assert len(folded.nodes) == 1
        assert folded.initializers["ab"] == 6.0

    def test_identity_elimination(self):
        graph = Graph(inputs=["X"], outputs=["y"])
        graph.add_initializer("zero", np.zeros(1))
        graph.add_node("Identity", ["X"], ["a"])
        graph.add_node("Add", ["a", "zero"], ["y"])
        slim = eliminate_identities(graph)
        assert slim.outputs == ["X"]
        assert len(slim.nodes) == 0

    def test_dead_code_elimination(self):
        graph = linear_graph()
        graph.add_node("Relu", ["xw"], ["unused"])
        assert len(eliminate_dead_code(graph).nodes) == 2

    def test_gemm_fusion(self):
        fused = fuse_matmul_add(linear_graph())
        assert [n.op_type for n in fused.nodes] == ["Gemm"]

    def test_optimize_preserves_semantics(self):
        graph = linear_graph()
        x = np.array([[1.0, 1.0], [2.0, 0.0]])
        raw = InferenceSession(graph, optimize_graph=False).run({"X": x})[0]
        optimized = InferenceSession(optimize(graph)).run({"X": x})[0]
        assert np.allclose(raw, optimized)


class TestSessions:
    def test_run_and_missing_feed(self):
        session = InferenceSession(linear_graph())
        out = session.run({"X": np.array([[1.0, 1.0]])})[0]
        assert out.tolist() == [[6.0]]
        with pytest.raises(TensorError):
            session.run({})

    def test_run_single(self):
        session = InferenceSession(linear_graph())
        assert session.run_single(np.array([[0.0, 1.0]])).tolist() == [[4.0]]

    def test_stats_populated(self):
        session = InferenceSession(linear_graph())
        session.run({"X": np.ones((10, 2))})
        stats = session.last_run_stats
        assert stats is not None and stats.ops_executed >= 1
        assert stats.seconds > 0

    def test_serialization_roundtrip(self, tmp_path):
        graph = linear_graph()
        path = serialize.save_graph(graph, tmp_path / "model.json")
        restored = serialize.load_graph(path)
        x = np.array([[3.0, -1.0]])
        assert np.allclose(
            InferenceSession(restored).run({"X": x})[0],
            InferenceSession(graph).run({"X": x})[0],
        )

    def test_serialize_rejects_bad_version(self):
        with pytest.raises(TensorError):
            serialize.loads('{"format_version": 99}')


class TestDevices:
    """The simulated GPU of Fig. 2(d), a fixture under ``benchmarks/``."""

    def test_gpu_matches_cpu_results(self, xy_binary):
        X, y = xy_binary
        from repro.ml import RandomForestClassifier

        model = RandomForestClassifier(
            n_estimators=4, max_depth=4, random_state=0
        ).fit(X, y)
        graph = convert(model)
        cpu_out = InferenceSession(graph).run({"X": X})[0]
        gpu_out = GPUSession(graph).run({"X": X})[0]
        assert np.allclose(cpu_out, gpu_out)

    def test_gpu_simulated_time_scales_with_batch(self):
        graph = linear_graph()
        gpu = GPUSession(graph)
        gpu.run({"X": np.ones((10, 2))})
        small = gpu.seconds
        gpu.run({"X": np.ones((100_000, 2))})
        large = gpu.seconds
        assert large > small

    def test_gpu_launch_floor(self):
        """Tiny batches are launch-latency bound, the Fig 2(d) crossover."""
        device = SimulatedGPU(kernel_launch_seconds=1e-3)
        graph = linear_graph()
        session = GPUSession(graph, device)
        session.run({"X": np.ones((1, 2))})
        assert session.seconds >= 1e-3

    def test_gpu_time_is_analytical(self):
        # Modelled time depends on shapes only, so Fig. 2(d)'s GPU
        # series is the same number on every run and every machine.
        X = np.ones((1000, 2))
        first = GPUSession(linear_graph())
        first.run({"X": X})
        again = first.seconds
        first.run({"X": X})
        fresh = GPUSession(linear_graph())
        fresh.run({"X": X})
        assert again == first.seconds == fresh.seconds

    def test_transfer_seconds_is_latency_plus_bandwidth(self):
        device = SimulatedGPU(pcie_bandwidth_bytes=1e3, pcie_latency_seconds=0.5)
        arrays = [np.zeros(100), np.zeros((5, 5))]
        assert device.transfer_seconds(arrays) == 0.5 + (800 + 200) / 1e3
        assert device.transfer_seconds([]) == 0.5

    @pytest.mark.parametrize(
        "bound, device",
        [
            ("launch", SimulatedGPU(kernel_launch_seconds=1e6)),
            (
                "compute",
                SimulatedGPU(
                    kernel_launch_seconds=0.0,
                    matmul_throughput_flops=1.0,
                    memory_bandwidth_bytes=1e12,
                ),
            ),
            (
                "memory",
                SimulatedGPU(
                    kernel_launch_seconds=0.0,
                    matmul_throughput_flops=1e12,
                    memory_bandwidth_bytes=1.0,
                ),
            ),
        ],
        ids=["launch", "compute", "memory"],
    )
    def test_kernel_seconds_takes_the_binding_bound(self, bound, device):
        inputs = [np.zeros((4, 3)), np.zeros((3, 2))]
        cost = estimate_cost("MatMul", inputs)
        expected = {
            "launch": device.kernel_launch_seconds,
            "compute": cost.flops / device.matmul_throughput_flops,
            "memory": cost.bytes_moved / device.memory_bandwidth_bytes,
        }[bound]
        assert device.kernel_seconds("MatMul", inputs) == expected


class TestConverters:
    @pytest.mark.parametrize("depth", [1, 3, 6])
    def test_tree_gemm_exact(self, xy_binary, depth):
        X, y = xy_binary
        from repro.ml import DecisionTreeClassifier

        model = DecisionTreeClassifier(max_depth=depth, random_state=0).fit(X, y)
        graph = convert(model)
        lowered = lower_tree_ensembles(graph)
        # The coster prices the interpreter by this count.
        assert gemm_node_count(graph) == len(lowered.nodes)
        out = InferenceSession(lowered).run({"X": X})[0]
        assert np.array_equal(out.ravel(), model.predict(X))

    def test_full_featurized_pipeline_exact(self):
        rng = np.random.default_rng(2)
        X = np.column_stack(
            [
                rng.integers(0, 5, 400).astype(float),
                rng.normal(size=400),
                rng.normal(size=400),
            ]
        )
        y = ((X[:, 0] == 2) | (X[:, 1] > 0)).astype(float)
        from repro.ml import (
            ColumnTransformer,
            LogisticRegression,
            OneHotEncoder,
            Pipeline,
            StandardScaler,
        )

        pipe = Pipeline(
            [
                (
                    "ct",
                    ColumnTransformer(
                        [
                            ("oh", OneHotEncoder(), [0]),
                            ("sc", StandardScaler(), [1, 2]),
                        ]
                    ),
                ),
                ("clf", LogisticRegression(max_iter=300)),
            ]
        ).fit(X, y)
        graph = convert(pipe)
        prediction, probability = InferenceSession(graph).run({"X": X})
        assert np.array_equal(prediction.ravel(), pipe.predict(X))
        assert np.allclose(probability.ravel(), pipe.predict_proba(X)[:, 1])

    def test_unsupported_model_raises(self):
        class Strange:
            pass

        with pytest.raises(UnsupportedOpError):
            convert(Strange())

    def test_single_leaf_tree(self):
        from repro.ml import DecisionTreeRegressor

        X = np.ones((10, 2))
        model = DecisionTreeRegressor().fit(X, np.full(10, 7.0))
        out = InferenceSession(convert(model)).run({"X": X})[0]
        assert np.allclose(out, 7.0)

    @pytest.mark.parametrize(
        "array, index, bad",
        [
            ("left", 0, 10_000),  # child out of range
            ("right", 0, 0),  # the root is its own child: a cycle
            ("feature", 0, 6),  # feature past n_features (6)
            ("threshold", 0, np.nan),
            ("roots", 0, -1),
        ],
    )
    def test_stored_tree_ensemble_is_validated(self, xy_binary, array, index, bad):
        # A stored graph is outside input: a walk down malformed tree
        # arrays could index out of range or never reach a leaf.
        X, y = xy_binary
        from repro.ml import DecisionTreeClassifier

        graph = convert(DecisionTreeClassifier(max_depth=3).fit(X, y))
        node = next(n for n in graph.nodes if n.op_type == "TreeEnsemble")
        names = dict(zip(
            ("feature", "threshold", "left", "right", "value", "roots"),
            node.inputs[1:],
        ))
        graph.initializers[names[array]][index] = bad
        with pytest.raises(TensorError):
            serialize.loads(serialize.dumps(graph))
