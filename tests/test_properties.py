"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.ecdf import Ecdf
from repro.devices.battery import Battery
from repro.devices.device import DEVICE_FLEET
from repro.devices.scheduler import CpuScheduler, ThreadConfig
from repro.dnn.builder import GraphBuilder
from repro.dnn.layers import OpType
from repro.dnn.tensor import DType, TensorSpec, WeightTensor
from repro.formats.payload import decode_graph, encode_graph
from repro.runtime.latency_model import LatencyModel
from repro.store.columnar import open_columns, pack_columns
from repro.store.schema import Column, RowKind


# --------------------------------------------------------------------------- #
# Weight tensors
# --------------------------------------------------------------------------- #
@given(
    shape=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    sparsity=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=50, deadline=None)
def test_weight_tensor_checksum_is_deterministic(shape, seed, sparsity):
    a = WeightTensor(tuple(shape), seed=seed, sparsity=sparsity)
    b = WeightTensor(tuple(shape), seed=seed, sparsity=sparsity)
    assert a.checksum() == b.checksum()
    assert a.num_parameters == b.num_parameters


@given(
    shape=st.lists(st.integers(min_value=1, max_value=32), min_size=1, max_size=3),
    seed_a=st.integers(min_value=0, max_value=1000),
    seed_b=st.integers(min_value=1001, max_value=2000),
)
@settings(max_examples=30, deadline=None)
def test_weight_tensor_different_seeds_differ(shape, seed_a, seed_b):
    a = WeightTensor(tuple(shape), seed=seed_a)
    b = WeightTensor(tuple(shape), seed=seed_b)
    assert a.checksum() != b.checksum()


@given(
    dims=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=4),
    dtype=st.sampled_from(list(DType)),
)
@settings(max_examples=50, deadline=None)
def test_tensor_spec_size_consistency(dims, dtype):
    spec = TensorSpec(tuple(dims), dtype)
    assert spec.size_bytes == spec.num_elements * dtype.bytes_per_element
    assert spec.num_elements >= 1


# --------------------------------------------------------------------------- #
# Graph construction and serialisation round trips
# --------------------------------------------------------------------------- #
@st.composite
def small_cnn(draw):
    """A random small CNN built with the graph builder."""
    resolution = draw(st.sampled_from([16, 32, 48]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    builder = GraphBuilder(f"random_cnn_{seed}", (1, resolution, resolution, 3),
                           weight_seed=seed)
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        filters = draw(st.sampled_from([8, 16, 24]))
        if draw(st.booleans()):
            builder.depthwise_conv2d(kernel=3, stride=1, activation=OpType.RELU6)
            builder.conv2d(filters, kernel=1)
        else:
            builder.conv2d(filters, kernel=3, stride=draw(st.sampled_from([1, 2])),
                           activation=OpType.RELU)
    builder.global_avg_pool()
    builder.dense(draw(st.sampled_from([2, 10, 100])))
    builder.softmax()
    return builder.build()


@given(graph=small_cnn())
@settings(max_examples=25, deadline=None)
def test_random_graphs_are_well_formed(graph):
    assert graph.is_acyclic()
    assert graph.total_parameters() > 0
    assert graph.total_flops() >= 2 * graph.total_macs() - graph.num_layers
    fractions = graph.layer_category_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


@given(graph=small_cnn())
@settings(max_examples=20, deadline=None)
def test_payload_round_trip_preserves_identity(graph):
    restored = decode_graph(encode_graph(graph))
    assert restored.weights_checksum() == graph.weights_checksum()
    assert restored.total_flops() == graph.total_flops()
    assert restored.num_layers == graph.num_layers


# --------------------------------------------------------------------------- #
# Scheduler and latency model invariants
# --------------------------------------------------------------------------- #
@given(
    device=st.sampled_from(list(DEVICE_FLEET)),
    threads=st.integers(min_value=1, max_value=16),
    affinity=st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
)
@settings(max_examples=60, deadline=None)
def test_scheduler_throughput_is_positive_and_bounded(device, threads, affinity):
    scheduler = CpuScheduler(device.soc)
    throughput = scheduler.effective_gflops(ThreadConfig(threads, affinity))
    assert 0 < throughput <= device.soc.peak_cpu_gflops


@given(
    device=st.sampled_from(list(DEVICE_FLEET)),
    batch=st.integers(min_value=1, max_value=32),
    graph=small_cnn(),
)
@settings(max_examples=20, deadline=None)
def test_latency_monotone_in_batch(device, batch, graph):
    model = LatencyModel(device)
    single = model.graph_latency_ms(graph, batch=1)
    batched = model.graph_latency_ms(graph, batch=batch)
    assert batched >= single
    assert batched <= single * batch + 1e-6


# --------------------------------------------------------------------------- #
# Battery and ECDF invariants
# --------------------------------------------------------------------------- #
@given(
    capacity=st.integers(min_value=1000, max_value=6000),
    energy=st.floats(min_value=0.0, max_value=1e5),
)
@settings(max_examples=50, deadline=None)
def test_battery_discharge_is_monotone(capacity, energy):
    battery = Battery(capacity_mah=capacity)
    assert battery.discharge_mah(energy) >= 0
    assert 0.0 <= battery.discharge_fraction(energy) <= 1.0
    assert battery.discharge_mah(energy) <= battery.discharge_mah(energy + 1.0)


@given(samples=st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_ecdf_is_a_distribution(samples):
    ecdf = Ecdf.from_samples(samples)
    assert ecdf(min(samples) - 1.0) == 0.0
    assert ecdf(max(samples)) == 1.0
    assert 0.0 <= ecdf(sum(samples) / len(samples)) <= 1.0


# --------------------------------------------------------------------------- #
# Columnar codec round trips
# --------------------------------------------------------------------------- #
_CODEC_DTYPES = ["?", "i1", "i2", "i4", "i8", "u1", "u2", "u4", "u8",
                 "f4", "f8"]


@st.composite
def codec_columns(draw):
    """One numeric column: dtype (either byte order), length and values."""
    code = draw(st.sampled_from(_CODEC_DTYPES))
    order = draw(st.sampled_from("<>")) if code not in ("?", "i1", "u1") \
        else "|"
    dtype = np.dtype(order + code)
    rows = draw(st.one_of(st.sampled_from([0, 1]),
                          st.integers(min_value=2, max_value=3000)))
    shape = draw(st.sampled_from(["constant", "random", "smooth", "nan"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if dtype.kind == "b":
        values = rng.integers(0, 2, rows).astype(bool)
        if shape == "constant":
            values[:] = bool(rng.integers(0, 2))
        return values
    # Random bytes cover every bit pattern: NaN payloads, infinities,
    # signed zeros and subnormals included.
    values = rng.integers(0, 256, rows * dtype.itemsize,
                          dtype=np.uint8).view(dtype)
    if shape == "constant" and rows:
        values = np.full(rows, values[0], dtype=dtype)
    elif shape == "smooth":
        values = np.cumsum(rng.integers(0, 3, rows)).astype(dtype)
    elif shape == "nan" and dtype.kind == "f":
        values = rng.normal(0.0, 100.0, rows).astype(dtype)
        values[rng.random(rows) < 0.2] = np.nan
        values[rng.random(rows) < 0.05] = -0.0
    return values


@given(values=codec_columns(), compress=st.booleans())
@settings(max_examples=200, deadline=None)
def test_columnar_codec_round_trips_bit_for_bit(values, compress):
    """pack -> unpack returns every value bit for bit, in its dtype (made
    little-endian); compression never makes a section larger than it is
    plain, and only compressed wide numeric sections are shuffled."""
    kind = RowKind("codec", (Column("v", "f8"),), to_row=dict)
    payload = pack_columns(kind, {"v": values}, compress=compress)
    decoded = open_columns(payload, kind, expected_rows=values.size)["v"]
    little = values.dtype.newbyteorder("<")
    assert decoded.dtype == little
    assert decoded.tobytes() == values.astype(little).tobytes()
    assert not decoded.flags.writeable

    plain = pack_columns(kind, {"v": values})

    def sections(payload: bytes) -> int:
        return len(payload) - 8 - int.from_bytes(payload[4:8], "little")

    assert sections(payload) <= sections(plain) == values.nbytes
    header = payload[8:8 + int.from_bytes(payload[4:8], "little")]
    if b'"shuffle"' in header:
        assert compress and values.dtype.itemsize > 1
        assert b'"compression": "zlib"' in header
