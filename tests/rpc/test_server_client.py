"""Storage server + client tests over the in-memory channel."""

import numpy as np
import pytest

from repro.data.trace import TraceDataset
from repro.preprocessing.payload import PayloadKind
from repro.rpc import (
    RESPONSE_HEADER_SIZE,
    FetchRequest,
    InMemoryChannel,
    ProtocolError,
    StorageClient,
    StorageServer,
)


@pytest.fixture
def server(materialized_tiny, pipeline):
    return StorageServer(materialized_tiny, pipeline, seed=0)


@pytest.fixture
def client(server):
    return StorageClient(InMemoryChannel(server.handle))


class TestServer:
    def test_rejects_trace_dataset(self, pipeline):
        trace = TraceDataset([100], [32], [32])
        with pytest.raises(ValueError):
            StorageServer(trace, pipeline)

    def test_split_zero_returns_stored_bytes(self, server, materialized_tiny):
        resp = server.serve(FetchRequest(0, 0, 0))
        assert resp.kind is PayloadKind.ENCODED
        assert resp.payload == materialized_tiny.raw_payload(0).data

    def test_split_two_returns_cropped_pixels(self, server):
        resp = server.serve(FetchRequest(0, 0, 2))
        assert resp.kind is PayloadKind.IMAGE_U8
        assert (resp.height, resp.width) == (224, 224)
        assert len(resp.payload) == 224 * 224 * 3

    def test_full_split_returns_tensor(self, server, pipeline):
        resp = server.serve(FetchRequest(0, 0, len(pipeline)))
        assert resp.kind is PayloadKind.TENSOR_F32
        assert len(resp.payload) == 224 * 224 * 3 * 4

    def test_out_of_range_sample_rejected(self, server, materialized_tiny):
        with pytest.raises(ProtocolError):
            server.serve(FetchRequest(len(materialized_tiny), 0, 0))

    def test_split_beyond_pipeline_rejected(self, server):
        with pytest.raises(ProtocolError):
            server.serve(FetchRequest(0, 0, 6))

    def test_accounting(self, server):
        server.serve(FetchRequest(0, 0, 0))
        server.serve(FetchRequest(1, 0, 3))
        assert server.requests_served == 2
        assert server.ops_executed == 3
        assert server.cpu_seconds > 0
        assert server.splits_served == {0: 1, 3: 1}


class TestClient:
    def test_fetch_counts_response_traffic(self, client, materialized_tiny):
        payload = client.fetch(0, 0, 0)
        assert client.traffic_bytes == RESPONSE_HEADER_SIZE + payload.nbytes

    def test_fetch_split_two_traffic_is_crop_size(self, client):
        client.fetch(0, 0, 2)
        assert client.traffic_bytes == RESPONSE_HEADER_SIZE + 224 * 224 * 3

    def test_fetched_prefix_continues_identically(
        self, client, server, materialized_tiny, pipeline
    ):
        sid = 3
        local = pipeline.run(
            materialized_tiny.raw_payload(sid), seed=0, epoch=1, sample_id=sid
        ).payload.data
        for split in range(6):
            partial = client.fetch(sid, 1, split)
            finished = pipeline.run(
                partial, seed=0, epoch=1, sample_id=sid, start=split
            ).payload.data
            assert np.array_equal(finished, local), f"split {split}"

    def test_epoch_changes_server_side_augmentation(self, client):
        a = client.fetch(0, 0, 2).data
        b = client.fetch(0, 1, 2).data
        assert not np.array_equal(a, b)

    def test_traffic_accumulates(self, client):
        client.fetch(0, 0, 0)
        first = client.traffic_bytes
        client.fetch(1, 0, 0)
        assert client.traffic_bytes > first
