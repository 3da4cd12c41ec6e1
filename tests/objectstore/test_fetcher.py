"""Object-lambda fetcher tests: full training path against the store."""

import numpy as np
import pytest

from repro.data.loader import DataLoader
from repro.objectstore import (
    Bucket,
    LambdaRegistry,
    ObjectBackedDataset,
    ObjectLambdaFetcher,
    PreprocessingLambda,
    upload_dataset,
)
from repro.rpc import InMemoryChannel, StorageClient, StorageServer


@pytest.fixture
def stack(materialized_tiny, pipeline):
    bucket = Bucket("train")
    upload_dataset(materialized_tiny, bucket)
    registry = LambdaRegistry(bucket)
    PreprocessingLambda(pipeline, seed=0).install(registry)
    return bucket, registry, ObjectLambdaFetcher(registry)


class TestObjectLambdaFetcher:
    def test_requires_installed_lambda(self, materialized_tiny):
        bucket = Bucket("b")
        upload_dataset(materialized_tiny, bucket)
        with pytest.raises(ValueError):
            ObjectLambdaFetcher(LambdaRegistry(bucket))

    def test_fetch_matches_rpc_server(self, stack, materialized_tiny, pipeline):
        _, _, fetcher = stack
        server = StorageServer(materialized_tiny, pipeline, seed=0)
        client = StorageClient(InMemoryChannel(server.handle))
        for split in (0, 2, 5):
            via_lambda = fetcher.fetch(1, 0, split)
            via_rpc = client.fetch(1, 0, split)
            if split == 0:
                assert via_lambda.data == via_rpc.data
            else:
                assert np.array_equal(via_lambda.data, via_rpc.data)

    def test_loader_trains_against_the_store(self, stack, materialized_tiny, pipeline):
        bucket, _, fetcher = stack
        view = ObjectBackedDataset(bucket)
        splits = [2 if view.raw_meta(i).nbytes > 150_528 else 0 for i in range(len(view))]
        loader = DataLoader(view, pipeline, fetcher, batch_size=5, splits=splits, seed=0)
        count = 0
        for batch in loader.epoch(0):
            count += len(batch)
            assert batch.tensors.shape[1:] == (3, 224, 224)
        assert count == len(materialized_tiny)
        assert fetcher.traffic_bytes > 0

    def test_traffic_counts_post_lambda_bytes(self, stack):
        _, _, fetcher = stack
        before = fetcher.traffic_bytes
        payload = fetcher.fetch(0, 0, 2)
        from repro.rpc import RESPONSE_HEADER_SIZE

        assert fetcher.traffic_bytes - before == RESPONSE_HEADER_SIZE + payload.nbytes

    def test_lambda_invocations_counted(self, stack):
        _, registry, fetcher = stack
        fetcher.fetch(0, 0, 2)
        fetcher.fetch(1, 0, 0)
        assert registry.invocations[PreprocessingLambda.NAME] == 2
